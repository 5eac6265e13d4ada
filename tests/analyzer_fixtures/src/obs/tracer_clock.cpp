// Fixture: identical clock reads to det_wallclock_bad.cpp, but the
// path matches the obs/tracer allowlist entry (span timing reads the
// steady clock), so det-wallclock stays silent.
#include <chrono>
#include <ctime>

double sampleNow()
{
    const auto t = std::chrono::steady_clock::now();
    (void)t;
    return static_cast<double>(std::time(nullptr));
}
