// Fixture: identical clock reads to det_wallclock_bad.cpp at a path
// under src/obs/ that is NOT the named allowlist entry (obs/tracer) -
// proving the allowlist covers exactly that source, not the whole obs
// layer.
#include <chrono>
#include <ctime>

double sampleNow()
{
    const auto t = std::chrono::steady_clock::now();
    (void)t;
    return static_cast<double>(std::time(nullptr));
}
