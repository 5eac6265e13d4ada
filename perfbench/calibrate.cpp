/**
 * @file
 * The host-speed reference: a fixed kernel timed between decides so
 * reported host times can be expressed at a reference host speed (see
 * README.md, "Host speed").
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr int kN = 64;
constexpr int kDim = 15;
constexpr int kCands = 320;
constexpr std::uint64_t kPeriodNs = 100'000'000;

/** Buffers allocated once, so sampling leaves the heap as it was. */
struct Workspace
{
    std::vector<double> x = std::vector<double>(kN * kDim);
    std::vector<double> c = std::vector<double>(kCands * kDim);
    std::vector<double> k = std::vector<double>(kN * kCands);
    std::vector<double> m = std::vector<double>(kN * kN);
};

/** Host seconds of one run of the reference kernel. */
double
referenceKernelSeconds()
{
    static Workspace ws;
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
        for (int i = 0; i < kN * kDim; ++i)
            ws.x[i] = std::fmod((i + rep) * 0.6180339887, 1.0);
        for (int i = 0; i < kCands * kDim; ++i)
            ws.c[i] = std::fmod(i * 0.4142135623, 1.0);
        // Matern-5/2 cross-covariance (GP scoring).
        for (int a = 0; a < kCands; ++a)
            for (int b = 0; b < kN; ++b) {
                double d2 = 0.0;
                for (int d = 0; d < kDim; ++d) {
                    const double t = ws.c[a * kDim + d] - ws.x[b * kDim + d];
                    d2 += t * t;
                }
                const double r = std::sqrt(5.0 * d2);
                ws.k[a * kN + b] = (1.0 + r + r * r / 3.0) * std::exp(-r);
            }
        // Cholesky of an SPD matrix (GP fit).
        for (int i = 0; i < kN; ++i)
            for (int j = 0; j < kN; ++j)
                ws.m[i * kN + j] = ws.k[i * kN + j] * ws.k[j * kN + i] +
                                   (i == j ? kN : 0.0);
        for (int j = 0; j < kN; ++j) {
            double s = ws.m[j * kN + j];
            for (int p = 0; p < j; ++p)
                s -= ws.m[j * kN + p] * ws.m[j * kN + p];
            ws.m[j * kN + j] = std::sqrt(s);
            for (int i = j + 1; i < kN; ++i) {
                double t = ws.m[i * kN + j];
                for (int p = 0; p < j; ++p)
                    t -= ws.m[i * kN + p] * ws.m[j * kN + p];
                ws.m[i * kN + j] = t / ws.m[j * kN + j];
            }
        }
        sink += ws.m[kN * kN - 1];
        // Small short-lived allocations (configuration objects).
        for (int i = 0; i < 3000; ++i) {
            const std::vector<std::vector<int>> config(3, std::vector<int>(5, i));
            sink += config[i % 3][i % 5] > 0 ? 1e-9 : 0.0;
        }
    }
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Consume the result so the kernel cannot be optimized away.
    return std::isfinite(sink) ? s : s + 1e-12;
}

} // namespace

void
HostSpeedSampler::sample(int reps)
{
    const std::uint64_t t0 = satori::obs::steadyNowNs();
    for (int i = 0; i < reps; ++i)
        kernel_s_.push_back(referenceKernelSeconds());
    last_ns_ = satori::obs::steadyNowNs();
    spent_s_ += static_cast<double>(last_ns_ - t0) * 1e-9;
}

void
HostSpeedSampler::maybeSample()
{
    // One kernel run per 100 ms elapsed, so a long decide (a cold
    // Oracle search) is followed by as many samples as it spanned.
    const std::uint64_t elapsed = satori::obs::steadyNowNs() - last_ns_;
    if (elapsed >= kPeriodNs)
        sample(static_cast<int>(std::min<std::uint64_t>(elapsed / kPeriodNs,
                                                        10)));
}

double
HostSpeedSampler::scale() const
{
    double sum = 0.0;
    for (const double s : kernel_s_)
        sum += s;
    return kernel_s_.empty()
               ? 1.0
               : kReferenceKernelS * static_cast<double>(kernel_s_.size()) /
                     sum;
}

} // namespace perfbench
