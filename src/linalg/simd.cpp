/**
 * @file
 * Scalar reference kernels and the runtime dispatch layer for
 * satori::linalg::simd. The dispatch decision (scalar vs AVX2) is
 * made once, at static-initialization time, from a build-time flag
 * (SATORI_SIMD_AVX2, set by CMake when SATORI_SIMD=ON and the
 * compiler accepts -mavx2) and a runtime CPUID check - so a binary
 * built with SIMD on still runs correctly, on the scalar path, on a
 * machine without AVX2.
 */

#include "satori/linalg/simd.hpp"

#include "simd_kernels.hpp"

namespace satori {
namespace linalg {
namespace simd {

namespace ref {

void
subScaled(double* y, const double* x, double a, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] -= a * x[i];
}

void
subScaled4(double* y, const double* x0, double a0, const double* x1,
           double a1, const double* x2, double a2, const double* x3,
           double a3, std::size_t n)
{
    // Element-for-element the sequence of four subScaled calls; only
    // the y traffic is fused.
    for (std::size_t i = 0; i < n; ++i) {
        double v = y[i];
        v -= a0 * x0[i];
        v -= a1 * x1[i];
        v -= a2 * x2[i];
        v -= a3 * x3[i];
        y[i] = v;
    }
}

void
divScalar(double* y, double d, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] /= d;
}

void
accumSqDiff(double* acc, const double* xs, double q, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double d = xs[i] - q;
        acc[i] += d * d;
    }
}

void
sqDistInto(double* out, const double* const* xs, const double* q,
           std::size_t dims, std::size_t n)
{
    // Per element: zero then ascending-d accumSqDiff, fused.
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t d = 0; d < dims; ++d) {
            const double diff = xs[d][i] - q[d];
            acc += diff * diff;
        }
        out[i] = acc;
    }
}

void
fmaAccum(double* acc, const double* xs, double a, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += a * xs[i];
}

void
accumSquare(double* acc, const double* xs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        acc[i] += xs[i] * xs[i];
}

void
sumIpsJainInto(double* thr, double* fair, const double* const* ips_rows,
               const double* const* spd_rows, std::size_t jobs,
               std::size_t n, double iso_sum, double scale)
{
    const double count = static_cast<double>(jobs);
    for (std::size_t i = 0; i < n; ++i) {
        double sum_ips = 0.0;
        double m = 0.0;
        for (std::size_t j = 0; j < jobs; ++j) {
            sum_ips += ips_rows[j][i];
            m += spd_rows[j][i];
        }
        m /= count;
        double ss = 0.0;
        for (std::size_t j = 0; j < jobs; ++j) {
            const double d = spd_rows[j][i] - m;
            ss += d * d;
        }
        const double var = ss / count;
        const double cov2 = m > 0.0 ? var / (m * m) : 0.0;
        fair[i] = 1.0 / (1.0 + cov2);
        const double x = sum_ips / iso_sum / scale;
        thr[i] = (1.0 < x) ? 1.0 : x;
    }
}

} // namespace ref

namespace {

bool
detectVectorized()
{
#if defined(SATORI_SIMD_AVX2)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

// Resolved once; every kernel branches on this predictable bool.
const bool kVectorized = detectVectorized();

} // namespace

bool
vectorized()
{
    return kVectorized;
}

#if defined(SATORI_SIMD_AVX2)

void
subScaled(double* y, const double* x, double a, std::size_t n)
{
    if (kVectorized)
        avx2::subScaled(y, x, a, n);
    else
        ref::subScaled(y, x, a, n);
}

void
subScaled4(double* y, const double* x0, double a0, const double* x1,
           double a1, const double* x2, double a2, const double* x3,
           double a3, std::size_t n)
{
    if (kVectorized)
        avx2::subScaled4(y, x0, a0, x1, a1, x2, a2, x3, a3, n);
    else
        ref::subScaled4(y, x0, a0, x1, a1, x2, a2, x3, a3, n);
}

void
divScalar(double* y, double d, std::size_t n)
{
    if (kVectorized)
        avx2::divScalar(y, d, n);
    else
        ref::divScalar(y, d, n);
}

void
accumSqDiff(double* acc, const double* xs, double q, std::size_t n)
{
    if (kVectorized)
        avx2::accumSqDiff(acc, xs, q, n);
    else
        ref::accumSqDiff(acc, xs, q, n);
}

void
sqDistInto(double* out, const double* const* xs, const double* q,
           std::size_t dims, std::size_t n)
{
    if (kVectorized)
        avx2::sqDistInto(out, xs, q, dims, n);
    else
        ref::sqDistInto(out, xs, q, dims, n);
}

void
fmaAccum(double* acc, const double* xs, double a, std::size_t n)
{
    if (kVectorized)
        avx2::fmaAccum(acc, xs, a, n);
    else
        ref::fmaAccum(acc, xs, a, n);
}

void
accumSquare(double* acc, const double* xs, std::size_t n)
{
    if (kVectorized)
        avx2::accumSquare(acc, xs, n);
    else
        ref::accumSquare(acc, xs, n);
}

void
sumIpsJainInto(double* thr, double* fair, const double* const* ips_rows,
               const double* const* spd_rows, std::size_t jobs,
               std::size_t n, double iso_sum, double scale)
{
    if (kVectorized)
        avx2::sumIpsJainInto(thr, fair, ips_rows, spd_rows, jobs, n,
                             iso_sum, scale);
    else
        ref::sumIpsJainInto(thr, fair, ips_rows, spd_rows, jobs, n,
                            iso_sum, scale);
}

#else // !SATORI_SIMD_AVX2

void
subScaled(double* y, const double* x, double a, std::size_t n)
{
    ref::subScaled(y, x, a, n);
}

void
subScaled4(double* y, const double* x0, double a0, const double* x1,
           double a1, const double* x2, double a2, const double* x3,
           double a3, std::size_t n)
{
    ref::subScaled4(y, x0, a0, x1, a1, x2, a2, x3, a3, n);
}

void
divScalar(double* y, double d, std::size_t n)
{
    ref::divScalar(y, d, n);
}

void
accumSqDiff(double* acc, const double* xs, double q, std::size_t n)
{
    ref::accumSqDiff(acc, xs, q, n);
}

void
sqDistInto(double* out, const double* const* xs, const double* q,
           std::size_t dims, std::size_t n)
{
    ref::sqDistInto(out, xs, q, dims, n);
}

void
fmaAccum(double* acc, const double* xs, double a, std::size_t n)
{
    ref::fmaAccum(acc, xs, a, n);
}

void
accumSquare(double* acc, const double* xs, std::size_t n)
{
    ref::accumSquare(acc, xs, n);
}

void
sumIpsJainInto(double* thr, double* fair, const double* const* ips_rows,
               const double* const* spd_rows, std::size_t jobs,
               std::size_t n, double iso_sum, double scale)
{
    ref::sumIpsJainInto(thr, fair, ips_rows, spd_rows, jobs, n, iso_sum,
                        scale);
}

#endif // SATORI_SIMD_AVX2

} // namespace simd
} // namespace linalg
} // namespace satori
