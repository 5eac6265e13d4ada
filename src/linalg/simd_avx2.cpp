/**
 * @file
 * AVX2 implementations of the satori::linalg::simd kernels, written
 * with GCC/Clang portable vector extensions (no immintrin intrinsics
 * needed - the compiler maps 4-lane double vectors onto ymm registers
 * under -mavx2).
 *
 * This TU is compiled with `-mavx2 -ffp-contract=off` (see
 * src/CMakeLists.txt); everything else in the tree keeps the default
 * architecture, and the dispatcher in simd.cpp only calls in here
 * after a runtime CPUID check. FP contraction stays OFF because a
 * fused multiply-add rounds once where the scalar reference rounds
 * twice - it would silently break the bit-identical contract.
 *
 * Every loop body below performs, per lane, exactly the operation
 * sequence of the scalar reference in simd.cpp; remainder elements
 * (n % 4) run the same scalar operations. simd_test pins the
 * equivalence with memcmp.
 */

#if defined(SATORI_SIMD_AVX2)

#include <cstddef>
#include <cstring>

#include "simd_kernels.hpp"

namespace satori {
namespace linalg {
namespace simd {
namespace avx2 {

namespace {

using v4d = double __attribute__((vector_size(32)));

inline v4d
load4(const double* p)
{
    v4d v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store4(double* p, v4d v)
{
    std::memcpy(p, &v, sizeof v);
}

inline v4d
broadcast(double a)
{
    return v4d{ a, a, a, a };
}

} // namespace

void
subScaled(double* y, const double* x, double a, std::size_t n)
{
    const v4d av = broadcast(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        store4(y + i, load4(y + i) - av * load4(x + i));
        store4(y + i + 4, load4(y + i + 4) - av * load4(x + i + 4));
    }
    for (; i + 4 <= n; i += 4)
        store4(y + i, load4(y + i) - av * load4(x + i));
    for (; i < n; ++i)
        y[i] -= a * x[i];
}

void
subScaled4(double* y, const double* x0, double a0, const double* x1,
           double a1, const double* x2, double a2, const double* x3,
           double a3, std::size_t n)
{
    // Per lane the exact sequence of four subScaled calls; y is
    // loaded and stored once per vector instead of four times, which
    // is the entire point - the triangular solves are bound on
    // accumulator-row traffic, not arithmetic.
    const v4d a0v = broadcast(a0);
    const v4d a1v = broadcast(a1);
    const v4d a2v = broadcast(a2);
    const v4d a3v = broadcast(a3);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        v4d v = load4(y + i);
        v = v - a0v * load4(x0 + i);
        v = v - a1v * load4(x1 + i);
        v = v - a2v * load4(x2 + i);
        v = v - a3v * load4(x3 + i);
        store4(y + i, v);
    }
    for (; i < n; ++i) {
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
    const v4d dv = broadcast(d);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(y + i, load4(y + i) / dv);
    for (; i < n; ++i)
        y[i] /= d;
}

void
accumSqDiff(double* acc, const double* xs, double q, std::size_t n)
{
    const v4d qv = broadcast(q);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const v4d dvec = load4(xs + i) - qv;
        store4(acc + i, load4(acc + i) + dvec * dvec);
    }
    for (; i < n; ++i) {
        const double d = xs[i] - q;
        acc[i] += d * d;
    }
}

void
sqDistInto(double* out, const double* const* xs, const double* q,
           std::size_t dims, std::size_t n)
{
    // Accumulates across dimensions in registers: per lane the exact
    // zero-then-ascending-d accumSqDiff sequence, with out written
    // once instead of once per dimension.
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        v4d acc = broadcast(0.0);
        for (std::size_t d = 0; d < dims; ++d) {
            const v4d diff = load4(xs[d] + i) - broadcast(q[d]);
            acc = acc + diff * diff;
        }
        store4(out + i, acc);
    }
    for (; i < n; ++i) {
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
    const v4d av = broadcast(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        store4(acc + i, load4(acc + i) + av * load4(xs + i));
        store4(acc + i + 4, load4(acc + i + 4) + av * load4(xs + i + 4));
    }
    for (; i + 4 <= n; i += 4)
        store4(acc + i, load4(acc + i) + av * load4(xs + i));
    for (; i < n; ++i)
        acc[i] += a * xs[i];
}

void
accumSquare(double* acc, const double* xs, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const v4d xv = load4(xs + i);
        store4(acc + i, load4(acc + i) + xv * xv);
    }
    for (; i < n; ++i)
        acc[i] += xs[i] * xs[i];
}

void
sumIpsJainInto(double* thr, double* fair, const double* const* ips_rows,
               const double* const* spd_rows, std::size_t jobs,
               std::size_t n, double iso_sum, double scale)
{
    // Per lane the scalar sequence; both branches of each select are
    // computed (a discarded var / 0 lane is harmless), and the n % 4
    // tail stays in this TU so no call leaves AVX code with dirty
    // upper register halves.
    const double count = static_cast<double>(jobs);
    const v4d zero = broadcast(0.0);
    const v4d one = broadcast(1.0);
    const v4d countv = broadcast(count);
    const v4d isov = broadcast(iso_sum);
    const v4d scalev = broadcast(scale);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        v4d sum_ips = zero;
        v4d m = zero;
        for (std::size_t j = 0; j < jobs; ++j) {
            sum_ips = sum_ips + load4(ips_rows[j] + i);
            m = m + load4(spd_rows[j] + i);
        }
        m = m / countv;
        v4d ss = zero;
        for (std::size_t j = 0; j < jobs; ++j) {
            const v4d d = load4(spd_rows[j] + i) - m;
            ss = ss + d * d;
        }
        const v4d var = ss / countv;
        const v4d cov2 = (m > zero) ? var / (m * m) : zero;
        store4(fair + i, one / (one + cov2));
        const v4d x = sum_ips / isov / scalev;
        store4(thr + i, (one < x) ? one : x);
    }
    for (; i < n; ++i) {
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

} // namespace avx2
} // namespace simd
} // namespace linalg
} // namespace satori

#endif // SATORI_SIMD_AVX2
