/**
 * @file
 * Portable vectorized kernels for the linear-algebra hot loops and
 * the Oracle's scoring loop.
 *
 * Every kernel here is *lane-parallel*: element i of the output
 * depends only on element i of the inputs, with the identical
 * sequence of floating-point operations in the scalar and vector
 * implementations (no re-association, no FMA contraction). The
 * vector path is therefore bit-identical to the scalar path - a
 * pure throughput optimization - and simd_test pins that with
 * memcmp.
 *
 * Dispatch is resolved once at startup: when the library is built
 * with SATORI_SIMD=ON and the CPU reports AVX2, the kernels run the
 * vector implementations from src/linalg/simd_avx2.cpp; otherwise
 * the scalar reference implementations in simd::ref. The reference
 * implementations are part of the public surface so tests (and any
 * caller that wants to pin scalar behaviour) can name them directly.
 *
 * All SIMD/intrinsics code in the tree lives under src/linalg/ -
 * the analyzer's arch pack enforces that (see rules_arch.cpp).
 */

#ifndef SATORI_LINALG_SIMD_HPP
#define SATORI_LINALG_SIMD_HPP

#include <cstddef>

namespace satori {
namespace linalg {
namespace simd {

/** True when the vectorized implementations are active (library built
 * with SATORI_SIMD=ON and the CPU supports AVX2 at runtime). */
[[nodiscard]] bool vectorized();

/** y[i] -= a * x[i] for i in [0, n) - the axpy inside the triangular
 * solves. No overlap allowed between y and x. */
void subScaled(double* y, const double* x, double a, std::size_t n);

/**
 * Four fused axpy steps: per element, exactly the operation sequence
 * of subScaled(y, x0, a0, n); ...; subScaled(y, x3, a3, n) - same
 * results bit-for-bit - but with y loaded and stored once instead of
 * four times. The triangular solves' k-loops are memory-bound on the
 * accumulator row; this is their unroll primitive. No overlap
 * allowed between y and any x.
 */
void subScaled4(double* y, const double* x0, double a0,
                const double* x1, double a1, const double* x2,
                double a2, const double* x3, double a3, std::size_t n);

/** y[i] /= d for i in [0, n) - the pivot division across systems. */
void divScalar(double* y, double d, std::size_t n);

/** acc[i] += (xs[i] - q) * (xs[i] - q) for i in [0, n) - squared-
 * distance accumulation across a candidate block, one dimension at a
 * time (xs holds that dimension for every candidate). */
void accumSqDiff(double* acc, const double* xs, double q, std::size_t n);

/**
 * out[i] = sum over d of (xs[d][i] - q[d])^2 for i in [0, n) - the
 * whole squared-distance block in one pass. Per element this is
 * exactly out[i] = 0 followed by ascending-d accumSqDiff, so results
 * are bit-identical to that sequence; fusing keeps the accumulator
 * in registers instead of round-tripping it through memory once per
 * dimension. xs holds one pointer per dimension (SoA layout).
 */
void sqDistInto(double* out, const double* const* xs, const double* q,
                std::size_t dims, std::size_t n);

/** acc[i] += a * xs[i] for i in [0, n) - the GEMV row step of the
 * batched posterior-mean computation. */
void fmaAccum(double* acc, const double* xs, double a, std::size_t n);

/** acc[i] += xs[i] * xs[i] for i in [0, n) - the row step of the
 * batched posterior-variance norm accumulation. */
void accumSquare(double* acc, const double* xs, std::size_t n);

/**
 * The Oracle's default score of n configurations at once: lane i is
 * one configuration, ips_rows[j][i] and spd_rows[j][i] its job j's
 * IPS and speedup (SoA layout, one pointer per job). Per lane, in
 * job order: sum_ips = sum of the IPS; m = (sum of the speedups) /
 * jobs; var = (sum of (s - m)^2) / jobs; cov2 = m > 0 ? var / (m*m)
 * : 0; fair[i] = 1 / (1 + cov2) (Jain's index); x = sum_ips /
 * iso_sum / scale; thr[i] = (1 < x) ? 1 : x, so a NaN passes through
 * the clamp. @p scale is colocationThroughputScale(jobs).
 */
void sumIpsJainInto(double* thr, double* fair,
                    const double* const* ips_rows,
                    const double* const* spd_rows, std::size_t jobs,
                    std::size_t n, double iso_sum, double scale);

/** Scalar reference implementations - the behaviour contract the
 * vector path must match bit-for-bit (pinned by simd_test). */
namespace ref {

void subScaled(double* y, const double* x, double a, std::size_t n);
void subScaled4(double* y, const double* x0, double a0,
                const double* x1, double a1, const double* x2,
                double a2, const double* x3, double a3, std::size_t n);
void divScalar(double* y, double d, std::size_t n);
void accumSqDiff(double* acc, const double* xs, double q, std::size_t n);
void sqDistInto(double* out, const double* const* xs, const double* q,
                std::size_t dims, std::size_t n);
void fmaAccum(double* acc, const double* xs, double a, std::size_t n);
void accumSquare(double* acc, const double* xs, std::size_t n);
void sumIpsJainInto(double* thr, double* fair,
                    const double* const* ips_rows,
                    const double* const* spd_rows, std::size_t jobs,
                    std::size_t n, double iso_sum, double scale);

} // namespace ref

} // namespace simd
} // namespace linalg
} // namespace satori

#endif // SATORI_LINALG_SIMD_HPP
