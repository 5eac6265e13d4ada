/**
 * @file
 * Private declarations of the AVX2 kernels defined in simd_avx2.cpp,
 * shared with the dispatcher in simd.cpp.
 *
 * This header is private to src/linalg/ - the analyzer's arch pack
 * keeps SIMD code confined there.
 */

#ifndef SATORI_SRC_LINALG_SIMD_KERNELS_HPP
#define SATORI_SRC_LINALG_SIMD_KERNELS_HPP

#include <cstddef>

namespace satori {
namespace linalg {
namespace simd {

#if defined(SATORI_SIMD_AVX2)
/** AVX2 implementations (src/linalg/simd_avx2.cpp; compiled with
 * -mavx2 and FP contraction off so lanes match the scalar ops). */
namespace avx2 {

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

} // namespace avx2
#endif // SATORI_SIMD_AVX2

} // namespace simd
} // namespace linalg
} // namespace satori

#endif // SATORI_SRC_LINALG_SIMD_KERNELS_HPP
