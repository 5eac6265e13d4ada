/**
 * @file
 * Private shared pieces of the SIMD kernel implementations: the
 * exp(-z) approximation constants, the scalar per-element helper
 * (used by simd::ref and by the vector TU's remainder loop, so both
 * run literally the same operations), and the declarations of the
 * AVX2 kernels defined in simd_avx2.cpp.
 *
 * This header is private to src/linalg/ - the analyzer's arch pack
 * keeps SIMD code confined there.
 */

#ifndef SATORI_SRC_LINALG_SIMD_KERNELS_HPP
#define SATORI_SRC_LINALG_SIMD_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace satori {
namespace linalg {
namespace simd {
namespace detail {

// exp(-z) approximation: Cody-Waite reduction against a split ln 2,
// then a degree-9 Taylor polynomial on r in [-ln2/2, ln2/2]
// (remainder < 1e-11 relative), then scaling by 2^k assembled from
// exponent bits. The constants and operation order are shared by the
// scalar and vector implementations so the two are bit-identical.
inline constexpr double kLog2E = 1.4426950408889634;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
/** 1.5 * 2^52: adding it forces round-to-nearest-integer in a double. */
inline constexpr double kShifter = 6755399441055744.0;
/** exp(-z) underflows to 0 beyond this; also bounds the 2^k exponent. */
inline constexpr double kZMax = 708.0;
inline constexpr double kExpC9 = 1.0 / 362880.0;
inline constexpr double kExpC8 = 1.0 / 40320.0;
inline constexpr double kExpC7 = 1.0 / 5040.0;
inline constexpr double kExpC6 = 1.0 / 720.0;
inline constexpr double kExpC5 = 1.0 / 120.0;
inline constexpr double kExpC4 = 1.0 / 24.0;
inline constexpr double kExpC3 = 1.0 / 6.0;
inline constexpr double kExpC2 = 0.5;

/** One element of fastExpNegInto: approximate exp(-z) for z >= 0. */
[[nodiscard]] inline double
expNegOne(double z)
{
    const double zc = z > kZMax ? kZMax : z;
    const double t = -zc;
    const double kd = t * kLog2E + kShifter;
    const double kf = kd - kShifter;
    const double r_hi = t - kf * kLn2Hi;
    const double r = r_hi - kf * kLn2Lo;
    double p = kExpC9;
    p = p * r + kExpC8;
    p = p * r + kExpC7;
    p = p * r + kExpC6;
    p = p * r + kExpC5;
    p = p * r + kExpC4;
    p = p * r + kExpC3;
    p = p * r + kExpC2;
    p = p * r + 1.0;
    p = p * r + 1.0;
    const auto ki = static_cast<std::int64_t>(kf);
    const std::uint64_t scale_bits =
        static_cast<std::uint64_t>(ki + 1023) << 52;
    double scale = 0.0;
    std::memcpy(&scale, &scale_bits, sizeof scale);
    const double out = p * scale;
    return z > kZMax ? 0.0 : out;
}

} // namespace detail

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
void fastExpNegInto(double* out, const double* z, std::size_t n);

} // namespace avx2
#endif // SATORI_SIMD_AVX2

} // namespace simd
} // namespace linalg
} // namespace satori

#endif // SATORI_SRC_LINALG_SIMD_KERNELS_HPP
