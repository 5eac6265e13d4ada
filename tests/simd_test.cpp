/**
 * @file
 * Tests for the satori::linalg::simd kernels. The load-bearing
 * property is BIT equality between the dispatched (possibly AVX2)
 * kernels and the scalar references in simd::ref - the library
 * promises that SATORI_SIMD is a pure throughput toggle, and every
 * exactness contract upstream (solve bitwise-stability, decision
 * traces) leans on it. fastExpNegInto additionally gets an accuracy
 * check against libm, since it approximates exp(-z) by design.
 */

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "satori/common/rng.hpp"
#include "satori/linalg/simd.hpp"

namespace satori {
namespace linalg {
namespace simd {
namespace {

/** Sizes straddling the 4-lane and 8-element unroll boundaries. */
const std::size_t kSizes[] = { 0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16,
                               17, 31, 64, 257, 1000 };

std::vector<double>
randomVec(Rng& rng, std::size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (auto& x : v)
        x = rng.uniform(lo, hi);
    return v;
}

bool
bitEqual(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SimdKernelTest, SubScaledMatchesReferenceBitwise)
{
    Rng rng(101);
    for (const std::size_t n : kSizes) {
        const auto x = randomVec(rng, n, -3.0, 3.0);
        const double a = rng.uniform(-2.0, 2.0);
        auto y1 = randomVec(rng, n, -5.0, 5.0);
        auto y2 = y1;
        subScaled(y1.data(), x.data(), a, n);
        ref::subScaled(y2.data(), x.data(), a, n);
        EXPECT_TRUE(bitEqual(y1, y2)) << "n=" << n;
    }
}

TEST(SimdKernelTest, SubScaled4MatchesReferenceBitwise)
{
    Rng rng(111);
    for (const std::size_t n : kSizes) {
        const auto x0 = randomVec(rng, n, -3.0, 3.0);
        const auto x1 = randomVec(rng, n, -3.0, 3.0);
        const auto x2 = randomVec(rng, n, -3.0, 3.0);
        const auto x3 = randomVec(rng, n, -3.0, 3.0);
        const double a0 = rng.uniform(-2.0, 2.0);
        const double a1 = rng.uniform(-2.0, 2.0);
        const double a2 = rng.uniform(-2.0, 2.0);
        const double a3 = rng.uniform(-2.0, 2.0);
        auto y1 = randomVec(rng, n, -5.0, 5.0);
        auto y2 = y1;
        auto y3 = y1;
        subScaled4(y1.data(), x0.data(), a0, x1.data(), a1, x2.data(),
                   a2, x3.data(), a3, n);
        ref::subScaled4(y2.data(), x0.data(), a0, x1.data(), a1,
                        x2.data(), a2, x3.data(), a3, n);
        EXPECT_TRUE(bitEqual(y1, y2)) << "n=" << n;
        // The fused kernel promises the exact sequence of four
        // subScaled calls - the property the triangular solves'
        // bitwise stability rests on.
        subScaled(y3.data(), x0.data(), a0, n);
        subScaled(y3.data(), x1.data(), a1, n);
        subScaled(y3.data(), x2.data(), a2, n);
        subScaled(y3.data(), x3.data(), a3, n);
        EXPECT_TRUE(bitEqual(y1, y3)) << "n=" << n;
    }
}

TEST(SimdKernelTest, SqDistIntoMatchesReferenceBitwise)
{
    Rng rng(222);
    const std::size_t kDims[] = { 1, 2, 3, 7, 10 };
    for (const std::size_t dims : kDims) {
        for (const std::size_t n : kSizes) {
            std::vector<std::vector<double>> planes;
            std::vector<const double*> ptrs;
            for (std::size_t d = 0; d < dims; ++d) {
                planes.push_back(randomVec(rng, n, -4.0, 4.0));
                ptrs.push_back(planes.back().data());
            }
            const auto q = randomVec(rng, dims, -2.0, 2.0);
            std::vector<double> o1(n);
            std::vector<double> o2(n);
            std::vector<double> o3(n, 0.0);
            sqDistInto(o1.data(), ptrs.data(), q.data(), dims, n);
            ref::sqDistInto(o2.data(), ptrs.data(), q.data(), dims, n);
            EXPECT_TRUE(bitEqual(o1, o2)) << dims << "x" << n;
            // Contract: identical to zero-then-ascending-d
            // accumSqDiff, fused.
            for (std::size_t d = 0; d < dims; ++d)
                accumSqDiff(o3.data(), ptrs[d], q[d], n);
            EXPECT_TRUE(bitEqual(o1, o3)) << dims << "x" << n;
        }
    }
}

TEST(SimdKernelTest, DivScalarMatchesReferenceBitwise)
{
    Rng rng(202);
    for (const std::size_t n : kSizes) {
        const double d = rng.uniform(0.5, 4.0);
        auto y1 = randomVec(rng, n, -5.0, 5.0);
        auto y2 = y1;
        divScalar(y1.data(), d, n);
        ref::divScalar(y2.data(), d, n);
        EXPECT_TRUE(bitEqual(y1, y2)) << "n=" << n;
    }
}

TEST(SimdKernelTest, AccumSqDiffMatchesReferenceBitwise)
{
    Rng rng(303);
    for (const std::size_t n : kSizes) {
        const auto xs = randomVec(rng, n, -4.0, 4.0);
        const double q = rng.uniform(-2.0, 2.0);
        auto a1 = randomVec(rng, n, 0.0, 1.0);
        auto a2 = a1;
        accumSqDiff(a1.data(), xs.data(), q, n);
        ref::accumSqDiff(a2.data(), xs.data(), q, n);
        EXPECT_TRUE(bitEqual(a1, a2)) << "n=" << n;
    }
}

TEST(SimdKernelTest, FmaAccumMatchesReferenceBitwise)
{
    Rng rng(404);
    for (const std::size_t n : kSizes) {
        const auto xs = randomVec(rng, n, -4.0, 4.0);
        const double a = rng.uniform(-2.0, 2.0);
        auto a1 = randomVec(rng, n, -1.0, 1.0);
        auto a2 = a1;
        fmaAccum(a1.data(), xs.data(), a, n);
        ref::fmaAccum(a2.data(), xs.data(), a, n);
        EXPECT_TRUE(bitEqual(a1, a2)) << "n=" << n;
    }
}

TEST(SimdKernelTest, AccumSquareMatchesReferenceBitwise)
{
    Rng rng(505);
    for (const std::size_t n : kSizes) {
        const auto xs = randomVec(rng, n, -4.0, 4.0);
        auto a1 = randomVec(rng, n, 0.0, 1.0);
        auto a2 = a1;
        accumSquare(a1.data(), xs.data(), n);
        ref::accumSquare(a2.data(), xs.data(), n);
        EXPECT_TRUE(bitEqual(a1, a2)) << "n=" << n;
    }
}

TEST(SimdKernelTest, FastExpNegMatchesReferenceBitwise)
{
    Rng rng(606);
    for (const std::size_t n : kSizes) {
        // Cover the covariance range, the underflow clamp boundary,
        // and exact zero.
        auto z = randomVec(rng, n, 0.0, 60.0);
        if (n >= 4) {
            z[0] = 0.0;
            z[1] = 707.9;
            z[2] = 708.1;
            z[3] = 1e9;
        }
        std::vector<double> o1(n);
        std::vector<double> o2(n);
        fastExpNegInto(o1.data(), z.data(), n);
        ref::fastExpNegInto(o2.data(), z.data(), n);
        EXPECT_TRUE(bitEqual(o1, o2)) << "n=" << n;
    }
}

TEST(SimdKernelTest, FastExpNegIsAccurate)
{
    Rng rng(707);
    double max_rel = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double z = rng.uniform(0.0, 50.0);
        double got = 0.0;
        fastExpNegInto(&got, &z, 1);
        const double want = std::exp(-z);
        const double rel = std::fabs(got - want) / want;
        max_rel = std::max(max_rel, rel);
    }
    // The doc contract promises < 1e-9 relative over the covariance
    // range; enforced with headroom.
    EXPECT_LT(max_rel, 1e-9);

    // Clamp/edge behaviour.
    const double edges[] = { 0.0, 1e-300, 708.0, 708.5, 1e12 };
    for (const double z : edges) {
        double got = -1.0;
        fastExpNegInto(&got, &z, 1);
        if (z > 708.0) {
            EXPECT_EQ(got, 0.0) << "z=" << z;
        } else {
            EXPECT_NEAR(got, std::exp(-z), 1e-9 * std::exp(-z))
                << "z=" << z;
        }
    }
}

TEST(SimdKernelTest, VectorizedReportsConsistently)
{
    // Just exercises the dispatcher; on machines without AVX2 (or a
    // build with SATORI_SIMD=OFF) this is false and every call above
    // compared scalar against scalar - still a valid contract check.
    const bool v = vectorized();
    EXPECT_TRUE(v || !v);
}

} // namespace
} // namespace simd
} // namespace linalg
} // namespace satori
