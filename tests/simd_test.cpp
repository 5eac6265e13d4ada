/**
 * @file
 * Tests for the satori::linalg::simd kernels. The load-bearing
 * property is BIT equality between the dispatched (possibly AVX2)
 * kernels and the scalar references in simd::ref - the library
 * promises that SATORI_SIMD is a pure throughput toggle, and every
 * exactness contract upstream (solve bitwise-stability, decision
 * traces) leans on it.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

bool
sameBits(double lhs, double rhs)
{
    return std::memcmp(&lhs, &rhs, sizeof(double)) == 0;
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

TEST(SimdKernelTest, SumIpsJainIntoMatchesReferenceBitwise)
{
    Rng rng(606);
    const double kInf = std::numeric_limits<double>::infinity();
    const double kSpecial[] = { std::numeric_limits<double>::quiet_NaN(),
                                kInf, -kInf, 0.0 };
    std::size_t clamped = 0;
    std::size_t zero_mean = 0;
    std::size_t non_finite = 0;
    for (std::size_t jobs = 1; jobs <= 7; ++jobs) {
        const double scale =
            std::min(1.0, 2.0 / static_cast<double>(jobs) + 0.2);
        for (const std::size_t n : kSizes) {
            std::vector<std::vector<double>> ips(jobs);
            std::vector<std::vector<double>> spd(jobs);
            std::vector<const double*> ips_rows(jobs);
            std::vector<const double*> spd_rows(jobs);
            for (std::size_t j = 0; j < jobs; ++j) {
                ips[j] = randomVec(rng, n, 1e8, 4e9);
                spd[j] = randomVec(rng, n, 0.05, 1.2);
            }
            // Every 5th lane has all speedups 0 (mean 0); every 7th
            // lane feeds one job a NaN, +inf, -inf or 0.
            for (std::size_t i = 0; i < n; ++i) {
                if (i % 5 == 1) {
                    for (std::size_t j = 0; j < jobs; ++j)
                        spd[j][i] = 0.0;
                }
                if (i % 7 == 3) {
                    const std::size_t j = i % jobs;
                    ips[j][i] = kSpecial[(i / 7) % 4];
                    spd[j][i] = kSpecial[(i / 7 + 1) % 4];
                }
            }
            for (std::size_t j = 0; j < jobs; ++j) {
                ips_rows[j] = ips[j].data();
                spd_rows[j] = spd[j].data();
            }
            // A small isolation sum pushes throughput above 1, so the
            // clamp applies on most lanes; a large one on none.
            for (const double iso_per_job : { 1.5e9, 8e9 }) {
                const double iso_sum =
                    iso_per_job * static_cast<double>(jobs);
                std::vector<double> t1(n), f1(n), t2(n), f2(n);
                sumIpsJainInto(t1.data(), f1.data(), ips_rows.data(),
                               spd_rows.data(), jobs, n, iso_sum, scale);
                ref::sumIpsJainInto(t2.data(), f2.data(), ips_rows.data(),
                                    spd_rows.data(), jobs, n, iso_sum,
                                    scale);
                EXPECT_TRUE(bitEqual(t1, t2)) << jobs << "x" << n;
                EXPECT_TRUE(bitEqual(f1, f2)) << jobs << "x" << n;
                for (std::size_t i = 0; i < n; ++i) {
                    clamped += sameBits(t2[i], 1.0) ? 1 : 0;
                    zero_mean += i % 5 == 1 && sameBits(f2[i], 1.0) ? 1 : 0;
                    non_finite += std::isfinite(f2[i]) ? 0 : 1;
                }
            }
        }
    }
    // The special lanes were really exercised.
    EXPECT_GT(clamped, 0u);
    EXPECT_GT(zero_mean, 0u);
    EXPECT_GT(non_finite, 0u);
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
