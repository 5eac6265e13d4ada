/**
 * @file
 * Unit tests for the dense linear algebra used by the GP: matrix
 * operations and Cholesky factorization/solves.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "satori/common/rng.hpp"
#include "satori/linalg/cholesky.hpp"
#include "satori/linalg/matrix.hpp"

namespace satori {
namespace linalg {
namespace {

TEST(MatrixTest, IdentityAndElementAccess)
{
    Matrix m = Matrix::identity(3);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
    m(0, 1) = 5.0;
    EXPECT_DOUBLE_EQ(m(0, 1), 5.0);
}

TEST(MatrixTest, MatrixVectorProduct)
{
    Matrix m(2, 3);
    // [1 2 3; 4 5 6] * [1 1 1]^T = [6 15]^T
    int v = 1;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            m(r, c) = v++;
    const auto out = m.multiply(std::vector<double>{1.0, 1.0, 1.0});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 6.0);
    EXPECT_DOUBLE_EQ(out[1], 15.0);
}

TEST(MatrixTest, MatrixMatrixProduct)
{
    Matrix a(2, 2), b(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    const Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, Transpose)
{
    Matrix m(2, 3);
    m(0, 2) = 7.0;
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
}

TEST(MatrixTest, AddDiagonal)
{
    Matrix m(2, 2);
    m.addDiagonal(3.0);
    EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 3.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(DotTest, KnownValue)
{
    EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
}

TEST(CholeskyTest, FactorOfKnownSpdMatrix)
{
    // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]]
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 3;
    Cholesky chol(a);
    EXPECT_DOUBLE_EQ(chol.jitter(), 0.0);
    const Matrix& l = chol.factor();
    EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
    EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
}

TEST(CholeskyTest, SolveRecoversKnownSolution)
{
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 3;
    // x = [1, 2] -> b = A x = [8, 8]
    const auto x = Cholesky(a).solve({8.0, 8.0});
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(CholeskyTest, LogDetMatchesKnownValue)
{
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 3;
    // det(A) = 8
    EXPECT_NEAR(Cholesky(a).logDet(), std::log(8.0), 1e-10);
}

TEST(CholeskyTest, SingularMatrixGetsJitter)
{
    // Rank-1 matrix: [1 1; 1 1] is PSD but singular.
    Matrix a(2, 2, 1.0);
    Cholesky chol(a);
    EXPECT_GT(chol.jitter(), 0.0);
    // Still produces a usable solve (approximate).
    const auto x = chol.solve({2.0, 2.0});
    EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(CholeskyTest, TriangularSolvesAreConsistent)
{
    Matrix a(3, 3);
    a(0, 0) = 6;
    a(1, 1) = 5;
    a(2, 2) = 7;
    a(0, 1) = a(1, 0) = 1;
    a(0, 2) = a(2, 0) = 2;
    a(1, 2) = a(2, 1) = 1;
    Cholesky chol(a);
    const std::vector<double> b{1.0, 2.0, 3.0};
    const auto y = chol.solveLower(b);
    const auto x = chol.solveUpper(y);
    // Verify A x = b.
    const auto back = a.multiply(x);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(back[i], b[i], 1e-10);
}

/** Property sweep: random SPD systems of growing size solve exactly. */
class CholeskyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskyProperty, RandomSpdSystemsSolve)
{
    const int n = GetParam();
    Rng rng(1000 + static_cast<std::uint64_t>(n));
    // A = B B^T + n*I is SPD.
    Matrix b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    for (std::size_t r = 0; r < b.rows(); ++r)
        for (std::size_t c = 0; c < b.cols(); ++c)
            b(r, c) = rng.uniform(-1.0, 1.0);
    Matrix a = b.multiply(b.transposed());
    a.addDiagonal(static_cast<double>(n));

    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (auto& v : x_true)
        v = rng.uniform(-5.0, 5.0);
    const auto rhs = a.multiply(x_true);

    const auto x = Cholesky(a).solve(rhs);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-7) << "n=" << n << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values(1, 2, 5, 10, 25, 60));

/** Random SPD matrix A = B B^T + ridge*I. */
Matrix
randomSpd(std::size_t n, Rng& rng, double ridge)
{
    Matrix b(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b(r, c) = rng.uniform(-1.0, 1.0);
    Matrix a = b.multiply(b.transposed());
    a.addDiagonal(ridge);
    return a;
}

TEST(CholeskyUpdateTest, AppendMatchesFreshFactorizationBitwise)
{
    for (const std::size_t n : {1u, 3u, 8u, 20u}) {
        Rng rng(7000 + n);
        const Matrix big = randomSpd(n + 1, rng, double(n) + 1.0);
        Matrix lead(n, n);
        std::vector<double> cross(n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                lead(r, c) = big(r, c);
            cross[r] = big(r, n);
        }

        Cholesky incremental(lead);
        ASSERT_TRUE(incremental.update(cross, big(n, n)));
        const Cholesky fresh(big);

        EXPECT_EQ(incremental.jitter(), fresh.jitter());
        // Bit-identical factor, not merely close: every fast-path
        // guarantee downstream (GP, decision traces) rests on this.
        for (std::size_t r = 0; r <= n; ++r)
            for (std::size_t c = 0; c <= n; ++c)
                EXPECT_EQ(incremental.factor()(r, c), fresh.factor()(r, c))
                    << "n=" << n << " (" << r << "," << c << ")";
        EXPECT_EQ(incremental.logDet(), fresh.logDet());

        std::vector<double> rhs(n + 1);
        for (auto& v : rhs)
            v = rng.uniform(-2.0, 2.0);
        const auto si = incremental.solve(rhs);
        const auto sf = fresh.solve(rhs);
        for (std::size_t i = 0; i <= n; ++i)
            EXPECT_EQ(si[i], sf[i]);
    }
}

TEST(CholeskyUpdateTest, RepeatedAppendsMatchFreshAtEveryStep)
{
    Rng rng(7777);
    const std::size_t target = 12;
    const Matrix big = randomSpd(target, rng, double(target));

    Matrix first(1, 1);
    first(0, 0) = big(0, 0);
    Cholesky incremental(first);
    for (std::size_t n = 1; n < target; ++n) {
        std::vector<double> cross(n);
        for (std::size_t r = 0; r < n; ++r)
            cross[r] = big(r, n);
        ASSERT_TRUE(incremental.update(cross, big(n, n)));

        Matrix lead(n + 1, n + 1);
        for (std::size_t r = 0; r <= n; ++r)
            for (std::size_t c = 0; c <= n; ++c)
                lead(r, c) = big(r, c);
        const Cholesky fresh(lead);
        EXPECT_EQ(incremental.jitter(), fresh.jitter());
        EXPECT_EQ(incremental.logDet(), fresh.logDet());
        for (std::size_t r = 0; r <= n; ++r)
            for (std::size_t c = 0; c <= n; ++c)
                EXPECT_EQ(incremental.factor()(r, c),
                          fresh.factor()(r, c));
    }
}

TEST(CholeskyUpdateTest, JitteredMatrixStillMatchesFresh)
{
    // Force the escalation ladder: a nearly rank-deficient matrix
    // (duplicate rows) needs jitter, and the append must land on the
    // same factor a fresh jittered factorization finds.
    const std::size_t n = 4;
    Matrix a(n + 1, n + 1);
    for (std::size_t r = 0; r <= n; ++r)
        for (std::size_t c = 0; c <= n; ++c)
            a(r, c) = 1.0; // rank-1: every leading block needs jitter
    Matrix lead(n, n, 1.0);
    Cholesky incremental(lead);
    ASSERT_GT(incremental.jitter(), 0.0);
    ASSERT_TRUE(incremental.update(std::vector<double>(n, 1.0), 1.0));
    const Cholesky fresh(a);
    EXPECT_EQ(incremental.jitter(), fresh.jitter());
    for (std::size_t r = 0; r <= n; ++r)
        for (std::size_t c = 0; c <= n; ++c)
            EXPECT_EQ(incremental.factor()(r, c), fresh.factor()(r, c));
}

TEST(CholeskyUpdateTest, SpdFailureLeavesFactorUntouched)
{
    Matrix a = Matrix::identity(3);
    Cholesky chol(a);
    const Matrix before = chol.factor();
    const double jitter_before = chol.jitter();

    // diag so small the new pivot 1e-18 - ||row||^2 goes negative.
    const std::vector<double> cross = {0.5, 0.5, 0.5};
    EXPECT_FALSE(chol.update(cross, 1e-18));
    EXPECT_EQ(chol.factor().rows(), 3u);
    EXPECT_EQ(chol.jitter(), jitter_before);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(chol.factor()(r, c), before(r, c));

    // The caller's documented recovery - a fresh factorization of the
    // extended matrix - succeeds (via jitter escalation).
    Matrix big(4, 4);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c)
            big(r, c) = a(r, c);
        big(r, 3) = cross[r];
        big(3, r) = cross[r];
    }
    big(3, 3) = 1e-18;
    const Cholesky recovered(big);
    EXPECT_EQ(recovered.factor().rows(), 4u);
}

TEST(CholeskyMultiSolveTest, MatchesLoopedSolveLowerBitwise)
{
    Rng rng(9090);
    const std::size_t n = 15;
    const std::size_t m = 7;
    const Matrix a = randomSpd(n, rng, double(n));
    const Cholesky chol(a);

    Matrix b(m, n);
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b(r, c) = rng.uniform(-3.0, 3.0);

    const Matrix multi = chol.solveLowerMulti(b);
    ASSERT_EQ(multi.rows(), m);
    ASSERT_EQ(multi.cols(), n);
    for (std::size_t r = 0; r < m; ++r) {
        std::vector<double> rhs(n);
        for (std::size_t c = 0; c < n; ++c)
            rhs[c] = b(r, c);
        const auto single = chol.solveLower(rhs);
        for (std::size_t c = 0; c < n; ++c)
            EXPECT_EQ(multi(r, c), single[c]) << r << "," << c;
    }

    // The into-variant reuses storage and holds the same solutions
    // transposed (columns).
    Matrix out;
    chol.solveLowerMultiInto(b, out);
    ASSERT_EQ(out.rows(), n);
    ASSERT_EQ(out.cols(), m);
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < n; ++c)
            EXPECT_EQ(out(c, r), multi(r, c));
}

TEST(CholeskySolveVariantsTest, InterleavedSolveLowerMatchesNaiveBitwise)
{
    // solveLower runs 8-row interleaved blocks; its contract is
    // bit-identical results to the naive forward substitution. Check
    // across sizes straddling the block boundary (n % 8 in all
    // residue classes that matter).
    for (const std::size_t n : {1u, 5u, 8u, 9u, 16u, 23u, 50u, 100u}) {
        Rng rng(3300 + n);
        const Matrix a = randomSpd(n, rng, double(n));
        const Cholesky chol(a);
        const Matrix l = chol.factor();
        std::vector<double> b(n);
        for (auto& x : b)
            x = rng.uniform(-2.0, 2.0);

        std::vector<double> naive(n);
        for (std::size_t i = 0; i < n; ++i) {
            double sum = b[i];
            for (std::size_t k = 0; k < i; ++k)
                sum -= l(i, k) * naive[k];
            naive[i] = sum / l(i, i);
        }
        const auto fast = chol.solveLower(b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(fast[i], naive[i]) << "n=" << n << " i=" << i;
    }
}

TEST(CholeskySolveVariantsTest, TransposedMultiSolveMatchesInto)
{
    Rng rng(6600);
    const std::size_t n = 13;
    const std::size_t m = 9;
    const Matrix a = randomSpd(n, rng, double(n));
    const Cholesky chol(a);
    Matrix b(m, n);
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b(r, c) = rng.uniform(-3.0, 3.0);

    Matrix out_ref;
    chol.solveLowerMultiInto(b, out_ref);
    Matrix out_t;
    chol.solveLowerMultiTransposedInto(b.transposed(), out_t);
    ASSERT_EQ(out_t.rows(), n);
    ASSERT_EQ(out_t.cols(), m);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < m; ++c)
            EXPECT_EQ(out_t(r, c), out_ref(r, c));
}

} // namespace
} // namespace linalg
} // namespace satori
