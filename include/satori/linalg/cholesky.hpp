/**
 * @file
 * Cholesky factorization and triangular solves for symmetric positive
 * definite kernel matrices, with automatic diagonal jitter escalation
 * for near-singular cases (duplicate GP sample points).
 *
 * The factor is held in packed row-major triangular storage (row i
 * starts at offset i*(i+1)/2 and has i+1 entries), so a rank-1 append
 * grows the buffer by one row in O(n) instead of copying an n x n
 * matrix. All solves and the factorization itself run the exact
 * arithmetic (operand values and per-element operation order) of the
 * historical dense-Matrix implementation, so factors, solves, and
 * logDet() are bit-identical to it.
 */

#ifndef SATORI_LINALG_CHOLESKY_HPP
#define SATORI_LINALG_CHOLESKY_HPP

#include <cstddef>
#include <vector>

#include "satori/linalg/matrix.hpp"

namespace satori {
namespace linalg {

/**
 * Lower-triangular Cholesky factor of an SPD matrix, plus the solves
 * the GP needs. Construction never fails for symmetric matrices with
 * bounded condition number: if the plain factorization breaks down,
 * increasing jitter is added to the diagonal (reported via jitter()).
 */
class Cholesky
{
  public:
    /**
     * Factorize @p a (must be square and symmetric).
     *
     * @param a The SPD matrix to factorize.
     * @param initial_jitter Jitter to try first when factorization
     *        fails; escalates by 10x up to a bounded number of tries.
     */
    explicit Cholesky(Matrix a, double initial_jitter = 1e-10);

    /**
     * The lower-triangular factor L with A + jitter*I = L L^T,
     * materialized as a dense matrix (upper triangle zero). The
     * factor itself lives in packed triangular storage; this accessor
     * exists for inspection and tests, not hot paths.
     */
    [[nodiscard]] Matrix factor() const;

    /** Rows of the factor (training-set size n). */
    [[nodiscard]] std::size_t size() const { return n_; }

    /** The jitter that was finally added to the diagonal (0 if none). */
    [[nodiscard]] double jitter() const { return jitter_; }

    /**
     * Cheap condition-number estimate from the factor's diagonal:
     * (max L_ii / min L_ii)^2. A lower bound on the true 2-norm
     * condition number, good enough to flag near-singular kernels.
     */
    [[nodiscard]] double conditionEstimate() const;

    /**
     * Rank-1 append: extend the factor of an n x n matrix A to the
     * factor of the (n+1) x (n+1) matrix
     *
     *     [ A          cross ]
     *     [ cross^T    diag  ]
     *
     * in O(n^2) via one forward-substitution pass, instead of the
     * O(n^3) full refactorization. The appended row is computed with
     * exactly the same arithmetic (and in the same order) as a fresh
     * factorization at the current jitter, so on success the factor,
     * logDet() and all solves are bit-identical to constructing
     * Cholesky on the extended matrix - provided that fresh
     * construction would have landed on the same jitter, which it
     * does: a failure of the leading n x n block at a smaller jitter
     * replays identically on the extended matrix.
     *
     * SPD-failure semantics mirror construction: if the new pivot is
     * not strictly positive (or not finite) at the current jitter,
     * the update refuses, the factor is left untouched, and false is
     * returned - the caller must refactorize from scratch so the
     * jitter-escalation ladder can run on the full matrix.
     *
     * @param cross Cross-covariances against the existing n rows.
     * @param diag New diagonal entry (noise included, jitter not).
     * @return true if the factor was extended.
     */
    [[nodiscard]] bool update(const std::vector<double>& cross, double diag);

    /**
     * Solve L y = b (forward substitution). Rows are processed in
     * interleaved blocks for instruction-level parallelism, but every
     * row's subtraction chain keeps solveLower's historical ascending
     * order, so results are bit-identical to the naive loop.
     */
    [[nodiscard]] std::vector<double> solveLower(const std::vector<double>& b) const;

    /**
     * Blocked multi-RHS forward substitution: solve L y = b for every
     * *row* of @p b (an m x n matrix of m right-hand sides), returning
     * an m x n matrix whose rows are the solutions. Each system is
     * solved with exactly solveLower()'s arithmetic (same subtraction
     * order, one division per element), so results are bit-identical
     * to m independent solveLower() calls - the batching only changes
     * the memory layout the work runs over.
     * @pre b.cols() == n.
     */
    [[nodiscard]] Matrix solveLowerMulti(const Matrix& b) const;

    /**
     * The blocked kernel behind solveLowerMulti: writes the solutions
     * TRANSPOSED, as the *columns* of the n x m matrix @p out, reusing
     * its storage. The transposed layout keeps all m systems adjacent
     * in the innermost loop (one row of @p out), which is what lets
     * the substitution vectorize across right-hand sides; per-system
     * arithmetic order is unchanged, so out(i, c) is bit-identical to
     * solveLower(row c of b)[i].
     */
    void solveLowerMultiInto(const Matrix& b, Matrix& out) const;

    /**
     * solveLowerMultiInto for right-hand sides that are already
     * transposed: @p bt is n x m with bt(i, c) = element i of system
     * c (the natural layout of a sample-major cross-covariance block).
     * Identical arithmetic, identical output layout.
     * @pre bt.rows() == n.
     */
    void solveLowerMultiTransposedInto(const Matrix& bt, Matrix& out) const;

    /** Solve L^T x = b (backward substitution, historical op order). */
    [[nodiscard]] std::vector<double> solveUpper(const std::vector<double>& b) const;

    /** Solve A x = b via the two triangular solves. */
    [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

    /** log(det(A)) = 2 * sum(log(L_ii)). */
    [[nodiscard]] double logDet() const;

  private:
    bool tryFactorize(const Matrix& a, double jitter);

    /** Packed row pointer: row i starts at tri_[i*(i+1)/2]. */
    [[nodiscard]] const double* row(std::size_t i) const
    {
        return tri_.data() + i * (i + 1) / 2;
    }
    [[nodiscard]] double* row(std::size_t i)
    {
        return tri_.data() + i * (i + 1) / 2;
    }

    /** Packed lower triangle, row-major; row i has i+1 entries. */
    std::vector<double> tri_;
    std::size_t n_ = 0;
    double jitter_ = 0.0;
};

} // namespace linalg
} // namespace satori

#endif // SATORI_LINALG_CHOLESKY_HPP
