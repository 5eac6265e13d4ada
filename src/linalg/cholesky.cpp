#include "satori/linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "satori/common/logging.hpp"
#include "satori/linalg/simd.hpp"

namespace satori {
namespace linalg {

namespace {

/** Packed-triangle length for an n-row factor. */
std::size_t
triSize(std::size_t n)
{
    return n * (n + 1) / 2;
}

} // namespace

Cholesky::Cholesky(Matrix a, double initial_jitter)
{
    // satori-analyzer: allow(num-float-eq) -- integer dimensions
    SATORI_ASSERT(a.rows() == a.cols());
    if (tryFactorize(a, 0.0)) {
        jitter_ = 0.0;
        return;
    }
    double jitter = initial_jitter;
    for (int attempt = 0; attempt < 12; ++attempt) {
        if (tryFactorize(a, jitter)) {
            jitter_ = jitter;
            return;
        }
        jitter *= 10.0;
    }
    SATORI_PANIC("Cholesky factorization failed even with large jitter; "
                 "matrix is not symmetric positive semi-definite");
}

bool
Cholesky::tryFactorize(const Matrix& a, double jitter)
{
    // Identical arithmetic, element for element and in the same order,
    // as the historical dense-Matrix implementation - only the storage
    // of L is packed. That keeps every factor (and everything solved
    // through it) bit-identical across the storage change.
    const std::size_t n = a.rows();
    n_ = n;
    tri_.assign(triSize(n), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double* lj = row(j);
        double diag = a(j, j) + jitter;
        for (std::size_t k = 0; k < j; ++k)
            diag -= lj[k] * lj[k];
        if (diag <= 0.0 || !std::isfinite(diag))
            return false;
        const double ljj = std::sqrt(diag);
        lj[j] = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double* li = row(i);
            double sum = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                sum -= li[k] * lj[k];
            li[j] = sum / ljj;
        }
    }
    return true;
}

Matrix
Cholesky::factor() const
{
    Matrix l(n_, n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
        const double* li = row(i);
        for (std::size_t j = 0; j <= i; ++j)
            l(i, j) = li[j];
    }
    return l;
}

bool
Cholesky::update(const std::vector<double>& cross, double diag)
{
    const std::size_t n = n_;
    SATORI_ASSERT(cross.size() == n);
    // The appended row of L is the forward-substitution solve
    // L row = cross - element for element the same recurrence a fresh
    // factorization runs for its last row, in the same order.
    const std::vector<double> new_row = solveLower(cross);
    // New pivot, accumulated exactly like tryFactorize's diagonal:
    // start from a(n, n) + jitter, subtract squares in column order.
    double pivot = diag + jitter_;
    for (std::size_t k = 0; k < n; ++k)
        pivot -= new_row[k] * new_row[k];
    if (pivot <= 0.0 || !std::isfinite(pivot))
        return false;
    // Append in O(n): grow the packed buffer by one row. Capacity is
    // grown geometrically by hand - vector::resize past capacity
    // allocates exactly the requested size, which would turn every
    // append into a full O(n^2) copy.
    const std::size_t new_size = triSize(n + 1);
    if (new_size > tri_.capacity())
        tri_.reserve(std::max(new_size, tri_.capacity() * 2));
    tri_.resize(new_size);
    n_ = n + 1;
    double* appended = row(n);
    std::copy(new_row.begin(), new_row.end(), appended);
    appended[n] = std::sqrt(pivot);
    return true;
}

std::vector<double>
Cholesky::solveLower(const std::vector<double>& b) const
{
    const std::size_t n = n_;
    SATORI_ASSERT(b.size() == n);
    std::vector<double> y(n);
    // Interleaved blocks of 8 rows: one pass over y[k] feeds eight
    // independent accumulator chains, then the in-block triangle
    // finishes sequentially. Every row still subtracts l(i,k) * y[k]
    // in ascending k and divides once - bit-identical to the naive
    // forward substitution, ~2x faster at n = 1000.
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const double* r0 = row(i);
        const double* r1 = row(i + 1);
        const double* r2 = row(i + 2);
        const double* r3 = row(i + 3);
        const double* r4 = row(i + 4);
        const double* r5 = row(i + 5);
        const double* r6 = row(i + 6);
        const double* r7 = row(i + 7);
        double s0 = b[i];
        double s1 = b[i + 1];
        double s2 = b[i + 2];
        double s3 = b[i + 3];
        double s4 = b[i + 4];
        double s5 = b[i + 5];
        double s6 = b[i + 6];
        double s7 = b[i + 7];
        for (std::size_t k = 0; k < i; ++k) {
            const double yk = y[k];
            s0 -= r0[k] * yk;
            s1 -= r1[k] * yk;
            s2 -= r2[k] * yk;
            s3 -= r3[k] * yk;
            s4 -= r4[k] * yk;
            s5 -= r5[k] * yk;
            s6 -= r6[k] * yk;
            s7 -= r7[k] * yk;
        }
        const double* rows8[8] = { r0, r1, r2, r3, r4, r5, r6, r7 };
        const double sums[8] = { s0, s1, s2, s3, s4, s5, s6, s7 };
        for (std::size_t r = 0; r < 8; ++r) {
            double sum = sums[r];
            const double* lr = rows8[r];
            for (std::size_t k = i; k < i + r; ++k)
                sum -= lr[k] * y[k];
            y[i + r] = sum / lr[i + r];
        }
    }
    for (; i < n; ++i) {
        const double* li = row(i);
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k)
            sum -= li[k] * y[k];
        y[i] = sum / li[i];
    }
    return y;
}

void
Cholesky::solveLowerMultiTransposedInto(const Matrix& bt, Matrix& out) const
{
    const std::size_t n = n_;
    SATORI_ASSERT(bt.rows() == n);
    const std::size_t m = bt.cols();
    out.reshape(n, m); // every element is written below
    // Row i of `out` holds element i of every solution, so the inner
    // loops stream contiguously over all m systems at once. Per system
    // this is exactly solveLower(): seed with b, subtract l(i,k) * y[k]
    // in ascending k, divide by the pivot once. The simd kernels are
    // lane-parallel with identical per-element ops, so the result stays
    // bit-identical to m scalar solves.
    for (std::size_t i = 0; i < n; ++i) {
        const double* li = row(i);
        double* row_i = out.rowPtr(i);
        const double* bt_i = bt.rowPtr(i);
        std::copy(bt_i, bt_i + m, row_i);
        // k-unrolled by 4 via the fused axpy: per element the same
        // ascending-k sequence, so results are unchanged bit-for-bit
        // while row_i round-trips to memory 4x less often.
        std::size_t k = 0;
        for (; k + 4 <= i; k += 4)
            simd::subScaled4(row_i, out.rowPtr(k), li[k],
                             out.rowPtr(k + 1), li[k + 1],
                             out.rowPtr(k + 2), li[k + 2],
                             out.rowPtr(k + 3), li[k + 3], m);
        for (; k < i; ++k)
            simd::subScaled(row_i, out.rowPtr(k), li[k], m);
        simd::divScalar(row_i, li[i], m);
    }
}

std::vector<double>
Cholesky::solveUpper(const std::vector<double>& b) const
{
    const std::size_t n = n_;
    SATORI_ASSERT(b.size() == n);
    std::vector<double> x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = b[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            sum -= row(k)[ii] * x[k];
        x[ii] = sum / row(ii)[ii];
    }
    return x;
}

std::vector<double>
Cholesky::solve(const std::vector<double>& b) const
{
    return solveUpper(solveLower(b));
}

double
Cholesky::conditionEstimate() const
{
    if (n_ == 0)
        return 1.0;
    double lo = row(0)[0];
    double hi = row(0)[0];
    for (std::size_t i = 1; i < n_; ++i) {
        const double d = row(i)[i];
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    if (lo <= 0.0)
        return std::numeric_limits<double>::infinity();
    return (hi / lo) * (hi / lo);
}

double
Cholesky::logDet() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i)
        sum += std::log(row(i)[i]);
    return 2.0 * sum;
}

} // namespace linalg
} // namespace satori
