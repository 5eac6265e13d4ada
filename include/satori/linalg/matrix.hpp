/**
 * @file
 * Minimal dense linear algebra for the Gaussian-process proxy model.
 *
 * The GP in SATORI operates on at most a few hundred samples, so a
 * simple row-major double matrix with O(n^3) factorizations is more
 * than fast enough (the paper reports all BO tasks take ~1.2 ms per
 * 100 ms interval; see bench_overhead).
 */

#ifndef SATORI_LINALG_MATRIX_HPP
#define SATORI_LINALG_MATRIX_HPP

#include <cstddef>
#include <vector>

namespace satori {
namespace linalg {

/** A dense, row-major matrix of doubles. */
class Matrix
{
  public:
    /** An empty 0x0 matrix. */
    Matrix() = default;

    /** A rows x cols matrix initialized to @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /**
     * Become a rows x cols matrix in the storage already held, so a
     * scratch matrix whose shape changes from call to call does not
     * reallocate. Element values are left over from earlier use: the
     * caller overwrites every element.
     */
    void reshape(std::size_t rows, std::size_t cols);

    /** Number of rows. */
    [[nodiscard]] std::size_t rows() const { return rows_; }

    /** Number of columns. */
    [[nodiscard]] std::size_t cols() const { return cols_; }

    /** Mutable element access (no bounds check in release builds).
     * Defined inline: element access dominates the factorization and
     * triangular-solve kernels, so it must compile down to one
     * indexed load/store rather than a function call. */
    double& operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }

    /** Const element access. */
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** The identity matrix of size n. */
    [[nodiscard]] static Matrix identity(std::size_t n);

    /** Matrix-vector product. @pre v.size() == cols(). */
    [[nodiscard]] std::vector<double> multiply(const std::vector<double>& v) const;

    /** Matrix-matrix product. @pre other.rows() == cols(). */
    [[nodiscard]] Matrix multiply(const Matrix& other) const;

    /** Transposed copy. */
    [[nodiscard]] Matrix transposed() const;

    /** Add @p v to every diagonal element. @pre square. */
    void addDiagonal(double v);

    /** Raw storage (row-major), mainly for tests. */
    [[nodiscard]] const std::vector<double>& data() const { return data_; }

    /** Pointer to the start of row @p r. Rows are contiguous; distinct
     * rows never overlap, which lets kernels assert no-aliasing. */
    [[nodiscard]] double* rowPtr(std::size_t r)
    {
        return data_.data() + r * cols_;
    }

    /** Const pointer to the start of row @p r. */
    [[nodiscard]] const double* rowPtr(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product of equal-length vectors. */
[[nodiscard]] double dot(const std::vector<double>& a, const std::vector<double>& b);

} // namespace linalg
} // namespace satori

#endif // SATORI_LINALG_MATRIX_HPP
