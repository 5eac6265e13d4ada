#include "satori/linalg/matrix.hpp"

#include "satori/common/logging.hpp"

#include <cmath>

namespace satori {
namespace linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

void
Matrix::reshape(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

std::vector<double>
Matrix::multiply(const std::vector<double>& v) const
{
    SATORI_ASSERT(v.size() == cols_);
    std::vector<double> out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double sum = 0.0;
        const double* row = &data_[r * cols_];
        for (std::size_t c = 0; c < cols_; ++c)
            sum += row[c] * v[c];
        out[r] = sum;
    }
    return out;
}

Matrix
Matrix::multiply(const Matrix& other) const
{
    SATORI_ASSERT(other.rows_ == cols_);
    Matrix out(rows_, other.cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            if (std::abs(a) == 0.0)
                continue;
            for (std::size_t c = 0; c < other.cols_; ++c)
                out(r, c) += a * other(k, c);
        }
    }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

void
Matrix::addDiagonal(double v)
{
    SATORI_ASSERT(rows_ == cols_);
    for (std::size_t i = 0; i < rows_; ++i)
        (*this)(i, i) += v;
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    SATORI_ASSERT(a.size() == b.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

} // namespace linalg
} // namespace satori
