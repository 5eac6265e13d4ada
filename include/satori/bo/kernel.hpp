/**
 * @file
 * The Matern 5/2 covariance kernel of the Gaussian-process proxy
 * model (Sec. III-A), with a structure-of-arrays point block for its
 * batched cross-covariance.
 */

#ifndef SATORI_BO_KERNEL_HPP
#define SATORI_BO_KERNEL_HPP

#include <span>
#include <vector>

#include "satori/common/types.hpp"

namespace satori {
namespace bo {

/**
 * Structure-of-arrays view of a point block: one contiguous array per
 * coordinate, so a kernel can stream a whole candidate block per
 * dimension (the cache-blocked layout the SIMD distance kernel wants)
 * instead of gathering scattered RealVecs point by point.
 */
class SoaPoints
{
  public:
    SoaPoints() = default;

    /** Pack @p pts (equal-length vectors). Reuses storage. */
    void assign(const std::vector<RealVec>& pts);

    /**
     * Pack configuration unit rows as share-normalized points.
     * @p rows holds whole configurations back to back, each
     * @p num_resources x @p num_jobs units in Configuration's
     * row-major layout. Coordinate r * num_jobs + j of point c is row
     * c's units of resource r for job j divided by row c's total of
     * resource r: element for element Configuration::normalizedVector(),
     * without a vector per point. Reuses storage.
     */
    void assignShares(std::span<const int> rows, std::size_t num_jobs,
                      std::size_t num_resources);

    /** Number of packed points. */
    [[nodiscard]] std::size_t count() const { return count_; }

    /** Dimensionality of each point (0 when empty). */
    [[nodiscard]] std::size_t dims() const { return dims_; }

    /** Coordinate @p d of every packed point, contiguously. */
    [[nodiscard]] const double* dim(std::size_t d) const
    {
        return data_.data() + d * count_;
    }

  private:
    std::vector<double> data_; ///< dims_ blocks of count_ doubles.
    std::size_t count_ = 0;
    std::size_t dims_ = 0;
};

/**
 * Matern 5/2 kernel, the GP proxy model's covariance (Sec. III-A):
 * k(r) = s^2 (1 + sqrt(5) r / l + 5 r^2 / (3 l^2)) exp(-sqrt(5) r / l).
 *
 * Twice-differentiable sample paths: smooth enough for efficient
 * optimization yet not unrealistically smooth for systems data - the
 * standard practical-BO choice (Snoek et al.), and SATORI's.
 */
class Matern52Kernel final
{
  public:
    /** @pre length_scale > 0, signal_variance > 0. */
    explicit Matern52Kernel(double length_scale,
                            double signal_variance = 1.0);

    /** Covariance between inputs @p a and @p b (equal length). */
    [[nodiscard]] double covariance(const RealVec& a, const RealVec& b) const;

    /**
     * One covariance row: out[i] = k(x, pts[i]) for every point, each
     * element bit-identical to covariance(x, pts[i]).
     * @pre out has room for pts.size() values.
     */
    void covarianceRow(const RealVec& x, const std::vector<RealVec>& pts,
                       double* out) const;

    /**
     * Cross-covariance against a packed block: out[c] = k(q, pts[c]).
     * Every element is bit-identical to covariance(q, pts[c]) - the
     * SoA layout only changes which loop is innermost (the distance
     * accumulation still runs dimensions in ascending order per
     * point), so the exact prediction paths may use this freely.
     * @pre out has room for pts.count() values; pts.dims() matches q.
     */
    void covarianceCross(const SoaPoints& pts, const RealVec& q,
                         double* out) const;

    /** k(x, x): the signal variance. */
    [[nodiscard]] double variance() const { return signal_variance_; }

    /** The length scale. */
    [[nodiscard]] double lengthScale() const { return length_scale_; }

  private:
    double length_scale_;
    double signal_variance_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_KERNEL_HPP
