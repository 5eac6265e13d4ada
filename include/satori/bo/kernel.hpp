/**
 * @file
 * Covariance kernels for the Gaussian-process proxy model. SATORI
 * uses the Matern 5/2 kernel (Sec. III-A); an RBF kernel is provided
 * for comparison/ablation.
 */

#ifndef SATORI_BO_KERNEL_HPP
#define SATORI_BO_KERNEL_HPP

#include <memory>
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

    /** Pack pts[begin, end) (equal-length vectors). Reuses storage. */
    void assign(const std::vector<RealVec>& pts, std::size_t begin,
                std::size_t end);

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

/** Abstract stationary covariance kernel k(a, b). */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Covariance between inputs @p a and @p b (equal length). */
    [[nodiscard]] virtual double covariance(const RealVec& a, const RealVec& b) const = 0;

    /**
     * One covariance row: out[i] = k(x, pts[i]) for every point. Each
     * element is computed with exactly covariance()'s arithmetic (the
     * batching only amortizes the virtual dispatch and keeps the
     * distance loop inlined), so results are bit-identical to calling
     * covariance() per point. @pre out has room for pts.size() values.
     */
    virtual void covarianceRow(const RealVec& x,
                               const std::vector<RealVec>& pts,
                               double* out) const;

    /**
     * Cross-covariance against a packed block: out[c] = k(q, pts[c]).
     * Every element is bit-identical to covariance(q, pts[c]) - the
     * SoA layout only changes which loop is innermost (the distance
     * accumulation still runs dimensions in ascending order per
     * point), so the exact prediction paths may use this freely.
     * @pre out has room for pts.count() values; pts.dims() matches q.
     */
    virtual void covarianceCross(const SoaPoints& pts, const RealVec& q,
                                 double* out) const;

    /** k(x, x): the signal variance. */
    [[nodiscard]] virtual double variance() const = 0;

    /** Copy with a different length scale (for hyperparameter search). */
    [[nodiscard]] virtual std::unique_ptr<Kernel> withLengthScale(double ls) const = 0;

    /** The current length scale. */
    [[nodiscard]] virtual double lengthScale() const = 0;

    /** Deep copy. */
    [[nodiscard]] virtual std::unique_ptr<Kernel> clone() const = 0;
};

/**
 * Matern 5/2 kernel:
 * k(r) = s^2 (1 + sqrt(5) r / l + 5 r^2 / (3 l^2)) exp(-sqrt(5) r / l).
 *
 * Twice-differentiable sample paths: smooth enough for efficient
 * optimization yet not unrealistically smooth for systems data - the
 * standard practical-BO choice (Snoek et al.), and SATORI's.
 */
class Matern52Kernel final : public Kernel
{
  public:
    /** @pre length_scale > 0, signal_variance > 0. */
    explicit Matern52Kernel(double length_scale = 0.3,
                            double signal_variance = 1.0);

    [[nodiscard]] double covariance(const RealVec& a, const RealVec& b) const override;
    void covarianceRow(const RealVec& x, const std::vector<RealVec>& pts,
                       double* out) const override;
    void covarianceCross(const SoaPoints& pts, const RealVec& q,
                         double* out) const override;
    [[nodiscard]] double variance() const override { return signal_variance_; }
    [[nodiscard]] std::unique_ptr<Kernel> withLengthScale(double ls) const override;
    [[nodiscard]] double lengthScale() const override { return length_scale_; }
    [[nodiscard]] std::unique_ptr<Kernel> clone() const override;

  private:
    double length_scale_;
    double signal_variance_;
};

/** Squared-exponential (RBF) kernel: k(r) = s^2 exp(-r^2 / (2 l^2)). */
class RbfKernel final : public Kernel
{
  public:
    /** @pre length_scale > 0, signal_variance > 0. */
    explicit RbfKernel(double length_scale = 0.3,
                       double signal_variance = 1.0);

    [[nodiscard]] double covariance(const RealVec& a, const RealVec& b) const override;
    [[nodiscard]] double variance() const override { return signal_variance_; }
    [[nodiscard]] std::unique_ptr<Kernel> withLengthScale(double ls) const override;
    [[nodiscard]] double lengthScale() const override { return length_scale_; }
    [[nodiscard]] std::unique_ptr<Kernel> clone() const override;

  private:
    double length_scale_;
    double signal_variance_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_KERNEL_HPP
