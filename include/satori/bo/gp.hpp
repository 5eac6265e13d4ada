/**
 * @file
 * Gaussian-process regression: the stochastic proxy model at the
 * heart of SATORI's BO engine (Sec. III-A). Predicts a mean and an
 * uncertainty for unsampled configurations.
 */

#ifndef SATORI_BO_GP_HPP
#define SATORI_BO_GP_HPP

#include <optional>
#include <span>
#include <vector>

#include "satori/bo/kernel.hpp"
#include "satori/common/types.hpp"
#include "satori/linalg/cholesky.hpp"

namespace satori {
namespace bo {

/** GP posterior at one query point. */
struct GpPrediction
{
    double mean = 0.0;
    double variance = 0.0;

    /** Standard deviation (sqrt of variance, floored at 0). */
    [[nodiscard]] double stddev() const;
};

/**
 * Gaussian-process regression with a Matern 5/2 kernel and Gaussian
 * observation noise. fit() is a full refit (O(n^3)); the incremental
 * paths (addObservation, fitIncremental) reuse the cached kernel
 * matrix and extend the Cholesky factor in place, dropping the
 * steady-state per-update cost to O(n^2) while producing results
 * bit-identical to the full refit (the appended factor row is
 * computed with exactly the refit's arithmetic). Predictions are
 * O(n) mean / O(n^2) variance.
 *
 * Targets are internally standardized (zero mean, unit variance) so
 * kernel signal variance ~1 remains well-matched as the objective
 * scale changes with the dynamic weights. The incremental paths
 * re-standardize exactly on every update; when the target scale has
 * drifted far from the scale at the last full factorization the
 * update additionally refreshes the factorization from the cached
 * kernel matrix (a numerical-hygiene backstop - the factor itself
 * never depends on the targets, so this changes nothing observable).
 *
 * Thread-safety: const prediction methods reuse internal scratch
 * buffers and are therefore NOT safe to call concurrently on the
 * same instance; distinct instances are fully independent.
 */
class GaussianProcess
{
  public:
    /** @param noise_variance observation-noise variance (>= 0). */
    explicit GaussianProcess(Matern52Kernel kernel,
                             double noise_variance = 1e-4);

    /**
     * Fit to @p inputs (n vectors, equal length) and @p targets
     * (length n). Replaces any previous fit. @pre n >= 1.
     */
    void fit(const std::vector<RealVec>& inputs,
             const std::vector<double>& targets);

    /**
     * Append one observation and update the fit in O(n^2): only the
     * new cross-covariance row is computed, the Cholesky factor is
     * extended in place, and the targets are re-standardized exactly.
     * Falls back to a full refactorization from the cached kernel
     * matrix when the rank-1 update hits an SPD failure (e.g. a
     * duplicated input at zero jitter) or the target scale has
     * drifted past the tolerance. Results are bit-identical to
     * fit() on the extended training set either way.
     */
    void addObservation(const RealVec& x, double target);

    /**
     * Like fit(), but when @p inputs is the currently fitted training
     * set plus one appended input it takes the rank-1 addObservation
     * path. Anything else (identical, dropped or reordered samples)
     * takes the full O(n^3) refit. Prefix equality is bitwise, so a
     * false negative merely costs a full refit, never correctness.
     */
    void fitIncremental(const std::vector<RealVec>& inputs,
                        const std::vector<double>& targets);

    /** True once fit() succeeded with at least one sample. */
    [[nodiscard]] bool isFitted() const { return fitted_; }

    /** Posterior mean/variance at @p x (in the original target scale). */
    [[nodiscard]] GpPrediction predict(const RealVec& x) const;

    /**
     * Posterior at every query point, batched: one cross-covariance
     * matrix K* for all points and one blocked triangular solve,
     * bit-identical to calling predict() per point but without the
     * per-point allocations. Scratch is reused across calls (see the
     * class comment on thread-safety).
     */
    void predictBatchInto(const std::vector<RealVec>& xs,
                          std::vector<GpPrediction>& out) const;

    /** Convenience predictBatchInto returning a fresh vector. */
    [[nodiscard]] std::vector<GpPrediction> predictBatch(
        const std::vector<RealVec>& xs) const;

    /**
     * Posterior means only, for all of @p xs: bit-identical to the
     * means predictBatchInto() computes, skipping the per-point
     * O(n^2) variance solve.
     */
    void predictMeansInto(const std::vector<RealVec>& xs,
                          std::vector<double>& out) const;

    /** Log marginal likelihood of the current fit (standardized y). */
    [[nodiscard]] double logMarginalLikelihood() const;

    /**
     * Refit trying each length scale in @p grid and keeping the one
     * with the highest log marginal likelihood. Cheap-and-cheerful
     * hyperparameter adaptation suitable for online use. If no grid
     * point has a likelihood above -inf (every LML NaN, as with NaN
     * targets), the last grid point's fit stays.
     */
    void fitWithLengthScaleGrid(const std::vector<RealVec>& inputs,
                                const std::vector<double>& targets,
                                std::span<const double> grid);

    /** Number of training samples in the current fit. */
    [[nodiscard]] std::size_t numSamples() const { return inputs_.size(); }

    /** The kernel in use. */
    [[nodiscard]] const Matern52Kernel& kernel() const { return kernel_; }

  private:
    /** Full fit of inputs_/y_raw_: rebuild the kernel cache + factor. */
    void fitStandardized();

    /** Fill k_cache_ from kernel_/inputs_ (noise on the diagonal). */
    void buildKernelCache();

    /** Factorize k_cache_ from scratch and finish the fit. */
    void refitFromCache();

    /** Re-standardize y_raw_ and re-solve alpha with the current factor. */
    void standardizeAndSolve();

    /**
     * Grow k_cache_/inputs_ by @p x and try the O(n^2) factor append;
     * false means the factor needs a fresh jitter-escalated
     * refactorization (refitFromCache) - the cache and inputs are
     * extended either way.
     */
    [[nodiscard]] bool tryExtendFactor(const RealVec& x);

    /** Target scale moved too far from the last full factorization? */
    [[nodiscard]] bool scaleDrifted() const;

    /** inputs_[0..n) bitwise-equal to other[0..n)? */
    [[nodiscard]] bool samePrefix(const std::vector<RealVec>& other,
                                  std::size_t n) const;

    /**
     * Cross-covariance block and standardized posterior means for
     * xs[b0, b1) into scratch_.kstar_t / scratch_.means: the shared
     * first half of both batched prediction paths.
     */
    void meansBlock(const std::vector<RealVec>& xs, std::size_t b0,
                    std::size_t b1) const;

    Matern52Kernel kernel_;
    double noise_variance_;
    bool fitted_ = false;

    std::vector<RealVec> inputs_;
    std::vector<double> y_raw_;
    std::vector<double> y_std_;   // standardized targets
    double y_mean_ = 0.0;
    double y_scale_ = 1.0;
    std::optional<linalg::Cholesky> chol_;
    std::vector<double> alpha_;   // K^-1 y_std
    double log_marginal_ = 0.0;

    /** Kernel matrix + noise diagonal (no jitter) for the current
     * inputs_: lets incremental updates and SPD-failure fallbacks
     * skip the O(n^2) kernel re-evaluation. */
    linalg::Matrix k_cache_;

    /** y_scale_ at the last full factorization (drift anchor). */
    double anchor_scale_ = 1.0;

    /** Batched-prediction working storage, reused across calls. */
    struct BlockScratch
    {
        SoaPoints pts;
        linalg::Matrix kstar_t; ///< n x B cross-covariance block.
        linalg::Matrix v;       ///< n x B triangular-solve solutions.
        std::vector<double> means;
        std::vector<double> vv;
    };

    // Prediction scratch (see thread-safety note above).
    mutable BlockScratch scratch_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_GP_HPP
