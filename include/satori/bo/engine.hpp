/**
 * @file
 * The BO engine: proxy model + acquisition maximization over a
 * candidate set, on one exact path - an incremental exact GP, batched
 * dense scoring of every candidate, then a first-wins argmax.
 * Supports both the traditional incremental workflow (addSample) and
 * SATORI's per-iteration software reconstruction of the proxy model
 * from goal-specific records (setSamples), which is what makes
 * dynamically re-weighted objectives tractable (Sec. III-B).
 */

#ifndef SATORI_BO_ENGINE_HPP
#define SATORI_BO_ENGINE_HPP

#include <memory>
#include <vector>

#include "satori/bo/acquisition.hpp"
#include "satori/bo/gp.hpp"
#include "satori/common/types.hpp"

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace bo {

/**
 * Engine configuration knobs: the GP model, the acquisition function
 * and the hyperparameter-refit schedule. None of them selects a
 * different scoring path - every decision is an exact posterior for
 * every candidate, maximized first-wins.
 */
struct EngineOptions
{
    /** GP observation-noise variance. */
    double noise_variance = 0.05;

    /** EI exploration bonus. */
    double xi = 0.01;

    /** UCB beta (only for AcquisitionKind::Ucb). */
    double ucb_beta = 2.0;

    /** Which acquisition function to use. */
    AcquisitionKind acquisition = AcquisitionKind::ExpectedImprovement;

    /** Initial Matern 5/2 length scale on share-normalized inputs. */
    double length_scale = 0.5;

    /**
     * Length scales to try during periodic marginal-likelihood grid
     * refits; empty disables adaptation.
     */
    std::vector<double> length_scale_grid = {0.2, 0.35, 0.5, 0.75, 1.0};

    /** Run the grid refit every this many fits (0 = never). */
    std::size_t grid_refit_period = 20;

    /**
     * Use the O(n^2) incremental GP paths (rank-1 factor appends on
     * addSample, factor-reusing target refreshes on setSamples with
     * unchanged inputs). Results are bit-identical to the full-refit
     * path; false restores the pre-optimization O(n^3)-per-update
     * behavior and exists so tests can pin that equivalence.
     */
    bool incremental = true;
};

/**
 * A Bayesian-optimization engine over real-vector inputs.
 *
 * Inputs are share-normalized configuration vectors; targets are the
 * (possibly re-weighted) objective values. The engine is agnostic to
 * how targets were constructed - SATORI rebuilds them every iteration
 * from its per-goal records.
 */
class BoEngine
{
  public:
    explicit BoEngine(EngineOptions options = {});

    /**
     * Replace the full training set and refit the proxy model
     * (SATORI's reconstruction path). @pre equal non-zero sizes.
     */
    void setSamples(const std::vector<RealVec>& inputs,
                    const std::vector<double>& targets);

    /** Append one sample and refit (traditional BO path). */
    void addSample(const RealVec& input, double target);

    /** True once at least one sample is fitted. */
    [[nodiscard]] bool ready() const { return gp_->isFitted(); }

    /** Best (largest) target value observed so far. */
    [[nodiscard]] double bestObserved() const;

    /** Index (into the current training set) of the best sample. */
    [[nodiscard]] std::size_t bestIndex() const;

    /**
     * Score all candidates with the acquisition function and return
     * the index of the best one (the first on ties).
     * @pre ready() and non-empty.
     */
    [[nodiscard]] std::size_t suggestIndex(const std::vector<RealVec>& candidates) const;

    /**
     * Like suggestIndex(), but subtracting a per-candidate penalty
     * from the acquisition score (e.g. a reconfiguration cost, in
     * standardized-objective units). @pre penalties matches size.
     */
    [[nodiscard]] std::size_t suggestIndex(const std::vector<RealVec>& candidates,
                             const std::vector<double>& penalties) const;

    /** Posterior prediction at @p x (for diagnostics and figures). */
    [[nodiscard]] GpPrediction predict(const RealVec& x) const;

    /**
     * Posterior means at a fixed probe set; Fig. 17(b) tracks the mean
     * absolute change of these estimates between iterations.
     */
    [[nodiscard]] std::vector<double> probeMeans(
        const std::vector<RealVec>& probes) const;

    /** Number of training samples currently fitted. */
    [[nodiscard]] std::size_t numSamples() const;

    /** The options in force. */
    [[nodiscard]] const EngineOptions& options() const { return options_; }

    /**
     * Serialize a deterministic refit recipe: the training set, the
     * fitted kernel length scale, and the grid-refit phase. The GP
     * factorization itself is not saved - refitting from the training
     * set is pinned bit-identical to the incremental paths.
     */
    void saveState(persist::StateWriter& w) const;

    /** Restore an engine saved by saveState (same options required). */
    void restoreState(persist::StateReader& r);

  private:
    /**
     * Refit after inputs_/targets_ changed. @p appended means the
     * change was a single push_back (enables the O(n^2) rank-1 path
     * without a prefix re-comparison).
     */
    void refit(bool appended);

    /** Shared acquisition maximization (penalties may be null). */
    [[nodiscard]] std::size_t suggestImpl(
        const std::vector<RealVec>& candidates,
        const std::vector<double>* penalties) const;

    EngineOptions options_;
    std::unique_ptr<GaussianProcess> gp_;
    std::vector<RealVec> inputs_;
    std::vector<double> targets_;
    std::size_t fits_since_grid_ = 0;

    /** Acquisition scratch, reused across suggest calls. Makes const
     * scoring methods unsafe to call concurrently on the same engine;
     * distinct engines stay independent. */
    mutable std::vector<GpPrediction> preds_scratch_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_ENGINE_HPP
