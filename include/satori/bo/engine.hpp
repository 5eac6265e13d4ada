/**
 * @file
 * The BO engine: proxy model + acquisition maximization over a
 * candidate set, on one exact path - an incremental exact GP, batched
 * dense scoring of every candidate, then a first-wins argmax. The
 * one update is SATORI's per-iteration software reconstruction of
 * the proxy model from goal-specific records (setSamples), which is
 * what makes dynamically re-weighted objectives tractable
 * (Sec. III-B).
 */

#ifndef SATORI_BO_ENGINE_HPP
#define SATORI_BO_ENGINE_HPP

#include <vector>

#include "satori/bo/gp.hpp"
#include "satori/common/types.hpp"

namespace satori {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace bo {

/**
 * Engine configuration: the full-refit reference switch. It does not
 * select a different scoring path - every decision is an exact
 * Matern 5/2 posterior for every candidate, maximized first-wins
 * under Expected Improvement. The GP noise variance, initial length
 * scale, length-scale grid and grid-refit period are fixed in
 * engine.cpp.
 */
struct EngineOptions
{
    /**
     * Update the GP through fitIncremental: an O(n^2) rank-1 factor
     * append when setSamples extends the previous training set by one
     * sample, a full refit otherwise. Results are bit-identical to
     * the full-refit path; false refits from scratch (O(n^3)) on
     * every update and exists so tests can pin that equivalence.
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

    /** True once at least one sample is fitted. */
    [[nodiscard]] bool ready() const { return gp_.isFitted(); }

    /** Best (largest) target value observed so far. */
    [[nodiscard]] double bestObserved() const;

    /** Index (into the current training set) of the best sample. */
    [[nodiscard]] std::size_t bestIndex() const;

    /**
     * Score all candidates with Expected Improvement and return the
     * index of the best one (the first on ties).
     * @pre ready() and non-empty.
     */
    [[nodiscard]] std::size_t suggestIndex(const SoaPoints& candidates) const;

    /** suggestIndex() of @p candidates packed into one block. */
    [[nodiscard]] std::size_t suggestIndex(const std::vector<RealVec>& candidates) const;

    /** Posterior prediction at @p x (for diagnostics and figures). */
    [[nodiscard]] GpPrediction predict(const RealVec& x) const;

    /**
     * Posterior means at a fixed probe set; Fig. 17(b) tracks the mean
     * absolute change of these estimates between iterations.
     */
    [[nodiscard]] std::vector<double> probeMeans(const SoaPoints& probes) const;

    /** probeMeans() of @p probes packed into one block. */
    [[nodiscard]] std::vector<double> probeMeans(
        const std::vector<RealVec>& probes) const;

    /** Number of training samples currently fitted. */
    [[nodiscard]] std::size_t numSamples() const;

    /**
     * Serialize a deterministic refit recipe: the training set, the
     * fitted kernel length scale, and the grid-refit phase. The GP
     * factorization itself is not saved - refitting from the training
     * set is pinned bit-identical to the incremental update.
     */
    void saveState(persist::StateWriter& w) const;

    /** Restore an engine saved by saveState (same options required). */
    void restoreState(persist::StateReader& r);

  private:
    EngineOptions options_;
    /** The proxy model; it also holds the training set. */
    GaussianProcess gp_;
    std::size_t fits_since_grid_ = 0;

    /** Acquisition scratch, reused across suggest calls. Makes const
     * scoring methods unsafe to call concurrently on the same engine;
     * distinct engines stay independent. */
    mutable std::vector<GpPrediction> preds_scratch_;
    /** Packing scratch of the std::vector<RealVec> overloads. */
    mutable SoaPoints pts_scratch_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_ENGINE_HPP
