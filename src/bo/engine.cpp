#include "satori/bo/engine.hpp"

#include <algorithm>
#include <limits>

#include "satori/analysis/invariants.hpp"
#include "satori/common/logging.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace bo {

BoEngine::BoEngine(EngineOptions options) : options_(std::move(options))
{
    gp_ = std::make_unique<GaussianProcess>(
        std::make_unique<Matern52Kernel>(options_.length_scale),
        options_.noise_variance);
}

void
BoEngine::setSamples(const std::vector<RealVec>& inputs,
                     const std::vector<double>& targets)
{
    SATORI_ASSERT(inputs.size() == targets.size());
    SATORI_ASSERT(!inputs.empty());
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkTrainingSet(
        inputs, targets, __FILE__, __LINE__));
    inputs_ = inputs;
    targets_ = targets;
    refit(false);
}

void
BoEngine::addSample(const RealVec& input, double target)
{
    inputs_.push_back(input);
    targets_.push_back(target);
    refit(true);
}

void
BoEngine::refit(bool appended)
{
    SATORI_OBS_SPAN("bo.fit");
    SATORI_OBS_METRIC(bo_fits.inc());
    ++fits_since_grid_;
    const bool use_grid = !options_.length_scale_grid.empty() &&
                          options_.grid_refit_period > 0 &&
                          fits_since_grid_ >= options_.grid_refit_period &&
                          inputs_.size() >= 8;
    if (use_grid) {
        SATORI_OBS_METRIC(bo_grid_refits.inc());
        gp_->fitWithLengthScaleGrid(inputs_, targets_,
                                    options_.length_scale_grid);
        fits_since_grid_ = 0;
    } else if (!options_.incremental) {
        gp_->fit(inputs_, targets_);
    } else if (appended && gp_->isFitted()) {
        gp_->addObservation(inputs_.back(), targets_.back());
    } else {
        gp_->fitIncremental(inputs_, targets_);
    }
}

double
BoEngine::bestObserved() const
{
    SATORI_ASSERT(!targets_.empty());
    return *std::max_element(targets_.begin(), targets_.end());
}

std::size_t
BoEngine::bestIndex() const
{
    SATORI_ASSERT(!targets_.empty());
    return static_cast<std::size_t>(
        std::max_element(targets_.begin(), targets_.end()) -
        targets_.begin());
}

std::size_t
BoEngine::suggestIndex(const std::vector<RealVec>& candidates) const
{
    return suggestImpl(candidates, nullptr);
}

std::size_t
BoEngine::suggestIndex(const std::vector<RealVec>& candidates,
                       const std::vector<double>& penalties) const
{
    SATORI_ASSERT(penalties.size() == candidates.size());
    return suggestImpl(candidates, &penalties);
}

std::size_t
BoEngine::suggestImpl(const std::vector<RealVec>& candidates,
                      const std::vector<double>* penalties) const
{
    SATORI_OBS_SPAN("bo.acquisition");
    SATORI_OBS_METRIC(bo_suggests.inc());
    SATORI_OBS_METRIC(bo_candidates.observe(
        static_cast<double>(candidates.size())));
    SATORI_ASSERT(ready());
    SATORI_ASSERT(!candidates.empty());
    const double best = bestObserved();
    gp_->predictBatchInto(candidates, preds_scratch_);
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        double score = acquisition(options_.acquisition, preds_scratch_[i],
                                   best, options_.xi, options_.ucb_beta);
        if (penalties != nullptr)
            score -= (*penalties)[i];
        if (score > best_score) {
            best_score = score;
            best_idx = i;
        }
    }
    return best_idx;
}

GpPrediction
BoEngine::predict(const RealVec& x) const
{
    SATORI_ASSERT(ready());
    return gp_->predict(x);
}

std::vector<double>
BoEngine::probeMeans(const std::vector<RealVec>& probes) const
{
    SATORI_OBS_SPAN("bo.probe");
    SATORI_ASSERT(ready());
    std::vector<double> means;
    // Means-only pass: bit-identical means, no per-probe O(n^2)
    // variance solve.
    gp_->predictMeansInto(probes, means);
    return means;
}

std::size_t
BoEngine::numSamples() const
{
    return inputs_.size();
}

void
BoEngine::saveState(persist::StateWriter& w) const
{
    w.putDouble(gp_->kernel().lengthScale());
    w.putBool(ready());
    w.putSize(fits_since_grid_);
    w.putSize(inputs_.size());
    for (const RealVec& x : inputs_)
        w.putDoubleVec(x);
    w.putDoubleVec(targets_);
}

void
BoEngine::restoreState(persist::StateReader& r)
{
    const double length_scale = r.getDouble();
    const bool fitted = r.getBool();
    fits_since_grid_ = r.getSize();
    const std::size_t n = r.getSize();
    inputs_.clear();
    inputs_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs_.push_back(r.getDoubleVec());
    targets_ = r.getDoubleVec();
    if (targets_.size() != inputs_.size())
        SATORI_FATAL("BO engine state has " +
                     std::to_string(inputs_.size()) + " inputs but " +
                     std::to_string(targets_.size()) + " targets");
    // Rebuild the GP at the saved length scale and refit the full
    // training set. A full fit is bit-identical to the incremental
    // update paths (pinned by the GP tests), so the resumed posterior
    // matches the uninterrupted run exactly. A plain refit does not
    // advance fits_since_grid_, preserving the grid-refit timing.
    gp_ = std::make_unique<GaussianProcess>(
        std::make_unique<Matern52Kernel>(length_scale),
        options_.noise_variance);
    if (fitted && !inputs_.empty())
        gp_->fit(inputs_, targets_);
}

} // namespace bo
} // namespace satori
