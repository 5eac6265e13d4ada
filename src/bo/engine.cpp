#include "satori/bo/engine.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "satori/analysis/invariants.hpp"
#include "satori/bo/acquisition.hpp"
#include "satori/common/logging.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace bo {

namespace {

/** GP observation-noise variance. */
constexpr double kNoiseVariance = 0.05;

/** Initial Matern 5/2 length scale on share-normalized inputs. */
constexpr double kLengthScale = 0.5;

/** Length scales tried by the periodic marginal-likelihood refit. */
constexpr std::array<double, 5> kLengthScaleGrid = {0.2, 0.35, 0.5, 0.75,
                                                    1.0};

/** Run the length-scale grid refit every this many fits. */
constexpr std::size_t kGridRefitPeriod = 20;

/** Fewest samples for which the grid refit runs. */
constexpr std::size_t kGridMinSamples = 8;

} // namespace

BoEngine::BoEngine(EngineOptions options)
    : options_(options),
      gp_(Matern52Kernel(kLengthScale), kNoiseVariance)
{
}

void
BoEngine::setSamples(const std::vector<RealVec>& inputs,
                     const std::vector<double>& targets)
{
    SATORI_ASSERT(inputs.size() == targets.size());
    SATORI_ASSERT(!inputs.empty());
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkTrainingSet(
        inputs, targets, __FILE__, __LINE__));
    SATORI_OBS_SPAN("bo.fit");
    SATORI_OBS_METRIC(bo_fits.inc());
    ++fits_since_grid_;
    if (fits_since_grid_ >= kGridRefitPeriod &&
        inputs.size() >= kGridMinSamples) {
        SATORI_OBS_METRIC(bo_grid_refits.inc());
        gp_.fitWithLengthScaleGrid(inputs, targets, kLengthScaleGrid);
        fits_since_grid_ = 0;
    } else if (options_.incremental) {
        gp_.fitIncremental(inputs, targets);
    } else {
        gp_.fit(inputs, targets);
    }
}

double
BoEngine::bestObserved() const
{
    const std::vector<double>& targets = gp_.targets();
    SATORI_ASSERT(!targets.empty());
    return *std::max_element(targets.begin(), targets.end());
}

std::size_t
BoEngine::bestIndex() const
{
    const std::vector<double>& targets = gp_.targets();
    SATORI_ASSERT(!targets.empty());
    return static_cast<std::size_t>(
        std::max_element(targets.begin(), targets.end()) -
        targets.begin());
}

std::size_t
BoEngine::suggestIndex(const SoaPoints& candidates) const
{
    SATORI_OBS_SPAN("bo.acquisition");
    SATORI_OBS_METRIC(bo_suggests.inc());
    SATORI_OBS_METRIC(bo_candidates.observe(
        static_cast<double>(candidates.count())));
    SATORI_ASSERT(ready());
    SATORI_ASSERT(candidates.count() > 0);
    const double best = bestObserved();
    gp_.predictBatchInto(candidates, preds_scratch_);
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < candidates.count(); ++i) {
        const double score = expectedImprovement(preds_scratch_[i], best);
        if (score > best_score) {
            best_score = score;
            best_idx = i;
        }
    }
    return best_idx;
}

std::size_t
BoEngine::suggestIndex(const std::vector<RealVec>& candidates) const
{
    pts_scratch_.assign(candidates);
    return suggestIndex(pts_scratch_);
}

GpPrediction
BoEngine::predict(const RealVec& x) const
{
    SATORI_ASSERT(ready());
    return gp_.predict(x);
}

std::vector<double>
BoEngine::probeMeans(const SoaPoints& probes) const
{
    SATORI_OBS_SPAN("bo.probe");
    SATORI_ASSERT(ready());
    std::vector<double> means;
    // Means-only pass: bit-identical means, no per-probe O(n^2)
    // variance solve.
    gp_.predictMeansInto(probes, means);
    return means;
}

std::vector<double>
BoEngine::probeMeans(const std::vector<RealVec>& probes) const
{
    pts_scratch_.assign(probes);
    return probeMeans(pts_scratch_);
}

std::size_t
BoEngine::numSamples() const
{
    return gp_.numSamples();
}

void
BoEngine::saveState(persist::StateWriter& w) const
{
    w.putDouble(gp_.kernel().lengthScale());
    w.putBool(ready());
    w.putSize(fits_since_grid_);
    w.putSize(gp_.numSamples());
    for (const RealVec& x : gp_.inputs())
        w.putDoubleVec(x);
    w.putDoubleVec(gp_.targets());
}

void
BoEngine::restoreState(persist::StateReader& r)
{
    const double length_scale = r.getDouble();
    const bool fitted = r.getBool();
    fits_since_grid_ = r.getSize();
    const std::size_t n = r.getSize();
    std::vector<RealVec> inputs;
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs.push_back(r.getDoubleVec());
    const std::vector<double> targets = r.getDoubleVec();
    if (targets.size() != inputs.size())
        SATORI_FATAL("BO engine state has " +
                     std::to_string(inputs.size()) + " inputs but " +
                     std::to_string(targets.size()) + " targets");
    // The GP holds the training set, so a fit and a non-empty
    // training set come and go together.
    if (fitted == inputs.empty())
        SATORI_FATAL("BO engine state has " +
                     std::to_string(inputs.size()) + " samples but " +
                     (fitted ? "a fit" : "no fit"));
    // Rebuild the GP at the saved length scale and refit the full
    // training set. A full fit is bit-identical to the incremental
    // update (pinned by the GP tests), so the resumed posterior
    // matches the uninterrupted run exactly. A plain refit does not
    // advance fits_since_grid_, preserving the grid-refit timing.
    gp_ = GaussianProcess(Matern52Kernel(length_scale), kNoiseVariance);
    if (fitted)
        gp_.fit(inputs, targets);
}

} // namespace bo
} // namespace satori
