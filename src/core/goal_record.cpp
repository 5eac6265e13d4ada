#include "satori/core/goal_record.hpp"

#include <cmath>
#include <functional>
#include <map>

#include "satori/common/logging.hpp"
#include "satori/persist/codec.hpp"
#include "satori/persist/state.hpp"

namespace satori {
namespace core {

GoalRecorder::GoalRecorder(std::size_t num_goals, std::size_t window)
    : num_goals_(num_goals), window_(window)
{
    SATORI_ASSERT(num_goals_ >= 1);
}

void
GoalRecorder::add(Configuration config, std::vector<double> goal_values)
{
    SATORI_ASSERT(goal_values.size() == num_goals_);
    GoalSample s;
    s.x = config.normalizedVector();
    s.config = std::move(config);
    s.goals = std::move(goal_values);
    samples_.push_back(std::move(s));
    if (window_ > 0 && samples_.size() > window_)
        samples_.pop_front();
}

const GoalSample&
GoalRecorder::sample(std::size_t i) const
{
    SATORI_ASSERT(i < samples_.size());
    return samples_[i];
}

std::vector<RealVec>
GoalRecorder::inputs() const
{
    std::vector<RealVec> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_)
        out.push_back(s.x);
    return out;
}

std::vector<double>
GoalRecorder::combined(const std::vector<double>& weights) const
{
    SATORI_ASSERT(weights.size() == num_goals_);
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_) {
        double y = 0.0;
        for (std::size_t k = 0; k < num_goals_; ++k)
            y += weights[k] * s.goals[k];
        out.push_back(y);
    }
    return out;
}

std::size_t
GoalRecorder::bestSampleByAveragedObjective(
    const std::vector<double>& weights, double uncertainty_kappa) const
{
    SATORI_ASSERT(!samples_.empty());
    SATORI_ASSERT(weights.size() == num_goals_);
    // Group repeated evaluations of the same configuration and rank
    // configurations by a recency-weighted mean combined score (so
    // measurements taken in stale program phases fade out), minus an
    // uncertainty discount that keeps a single lucky noisy sample
    // from being declared the incumbent.
    struct Group
    {
        double weighted_sum = 0.0;
        double weight = 0.0;
        std::size_t latest = 0;
    };
    std::map<std::reference_wrapper<const Configuration>, Group,
             std::less<Configuration>>
        grouped;
    const std::size_t n = samples_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const auto& s = samples_[i];
        double y = 0.0;
        for (std::size_t k = 0; k < num_goals_; ++k)
            y += weights[k] * s.goals[k];
        const double recency =
            std::pow(0.97, static_cast<double>(n - 1 - i));
        Group& g = grouped[std::cref(s.config)];
        g.weighted_sum += recency * y;
        g.weight += recency;
        g.latest = i;
    }
    // Highest score wins, and an exact tie goes to the configuration
    // whose rendering sorts first. NaN scores never win; when every
    // score is NaN the newest sample stands.
    const Configuration* best_config = nullptr;
    std::size_t best = n - 1;
    double best_score = 0.0;
    for (const auto& [config, g] : grouped) {
        const double m = g.weighted_sum / g.weight;
        // g.weight is the effective (recency-discounted) sample
        // count; the discount shrinks as evaluations accumulate.
        const double score =
            m - uncertainty_kappa / std::sqrt(std::max(g.weight, 1e-3));
        if (std::isnan(score))
            continue;
        // Only an exactly equal score defers to the rendering order.
        // satori-analyzer: allow(num-float-eq)
        const bool tie = best_config != nullptr && score == best_score;
        if (best_config == nullptr || score > best_score ||
            (tie && config.get().toString() < best_config->toString())) {
            best_config = &config.get();
            best_score = score;
            best = g.latest;
        }
    }
    return best;
}

void
GoalRecorder::trimToRecent(std::size_t n)
{
    while (samples_.size() > n)
        samples_.pop_front();
}

void
GoalRecorder::clear()
{
    samples_.clear();
}

void
GoalRecorder::saveState(persist::StateWriter& w) const
{
    w.putSize(num_goals_);
    w.putSize(samples_.size());
    for (const auto& s : samples_) {
        persist::putConfiguration(w, s.config);
        w.putDoubleVec(s.x);
        w.putDoubleVec(s.goals);
    }
}

void
GoalRecorder::restoreState(persist::StateReader& r)
{
    const std::size_t saved_goals = r.getSize();
    if (saved_goals != num_goals_)
        SATORI_FATAL("goal-record state has " +
                     std::to_string(saved_goals) +
                     " goals per sample, this recorder uses " +
                     std::to_string(num_goals_));
    const std::size_t n = r.getSize();
    samples_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        GoalSample s;
        s.config = persist::getConfiguration(r);
        s.x = r.getDoubleVec();
        s.goals = r.getDoubleVec();
        if (s.goals.size() != num_goals_)
            SATORI_FATAL("goal-record state sample " +
                         std::to_string(i) +
                         " has a mismatched goal vector");
        samples_.push_back(std::move(s));
    }
}

} // namespace core
} // namespace satori
