/**
 * @file
 * Candidate-set generation for acquisition maximization.
 *
 * The joint configuration space is far too large to score the
 * acquisition function exhaustively online, so SATORI maximizes it
 * over a candidate set of (a) uniformly sampled configurations
 * (exploration), (b) one-unit-transfer neighbors of the incumbent
 * best (exploitation/refinement), and (c) a structured set of "good"
 * starting configurations - equal partitions and low-imbalance
 * variants (Sec. V: SATORI mitigates BO's initialization sensitivity
 * by starting from a reasonable set of good configurations).
 */

#ifndef SATORI_BO_CANDIDATES_HPP
#define SATORI_BO_CANDIDATES_HPP

#include <vector>

#include "satori/common/rng.hpp"
#include "satori/config/configuration.hpp"
#include "satori/config/enumeration.hpp"

namespace satori {
namespace bo {

/** Candidate-generation knobs. */
struct CandidateOptions
{
    /**
     * Add the structured candidates after the 256 uniform samples
     * and the incumbent's one-unit neighbors: the "good" seed
     * configurations, and the concentration set - for every
     * (job, resource) pair, variants of the equal partition that
     * hand that job a half or maximal share of that resource. The
     * latter cover the working-set-cliff regimes that unit-step
     * neighborhoods and uniform sampling rarely reach.
     */
    bool structured = true;
};

/**
 * Generates candidate configurations for one BO iteration.
 */
class CandidateGenerator
{
  public:
    CandidateGenerator(const ConfigurationSpace& space,
                       CandidateOptions options = {});

    /**
     * The structured initial configurations S_init: the equal
     * partition plus low-imbalance single-transfer variants.
     */
    [[nodiscard]] std::vector<Configuration> seedConfigurations() const;

    /**
     * The concentration set: for every (job, resource) pair, equal-
     * partition variants granting that job a half or maximal share
     * of that resource (working-set-cliff coverage).
     */
    [[nodiscard]] std::vector<Configuration> concentratedConfigurations() const;

    /**
     * One round of candidates: random samples, all one-unit
     * neighbors of @p incumbent, then (when structured) seeds and the
     * concentration set, each configuration kept at its first
     * occurrence.
     */
    [[nodiscard]] std::vector<Configuration> generate(const Configuration& incumbent,
                                        Rng& rng) const;

  private:
    const ConfigurationSpace& space_;
    CandidateOptions options_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_CANDIDATES_HPP
