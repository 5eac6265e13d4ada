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

#include <cstdint>
#include <optional>
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
 *
 * Candidates are flat unit rows: whole configurations back to back,
 * each ConfigurationSpace::rowSize() ints in Configuration's row-major
 * layout, which SoaPoints::assignShares packs for the GP without a
 * Configuration or RealVec per candidate.
 *
 * Thread-safety: the const generating methods reuse internal scratch
 * and build the structured rows on first use, so they are NOT safe to
 * call concurrently on the same instance.
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
     * Append, as rows, every configuration one move of one unit of one
     * resource away from @p config, in (resource, giving job, taking
     * job) order. A job holding one unit of a resource gives none.
     */
    void appendNeighborRows(const Configuration& config,
                            std::vector<int>& rows) const;

    /**
     * One round of candidates into @p rows (replacing its contents):
     * random samples, all one-unit neighbors of @p incumbent, then
     * (when structured) seeds and the concentration set, each
     * configuration kept at its first occurrence.
     */
    void generateInto(const Configuration& incumbent, Rng& rng,
                      std::vector<int>& rows) const;

    /** generateInto() as Configurations. */
    [[nodiscard]] std::vector<Configuration> generate(const Configuration& incumbent,
                                        Rng& rng) const;

    /** Row @p index of @p rows as a Configuration. */
    [[nodiscard]] Configuration configurationAt(const std::vector<int>& rows,
                                  std::size_t index) const;

  private:
    /** Seed then concentration rows, built on first use. */
    [[nodiscard]] const std::vector<int>& structuredRows() const;

    const ConfigurationSpace& space_;
    CandidateOptions options_;
    mutable std::optional<std::vector<int>> structured_rows_;
    /** De-duplication hash slots, reused across rounds. */
    mutable std::vector<std::uint32_t> slots_;
};

} // namespace bo
} // namespace satori

#endif // SATORI_BO_CANDIDATES_HPP
