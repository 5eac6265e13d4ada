/**
 * @file
 * Brute-force oracle policies (Sec. IV): Throughput Oracle
 * (W_T = 1), Fairness Oracle (W_F = 1), and Balanced Oracle
 * (W_T = W_F = 0.5), recomputed every interval to track phase
 * changes. They peek at the simulator's model (privileged access) -
 * the practically-infeasible ceiling SATORI aims to touch.
 */

#ifndef SATORI_POLICIES_ORACLE_POLICY_HPP
#define SATORI_POLICIES_ORACLE_POLICY_HPP

#include <memory>

#include "satori/sim/offline_eval.hpp"
#include "satori/policies/policy.hpp"

namespace satori {
namespace policies {

/** The three oracle flavors of Sec. IV. */
enum class OracleKind
{
    Throughput, ///< W_T = 1, W_F = 0.
    Fairness,   ///< W_T = 0, W_F = 1.
    Balanced,   ///< W_T = W_F = 0.5 (the reporting ceiling).
};

/** Printable oracle name. */
[[nodiscard]] std::string oracleKindName(OracleKind kind);

/** Exhaustive offline search, re-run (memoized) on phase changes. */
class OraclePolicy final : public PartitioningPolicy
{
  public:
    /**
     * @param server The server to be controlled; the oracle reads its
     *        phase state and analytic model (privileged).
     * @param kind Which weight combination to maximize.
     * @param options Search knobs (stride cap, metrics).
     */
    OraclePolicy(const sim::SimulatedServer& server, OracleKind kind,
                 sim::OfflineEvalOptions options = {});

    [[nodiscard]] std::string name() const override;
    Configuration decide(const sim::IntervalObservation& obs) override;

    /** Weight on throughput for this oracle. */
    [[nodiscard]] double weightThroughput() const { return w_t_; }

    /** Weight on fairness for this oracle. */
    [[nodiscard]] double weightFairness() const { return w_f_; }

    /** Access the underlying evaluator (e.g. for distance figures). */
    sim::OfflineEvaluator& evaluator() { return *evaluator_; }

  private:
    const sim::SimulatedServer& server_;
    OracleKind kind_;
    std::unique_ptr<sim::OfflineEvaluator> evaluator_;
    double w_t_;
    double w_f_;
};

} // namespace policies
} // namespace satori

#endif // SATORI_POLICIES_ORACLE_POLICY_HPP
