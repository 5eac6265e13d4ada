#include "satori/policies/oracle_policy.hpp"

#include "satori/common/logging.hpp"

namespace satori {
namespace policies {

std::string
oracleKindName(OracleKind kind)
{
    switch (kind) {
      case OracleKind::Throughput:
        return "Throughput-Oracle";
      case OracleKind::Fairness:
        return "Fairness-Oracle";
      case OracleKind::Balanced:
        return "Balanced-Oracle";
    }
    SATORI_PANIC("unknown OracleKind");
}

OraclePolicy::OraclePolicy(const sim::SimulatedServer& server,
                           OracleKind kind,
                           sim::OfflineEvalOptions options)
    : server_(server), kind_(kind),
      evaluator_(std::make_unique<sim::OfflineEvaluator>(server, options))
{
    switch (kind_) {
      case OracleKind::Throughput:
        w_t_ = 1.0;
        w_f_ = 0.0;
        break;
      case OracleKind::Fairness:
        w_t_ = 0.0;
        w_f_ = 1.0;
        break;
      case OracleKind::Balanced:
        w_t_ = 0.5;
        w_f_ = 0.5;
        break;
    }
}

std::string
OraclePolicy::name() const
{
    return oracleKindName(kind_);
}

Configuration
OraclePolicy::decide(const sim::IntervalObservation&)
{
    // Recomputed every interval; the evaluator memoizes per phase
    // signature, so work is only done when a job changes phase.
    return evaluator_->bestFor(server_.phaseSignature(), w_t_, w_f_)
        .config;
}

} // namespace policies
} // namespace satori
