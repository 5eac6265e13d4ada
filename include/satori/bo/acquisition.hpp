/**
 * @file
 * Acquisition functions that steer Bayesian optimization toward the
 * most promising configurations (Sec. III-A). SATORI uses Expected
 * Improvement; UCB is provided for ablation.
 */

#ifndef SATORI_BO_ACQUISITION_HPP
#define SATORI_BO_ACQUISITION_HPP

#include "satori/bo/gp.hpp"

namespace satori {
namespace bo {

/** Acquisition-function selector. */
enum class AcquisitionKind
{
    ExpectedImprovement,      ///< SATORI's default (Sec. III-A).
    Ucb,                      ///< Upper confidence bound (ablation).
    ProbabilityOfImprovement, ///< PI (ablation).
};

/**
 * Expected Improvement for maximization:
 * EI(x) = (mu - best - xi) Phi(z) + sigma phi(z),
 * z = (mu - best - xi) / sigma; 0 when sigma is ~0.
 *
 * @param pred GP posterior at the candidate.
 * @param best_observed Best objective value evaluated so far.
 * @param xi Exploration bonus (small positive encourages exploring).
 */
[[nodiscard]] double expectedImprovement(const GpPrediction& pred, double best_observed,
                           double xi = 0.01);

/** Upper confidence bound: mu + beta * sigma. */
[[nodiscard]] double upperConfidenceBound(const GpPrediction& pred, double beta = 2.0);

/**
 * Probability of Improvement: Phi((mu - best - xi) / sigma); the
 * greediest of the three, prone to under-exploration (why SATORI
 * prefers EI).
 */
[[nodiscard]] double probabilityOfImprovement(const GpPrediction& pred,
                                double best_observed, double xi = 0.01);

/** Evaluate the selected acquisition function. */
[[nodiscard]] double acquisition(AcquisitionKind kind, const GpPrediction& pred,
                   double best_observed, double xi = 0.01,
                   double beta = 2.0);

} // namespace bo
} // namespace satori

#endif // SATORI_BO_ACQUISITION_HPP
