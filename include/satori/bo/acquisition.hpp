/**
 * @file
 * The acquisition function that steers Bayesian optimization toward
 * the most promising configurations: Expected Improvement
 * (Sec. III-A).
 */

#ifndef SATORI_BO_ACQUISITION_HPP
#define SATORI_BO_ACQUISITION_HPP

#include "satori/bo/gp.hpp"

namespace satori {
namespace bo {

/** EI exploration bonus xi: a small positive value favors exploring. */
inline constexpr double kEiXi = 0.01;

/**
 * Expected Improvement for maximization:
 * EI(x) = (mu - best - xi) Phi(z) + sigma phi(z),
 * z = (mu - best - xi) / sigma, xi = kEiXi; max(mu - best - xi, 0)
 * when sigma is ~0.
 *
 * @param pred GP posterior at the candidate.
 * @param best_observed Best objective value evaluated so far.
 */
[[nodiscard]] double expectedImprovement(const GpPrediction& pred,
                                         double best_observed);

} // namespace bo
} // namespace satori

#endif // SATORI_BO_ACQUISITION_HPP
