#include "satori/bo/acquisition.hpp"

#include <algorithm>
#include <cmath>

#include "satori/common/math.hpp"

namespace satori {
namespace bo {

double
expectedImprovement(const GpPrediction& pred, double best_observed)
{
    const double sigma = pred.stddev();
    const double improvement = pred.mean - best_observed - kEiXi;
    if (sigma < 1e-12)
        return std::max(improvement, 0.0);
    const double z = improvement / sigma;
    return improvement * normalCdf(z) + sigma * normalPdf(z);
}

} // namespace bo
} // namespace satori
