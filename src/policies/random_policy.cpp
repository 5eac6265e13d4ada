#include "satori/policies/random_policy.hpp"

namespace satori {
namespace policies {

namespace {

/** RNG seed of the uniform sample stream. */
constexpr std::uint64_t kSeed = 13;

} // namespace

RandomPolicy::RandomPolicy(const PlatformSpec& platform,
                           std::size_t num_jobs)
    : space_(platform, num_jobs), rng_(kSeed)
{
}

Configuration
RandomPolicy::decide(const sim::IntervalObservation&)
{
    return space_.sample(rng_);
}

void
RandomPolicy::reset()
{
    rng_ = Rng(kSeed);
}

} // namespace policies
} // namespace satori
