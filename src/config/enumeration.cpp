#include "satori/config/enumeration.hpp"

#include <numeric>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"

namespace satori {

CompositionSpace::CompositionSpace(int units, int parts)
    : units_(units), parts_(parts)
{
    if (parts < 1)
        SATORI_FATAL("composition must have at least one part");
    if (units < parts)
        SATORI_FATAL("cannot give every job at least one unit: units < jobs");
    size_ = binomial(static_cast<std::uint64_t>(units - 1),
                     static_cast<std::uint64_t>(parts - 1));
    const auto a_count = static_cast<std::size_t>(units);
    choose_.assign(a_count * static_cast<std::size_t>(parts), 0);
    choose_[0] = 1; // C(0, 0); C(0, b > 0) stays 0
    for (std::size_t a = 1; a < a_count; ++a) {
        choose_[a] = 1; // C(a, 0)
        for (std::size_t b = 1; b < static_cast<std::size_t>(parts); ++b)
            choose_[b * a_count + a] = choose_[(b - 1) * a_count + a - 1] +
                                       choose_[b * a_count + a - 1];
    }
}

void
CompositionSpace::at(std::uint64_t index, std::span<int> out) const
{
    SATORI_ASSERT(index < size_);
    SATORI_ASSERT(out.size() == static_cast<std::size_t>(parts_));
    int remaining_units = units_;
    for (int p = 0; p < parts_ - 1; ++p) {
        const int remaining_parts = parts_ - p - 1;
        // C(a, remaining_parts - 1) for every a.
        const std::uint64_t* column =
            choose_.data() + static_cast<std::size_t>(remaining_parts - 1) *
                                 static_cast<std::size_t>(units_);
        // First part can be 1 .. remaining_units - remaining_parts.
        for (int first = 1;; ++first) {
            const std::uint64_t block =
                column[remaining_units - first - 1];
            if (index < block) {
                out[static_cast<std::size_t>(p)] = first;
                remaining_units -= first;
                break;
            }
            index -= block;
        }
    }
    out[static_cast<std::size_t>(parts_ - 1)] = remaining_units;
}

void
CompositionSpace::sample(Rng& rng, std::span<int> out) const
{
    at(rng.uniformInt(size_), out);
}

ConfigurationSpace::ConfigurationSpace(const PlatformSpec& platform,
                                       std::size_t num_jobs)
    : platform_(platform), num_jobs_(num_jobs)
{
    SATORI_ASSERT(num_jobs >= 1);
    size_ = 1;
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        per_resource_.emplace_back(platform.units(r),
                                   static_cast<int>(num_jobs));
        size_ *= per_resource_.back().size();
    }
}

Configuration
ConfigurationSpace::at(std::uint64_t index) const
{
    SATORI_ASSERT(index < size_);
    Configuration out(num_jobs_,
                      std::vector<int>(per_resource_.size() * num_jobs_));
    // Mixed-radix decomposition, least-significant resource last.
    for (std::size_t r = per_resource_.size(); r-- > 0;) {
        const std::uint64_t radix = per_resource_[r].size();
        per_resource_[r].at(index % radix, out.resourceRow(r));
        index /= radix;
    }
    return out;
}

Configuration
ConfigurationSpace::sample(Rng& rng) const
{
    std::vector<int> units(rowSize());
    sampleInto(rng, units);
    return Configuration(num_jobs_, std::move(units));
}

void
ConfigurationSpace::sampleInto(Rng& rng, std::span<int> out) const
{
    SATORI_ASSERT(out.size() == rowSize());
    for (std::size_t r = 0; r < per_resource_.size(); ++r)
        per_resource_[r].sample(rng, out.subspan(r * num_jobs_, num_jobs_));
}

std::uint64_t
ConfigurationSpace::sizeOf(const PlatformSpec& platform,
                           std::size_t num_jobs)
{
    std::uint64_t size = 1;
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        size *= binomial(static_cast<std::uint64_t>(platform.units(r) - 1),
                         static_cast<std::uint64_t>(num_jobs - 1));
    }
    return size;
}

} // namespace satori
