#include "satori/bo/kernel.hpp"

#include <cmath>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/linalg/simd.hpp"

namespace satori {
namespace bo {

namespace {

/**
 * Squared distances from @p q to every packed point, through the
 * fused simd::sqDistInto kernel. The dimension-pointer table lives
 * on the stack for any realistic dimensionality; beyond it, fall
 * back to the bit-identical one-dimension-at-a-time accumulation.
 */
void
sqDistBlock(const SoaPoints& pts, const RealVec& q, double* out)
{
    const std::size_t count = pts.count();
    const std::size_t dims = pts.dims();
    constexpr std::size_t kMaxStackDims = 64;
    if (dims <= kMaxStackDims) {
        const double* ptrs[kMaxStackDims];
        for (std::size_t d = 0; d < dims; ++d)
            ptrs[d] = pts.dim(d);
        linalg::simd::sqDistInto(out, ptrs, q.data(), dims, count);
        return;
    }
    for (std::size_t c = 0; c < count; ++c)
        out[c] = 0.0;
    for (std::size_t d = 0; d < dims; ++d)
        linalg::simd::accumSqDiff(out, pts.dim(d), q[d], count);
}

} // namespace

void
SoaPoints::assign(const std::vector<RealVec>& pts)
{
    count_ = pts.size();
    dims_ = count_ > 0 ? pts.front().size() : 0;
    data_.resize(count_ * dims_);
    for (std::size_t c = 0; c < count_; ++c) {
        const RealVec& p = pts[c];
        SATORI_ASSERT(p.size() == dims_);
        for (std::size_t d = 0; d < dims_; ++d)
            data_[d * count_ + c] = p[d];
    }
}

void
SoaPoints::assignShares(std::span<const int> rows, std::size_t num_jobs,
                        std::size_t num_resources)
{
    dims_ = num_jobs * num_resources;
    SATORI_ASSERT(dims_ > 0 && rows.size() % dims_ == 0);
    count_ = rows.size() / dims_;
    data_.resize(count_ * dims_);
    for (std::size_t c = 0; c < count_; ++c) {
        const int* row = rows.data() + c * dims_;
        for (std::size_t r = 0; r < num_resources; ++r) {
            const int* units = row + r * num_jobs;
            int total = 0;
            for (std::size_t j = 0; j < num_jobs; ++j)
                total += units[j];
            // The same int total and double division as
            // Configuration::normalizedVector().
            const double total_units = static_cast<double>(total);
            for (std::size_t j = 0; j < num_jobs; ++j)
                data_[(r * num_jobs + j) * count_ + c] =
                    static_cast<double>(units[j]) / total_units;
        }
    }
}

Matern52Kernel::Matern52Kernel(double length_scale, double signal_variance)
    : length_scale_(length_scale), signal_variance_(signal_variance)
{
    SATORI_ASSERT(length_scale_ > 0.0 && signal_variance_ > 0.0);
}

double
Matern52Kernel::covariance(const RealVec& a, const RealVec& b) const
{
    const double r = euclideanDistance(a, b);
    const double z = std::sqrt(5.0) * r / length_scale_;
    return signal_variance_ * (1.0 + z + z * z / 3.0) * std::exp(-z);
}

void
Matern52Kernel::covarianceRow(const RealVec& x,
                              const std::vector<RealVec>& pts,
                              double* out) const
{
    // Element-for-element the same expressions covariance() evaluates
    // (sqrt(5) is a compile-time constant there too); batching only
    // keeps the distance accumulation inlined in this loop instead of
    // paying two function calls per point.
    const std::size_t dims = x.size();
    for (std::size_t p = 0; p < pts.size(); ++p) {
        const RealVec& b = pts[p];
        double d2 = 0.0;
        for (std::size_t i = 0; i < dims; ++i) {
            const double d = x[i] - b[i];
            d2 += d * d;
        }
        const double r = std::sqrt(d2);
        const double z = std::sqrt(5.0) * r / length_scale_;
        out[p] = signal_variance_ * (1.0 + z + z * z / 3.0) *
                 std::exp(-z);
    }
}

void
Matern52Kernel::covarianceCross(const SoaPoints& pts, const RealVec& q,
                                double* out) const
{
    // Squared distances accumulate per dimension in ascending order -
    // the same per-element operation sequence covariance() runs, just
    // streamed across the whole block, all coordinates fused in one
    // pass (out holds the d^2 block). Bit-identical by construction;
    // simd_test pins the lane/scalar equivalence of sqDistInto.
    const std::size_t count = pts.count();
    const std::size_t dims = pts.dims();
    SATORI_ASSERT(dims == q.size());
    sqDistBlock(pts, q, out);
    for (std::size_t c = 0; c < count; ++c) {
        const double r = std::sqrt(out[c]);
        const double z = std::sqrt(5.0) * r / length_scale_;
        out[c] = signal_variance_ * (1.0 + z + z * z / 3.0) *
                 std::exp(-z);
    }
}

} // namespace bo
} // namespace satori
