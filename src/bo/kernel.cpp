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
SoaPoints::assign(const std::vector<RealVec>& pts, std::size_t begin,
                  std::size_t end)
{
    SATORI_ASSERT(begin <= end && end <= pts.size());
    count_ = end - begin;
    dims_ = count_ > 0 ? pts[begin].size() : 0;
    data_.resize(count_ * dims_);
    for (std::size_t c = 0; c < count_; ++c) {
        const RealVec& p = pts[begin + c];
        SATORI_ASSERT(p.size() == dims_);
        for (std::size_t d = 0; d < dims_; ++d)
            data_[d * count_ + c] = p[d];
    }
}

void
Kernel::covarianceRow(const RealVec& x, const std::vector<RealVec>& pts,
                      double* out) const
{
    for (std::size_t i = 0; i < pts.size(); ++i)
        out[i] = covariance(x, pts[i]);
}

void
Kernel::covarianceCross(const SoaPoints& pts, const RealVec& q,
                        double* out) const
{
    // Generic fallback: gather each packed point back into a vector
    // and evaluate pairwise. Kernels with a hot batched path (Matern
    // 5/2) override this with the SoA-streaming version.
    RealVec p(pts.dims());
    for (std::size_t c = 0; c < pts.count(); ++c) {
        for (std::size_t d = 0; d < pts.dims(); ++d)
            p[d] = pts.dim(d)[c];
        out[c] = covariance(q, p);
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
    // paying a virtual call + two function calls per point.
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

std::unique_ptr<Kernel>
Matern52Kernel::withLengthScale(double ls) const
{
    return std::make_unique<Matern52Kernel>(ls, signal_variance_);
}

std::unique_ptr<Kernel>
Matern52Kernel::clone() const
{
    return std::make_unique<Matern52Kernel>(*this);
}

RbfKernel::RbfKernel(double length_scale, double signal_variance)
    : length_scale_(length_scale), signal_variance_(signal_variance)
{
    SATORI_ASSERT(length_scale_ > 0.0 && signal_variance_ > 0.0);
}

double
RbfKernel::covariance(const RealVec& a, const RealVec& b) const
{
    const double r2 = squaredDistance(a, b);
    return signal_variance_ *
           std::exp(-r2 / (2.0 * length_scale_ * length_scale_));
}

std::unique_ptr<Kernel>
RbfKernel::withLengthScale(double ls) const
{
    return std::make_unique<RbfKernel>(ls, signal_variance_);
}

std::unique_ptr<Kernel>
RbfKernel::clone() const
{
    return std::make_unique<RbfKernel>(*this);
}

} // namespace bo
} // namespace satori
