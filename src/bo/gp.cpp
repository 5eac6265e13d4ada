#include "satori/bo/gp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "satori/analysis/invariants.hpp"
#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/linalg/matrix.hpp"
#include "satori/linalg/simd.hpp"
#include "satori/obs/obs.hpp"

namespace satori {
namespace bo {

namespace {

/**
 * How far the target scale may drift from the scale at the last full
 * factorization before an incremental update also refreshes the
 * factorization. The factor never depends on the targets, so this is
 * numerical hygiene only - it changes nothing observable - but it
 * bounds how long a factor extended purely by rank-1 appends lives
 * while the objective magnitude moves by orders of magnitude.
 */
constexpr double kScaleDriftTolerance = 32.0;

} // namespace

double
GpPrediction::stddev() const
{
    return std::sqrt(std::max(variance, 0.0));
}

GaussianProcess::GaussianProcess(Matern52Kernel kernel,
                                 double noise_variance)
    : kernel_(kernel), noise_variance_(noise_variance)
{
    SATORI_ASSERT(noise_variance_ >= 0.0);
}

void
GaussianProcess::fit(const std::vector<RealVec>& inputs,
                     const std::vector<double>& targets)
{
    SATORI_ASSERT(inputs.size() == targets.size());
    SATORI_ASSERT(!inputs.empty());
    inputs_ = inputs;
    y_raw_ = targets;
    fitStandardized();
}

void
GaussianProcess::fitStandardized()
{
    buildKernelCache();
    refitFromCache();
}

void
GaussianProcess::buildKernelCache()
{
    const std::size_t n = inputs_.size();
    k_cache_ = linalg::Matrix(n, n);
    // Row-at-a-time through the batched kernel; symmetric entries are
    // recomputed rather than mirrored, which is bitwise-identical for
    // a stationary kernel (the distance accumulation sees the same
    // operands) and keeps every write contiguous.
    for (std::size_t i = 0; i < n; ++i) {
        kernel_.covarianceRow(inputs_[i], inputs_, &k_cache_(i, 0));
        k_cache_(i, i) += noise_variance_;
    }
}

void
GaussianProcess::refitFromCache()
{
    SATORI_OBS_SPAN("gp.fit");
    // Only the obs/audit hooks consume n; OBS=OFF + AUDIT=OFF builds
    // compile both away.
    [[maybe_unused]] const std::size_t n = inputs_.size();
    SATORI_OBS_METRIC(gp_fits.inc());
    SATORI_OBS_METRIC(
        gp_training_size.observe(static_cast<double>(n)));
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkKernelMatrix(
        k_cache_, __FILE__, __LINE__));
    chol_.emplace(k_cache_);
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkCholesky(
        chol_->jitter(), chol_->conditionEstimate(), n, __FILE__,
        __LINE__));
    standardizeAndSolve();
    anchor_scale_ = y_scale_;
}

void
GaussianProcess::standardizeAndSolve()
{
    const std::size_t n = inputs_.size();
    y_mean_ = mean(y_raw_);
    y_scale_ = stddev(y_raw_);
    if (y_scale_ < 1e-12)
        y_scale_ = 1.0; // constant targets: keep scale neutral
    y_std_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        y_std_[i] = (y_raw_[i] - y_mean_) / y_scale_;
    alpha_ = chol_->solve(y_std_);

    // log p(y|X) = -0.5 y^T alpha - 0.5 log|K| - n/2 log(2 pi)
    log_marginal_ = -0.5 * linalg::dot(y_std_, alpha_) -
                    0.5 * chol_->logDet() -
                    0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
    fitted_ = true;
}

bool
GaussianProcess::tryExtendFactor(const RealVec& x)
{
    const std::size_t n = inputs_.size();
    // The new row, computed exactly as a fresh kernel build would:
    // upper-triangle order is k(existing_i, new), diagonal gets the
    // kernel self-covariance first, then the noise added on top.
    std::vector<double> cross(n);
    kernel_.covarianceRow(x, inputs_, cross.data());
    double diag = kernel_.covariance(x, x);
    diag += noise_variance_;

    linalg::Matrix grown(n + 1, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            grown(i, j) = k_cache_(i, j);
        grown(i, n) = cross[i];
        grown(n, i) = cross[i];
    }
    grown(n, n) = diag;
    k_cache_ = std::move(grown);
    inputs_.push_back(x);
    return chol_->update(cross, diag);
}

bool
GaussianProcess::scaleDrifted() const
{
    return y_scale_ > anchor_scale_ * kScaleDriftTolerance ||
           y_scale_ * kScaleDriftTolerance < anchor_scale_;
}

bool
GaussianProcess::samePrefix(const std::vector<RealVec>& other,
                            std::size_t n) const
{
    for (std::size_t i = 0; i < n; ++i) {
        if (other[i].size() != inputs_[i].size())
            return false;
        // Bitwise comparison on purpose: equality must mean "the
        // cached factorization is exactly the one a refit would
        // build"; a spurious mismatch only costs a full refit.
        if (std::memcmp(other[i].data(), inputs_[i].data(),
                        inputs_[i].size() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

void
GaussianProcess::fitIncremental(const std::vector<RealVec>& inputs,
                                const std::vector<double>& targets)
{
    SATORI_ASSERT(inputs.size() == targets.size());
    SATORI_ASSERT(!inputs.empty());
    if (!fitted_ || inputs.size() != inputs_.size() + 1 ||
        !samePrefix(inputs, inputs_.size())) {
        fit(inputs, targets);
        return;
    }
    const bool extended = tryExtendFactor(inputs.back());
    y_raw_ = targets;
    if (!extended) {
        // SPD failure at the current jitter (e.g. a duplicated input
        // at jitter 0): refactorize the cached matrix from scratch so
        // the jitter-escalation ladder replays exactly as a fresh
        // fit's would.
        refitFromCache();
        return;
    }
    SATORI_OBS_SPAN("gp.fit.incremental");
    SATORI_OBS_METRIC(gp_incremental_updates.inc());
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkCholesky(
        chol_->jitter(), chol_->conditionEstimate(), inputs_.size(),
        __FILE__, __LINE__));
    standardizeAndSolve();
    if (scaleDrifted())
        refitFromCache();
}

GpPrediction
GaussianProcess::predict(const RealVec& x) const
{
    SATORI_ASSERT(fitted_);
    const std::size_t n = inputs_.size();
    std::vector<double> kstar(n);
    kernel_.covarianceRow(x, inputs_, kstar.data());

    GpPrediction pred;
    pred.mean = y_mean_ + y_scale_ * linalg::dot(kstar, alpha_);

    const std::vector<double> v = chol_->solveLower(kstar);
    const double var_std =
        kernel_.variance() - linalg::dot(v, v);
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkPosteriorVariance(
        var_std, kernel_.variance(), __FILE__, __LINE__));
    pred.variance = std::max(var_std, 0.0) * y_scale_ * y_scale_;
    return pred;
}

void
GaussianProcess::meansBlock(const SoaPoints& xs) const
{
    const std::size_t n = inputs_.size();
    const std::size_t count = xs.count();
    scratch_.kstar_t.reshape(n, count); // every element is written below
    // Cross-covariance block, training-sample-major: row i holds
    // k(inputs_[i], candidate c) for the whole block. Every element is
    // bit-identical to the candidate-major row the per-point path
    // computes (see Matern52Kernel::covarianceCross), the layout just turns
    // the downstream GEMV and multi-solve into contiguous
    // lane-parallel row sweeps.
    for (std::size_t i = 0; i < n; ++i)
        kernel_.covarianceCross(xs, inputs_[i], scratch_.kstar_t.rowPtr(i));
    // means[c] accumulates alpha_[i] * k* in ascending i - the exact
    // linalg::dot order predict() uses, one lane per candidate.
    scratch_.means.assign(count, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        linalg::simd::fmaAccum(scratch_.means.data(),
                               scratch_.kstar_t.rowPtr(i), alpha_[i], count);
}

void
GaussianProcess::predictBatchInto(const SoaPoints& xs,
                                  std::vector<GpPrediction>& out) const
{
    SATORI_ASSERT(fitted_);
    const std::size_t n = inputs_.size();
    const std::size_t count = xs.count();
    out.resize(count);
    if (count == 0)
        return;
    meansBlock(xs);
    chol_->solveLowerMultiTransposedInto(scratch_.kstar_t, scratch_.v);
    // ||v||^2 row by row: contiguous inner loop, each candidate still
    // sums in ascending i.
    scratch_.vv.assign(count, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        linalg::simd::accumSquare(scratch_.vv.data(), scratch_.v.rowPtr(i),
                                  count);
    for (std::size_t c = 0; c < count; ++c) {
        GpPrediction& o = out[c];
        o.mean = y_mean_ + y_scale_ * scratch_.means[c];
        const double var_std = kernel_.variance() - scratch_.vv[c];
        SATORI_AUDIT_HOOK(analysis::globalAuditor().checkPosteriorVariance(
            var_std, kernel_.variance(), __FILE__, __LINE__));
        o.variance = std::max(var_std, 0.0) * y_scale_ * y_scale_;
    }
}

void
GaussianProcess::predictMeansInto(const SoaPoints& xs,
                                  std::vector<double>& out) const
{
    SATORI_ASSERT(fitted_);
    out.resize(xs.count());
    if (xs.count() == 0)
        return;
    meansBlock(xs);
    for (std::size_t c = 0; c < xs.count(); ++c)
        out[c] = y_mean_ + y_scale_ * scratch_.means[c];
}

double
GaussianProcess::logMarginalLikelihood() const
{
    SATORI_ASSERT(fitted_);
    return log_marginal_;
}

void
GaussianProcess::fitWithLengthScaleGrid(const std::vector<RealVec>& inputs,
                                        const std::vector<double>& targets,
                                        std::span<const double> grid)
{
    SATORI_ASSERT(!grid.empty());
    // Keep the best candidate's full fitted state as the grid runs so
    // the winner can be restored directly instead of paying an extra
    // O(n^3) refit at the end.
    double best_lml = -std::numeric_limits<double>::infinity();
    double best_ls = kernel_.lengthScale();
    std::optional<linalg::Cholesky> best_chol;
    std::vector<double> best_alpha;
    std::vector<double> best_y_std;
    double best_y_mean = 0.0;
    double best_y_scale = 1.0;
    double best_anchor = 1.0;
    linalg::Matrix best_cache;
    for (double ls : grid) {
        kernel_ = Matern52Kernel(ls, kernel_.variance());
        fit(inputs, targets);
        if (log_marginal_ > best_lml) {
            best_lml = log_marginal_;
            best_ls = ls;
            best_chol = chol_;
            best_alpha = alpha_;
            best_y_std = y_std_;
            best_y_mean = y_mean_;
            best_y_scale = y_scale_;
            best_anchor = anchor_scale_;
            best_cache = k_cache_;
        }
    }
    // Every LML was NaN (e.g. NaN targets): keep the last grid fit.
    if (!best_chol)
        return;
    kernel_ = Matern52Kernel(best_ls, kernel_.variance());
    chol_ = std::move(best_chol);
    alpha_ = std::move(best_alpha);
    y_std_ = std::move(best_y_std);
    y_mean_ = best_y_mean;
    y_scale_ = best_y_scale;
    anchor_scale_ = best_anchor;
    k_cache_ = std::move(best_cache);
    log_marginal_ = best_lml;
}

} // namespace bo
} // namespace satori
