/**
 * @file
 * Tests for the Bayesian-optimization stack: kernels, the Gaussian
 * process, acquisition functions, candidate generation, and the
 * engine's suggestion behaviour.
 */

#include <cmath>
#include <cstring>

#include <algorithm>
#include <limits>
#include <set>
#include <gtest/gtest.h>

#include "satori/bo/acquisition.hpp"
#include "satori/bo/candidates.hpp"
#include "satori/bo/engine.hpp"
#include "satori/bo/gp.hpp"
#include "satori/bo/kernel.hpp"
#include "satori/common/logging.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/codec.hpp"

namespace satori {
namespace bo {
namespace {

TEST(KernelTest, SelfCovarianceIsSignalVariance)
{
    const Matern52Kernel m(0.5, 2.0);
    const RealVec x{0.1, 0.2};
    EXPECT_NEAR(m.covariance(x, x), 2.0, 1e-12);
}

TEST(KernelTest, SymmetricAndDecayingWithDistance)
{
    const Matern52Kernel k(0.4);
    const RealVec a{0.0, 0.0}, b{0.2, 0.1}, c{0.9, 0.9};
    EXPECT_DOUBLE_EQ(k.covariance(a, b), k.covariance(b, a));
    EXPECT_GT(k.covariance(a, b), k.covariance(a, c));
    EXPECT_GT(k.covariance(a, b), 0.0);
}

TEST(KernelTest, LengthScaleControlsReach)
{
    const RealVec a{0.0}, b{0.5};
    const Matern52Kernel narrow(0.1), wide(1.0);
    EXPECT_LT(narrow.covariance(a, b), wide.covariance(a, b));
}

TEST(GpTest, InterpolatesTrainingPointsWithLowNoise)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-8);
    const std::vector<RealVec> xs{{0.0}, {0.5}, {1.0}};
    const std::vector<double> ys{1.0, 3.0, 2.0};
    gp.fit(xs, ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const auto p = gp.predict(xs[i]);
        EXPECT_NEAR(p.mean, ys[i], 1e-3);
        EXPECT_LT(p.stddev(), 0.05);
    }
}

TEST(GpTest, UncertaintyGrowsAwayFromData)
{
    GaussianProcess gp(Matern52Kernel(0.2), 1e-6);
    gp.fit({{0.0}, {0.1}}, {1.0, 1.1});
    const auto near = gp.predict({0.05});
    const auto far = gp.predict({0.9});
    EXPECT_LT(near.variance, far.variance);
}

TEST(GpTest, StandardizationHandlesLargeTargets)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    gp.fit({{0.0}, {1.0}}, {1e9, 2e9});
    const auto p = gp.predict({0.0});
    EXPECT_NEAR(p.mean, 1e9, 1e7);
}

TEST(GpTest, ConstantTargetsAreSafe)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    gp.fit({{0.0}, {0.5}, {1.0}}, {4.0, 4.0, 4.0});
    EXPECT_NEAR(gp.predict({0.3}).mean, 4.0, 1e-6);
}

TEST(GpTest, DuplicateInputsDoNotBreakFactorization)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    // Same x with different noisy ys: jitter path must engage.
    gp.fit({{0.5}, {0.5}, {0.5}}, {1.0, 1.2, 0.8});
    const auto p = gp.predict({0.5});
    EXPECT_NEAR(p.mean, 1.0, 0.1);
}

TEST(GpTest, CopySemanticsPreserveFit)
{
    GaussianProcess gp(Matern52Kernel(0.3), 1e-6);
    gp.fit({{0.0}, {1.0}}, {1.0, 2.0});
    GaussianProcess copy(gp);
    EXPECT_NEAR(copy.predict({0.0}).mean, gp.predict({0.0}).mean, 1e-9);
    GaussianProcess assigned(Matern52Kernel(0.9));
    assigned = gp;
    EXPECT_NEAR(assigned.predict({1.0}).mean, 2.0, 1e-3);
}

TEST(GpTest, LengthScaleGridImprovesMarginalLikelihood)
{
    // Data drawn from a smooth function: a too-short length scale
    // should lose to a well-matched one under the LML criterion.
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 10; ++i) {
        const double x = i / 10.0;
        xs.push_back({x});
        ys.push_back(std::sin(3.0 * x));
    }
    GaussianProcess gp(Matern52Kernel(0.01), 1e-4);
    gp.fit(xs, ys);
    const double lml_short = gp.logMarginalLikelihood();
    const std::vector<double> grid{0.01, 0.1, 0.3, 1.0};
    gp.fitWithLengthScaleGrid(xs, ys, grid);
    EXPECT_GE(gp.logMarginalLikelihood(), lml_short);
    EXPECT_GT(gp.kernel().lengthScale(), 0.01);
}

/** Deterministic pseudo-random d-dim input. */
RealVec
randomPoint(Rng& rng, std::size_t dims)
{
    RealVec x(dims);
    for (double& v : x)
        v = rng.uniform();
    return x;
}

TEST(GpIncrementalTest, FitIncrementalAppendMatchesFullRefitBitwise)
{
    // Randomized sequences, including a duplicated input (SPD-failure
    // fallback) and a large target-scale shift (drift fallback): the
    // GP extended one appended sample at a time must match a
    // from-scratch fit at every step - bitwise, because
    // decision-trace stability depends on it.
    Rng rng(31337);
    const std::size_t dims = 4;
    std::vector<RealVec> xs;
    std::vector<double> ys;

    GaussianProcess incremental(Matern52Kernel(0.5),
                                0.05);
    std::vector<RealVec> probes;
    for (int p = 0; p < 8; ++p)
        probes.push_back(randomPoint(rng, dims));

#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
    obs::Observability& o = obs::observability();
    o.resetAll();
    o.setMetricsEnabled(true);
#endif
    for (std::size_t step = 0; step < 40; ++step) {
        RealVec x;
        if (step == 15) {
            x = xs[3]; // exact duplicate
        } else {
            x = randomPoint(rng, dims);
        }
        double y = rng.gaussian();
        if (step >= 30)
            y *= 1e6; // violent scale shift triggers the drift refresh
        xs.push_back(x);
        ys.push_back(y);

        incremental.fitIncremental(xs, ys);

        GaussianProcess fresh(Matern52Kernel(0.5),
                              0.05);
        fresh.fit(xs, ys);
        ASSERT_EQ(incremental.numSamples(), fresh.numSamples());
        EXPECT_EQ(incremental.logMarginalLikelihood(),
                  fresh.logMarginalLikelihood())
            << "step " << step;
        for (const auto& probe : probes) {
            const auto pi = incremental.predict(probe);
            const auto pf = fresh.predict(probe);
            EXPECT_EQ(pi.mean, pf.mean) << "step " << step;
            EXPECT_EQ(pi.variance, pf.variance) << "step " << step;
        }
    }
#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED
    // Every step after the first took the rank-1 append branch, not
    // the full refit it is compared against.
    EXPECT_EQ(o.lib().gp_incremental_updates.value(), 39u);
    o.resetAll();
#endif
}

TEST(GpIncrementalTest, FitIncrementalNearSingularDuplicatesMatchFullRefit)
{
    // Vanishing noise + duplicated inputs: the rank-1 append either
    // succeeds with the same pivot arithmetic a fresh factorization
    // would run, or refuses and falls back to the jitter-escalated
    // refactorization. Both must equal the from-scratch fit bitwise.
    Rng rng(99);
    GaussianProcess incremental(Matern52Kernel(0.5),
                                1e-12);
    std::vector<RealVec> xs{randomPoint(rng, 2)};
    std::vector<double> ys{rng.gaussian()};
    incremental.fit(xs, ys);
    for (int step = 0; step < 10; ++step) {
        // Every other step repeats an existing input exactly.
        const RealVec x = (step % 2 == 0)
                              ? xs[static_cast<std::size_t>(step) / 2]
                              : randomPoint(rng, 2);
        xs.push_back(x);
        ys.push_back(rng.gaussian());
        incremental.fitIncremental(xs, ys);

        GaussianProcess fresh(Matern52Kernel(0.5),
                              1e-12);
        fresh.fit(xs, ys);
        const RealVec probe = randomPoint(rng, 2);
        EXPECT_EQ(incremental.predict(probe).mean,
                  fresh.predict(probe).mean)
            << "step " << step;
        EXPECT_EQ(incremental.predict(probe).variance,
                  fresh.predict(probe).variance)
            << "step " << step;
    }
}

TEST(GpIncrementalTest, PredictBatchMatchesLoopedPredict)
{
    Rng rng(555);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(randomPoint(rng, 5));
        ys.push_back(rng.gaussian());
    }
    GaussianProcess gp(Matern52Kernel(0.5), 0.05);
    gp.fit(xs, ys);

    // 700 queries: a block wider than any shipped candidate set, with
    // a partial SIMD tail.
    std::vector<RealVec> queries;
    for (int q = 0; q < 700; ++q)
        queries.push_back(randomPoint(rng, 5));
    SoaPoints block;
    block.assign(queries);

    std::vector<GpPrediction> batch;
    gp.predictBatchInto(block, batch);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto single = gp.predict(queries[q]);
        EXPECT_EQ(batch[q].mean, single.mean) << q;
        EXPECT_EQ(batch[q].variance, single.variance) << q;
    }

    // The means-only pass produces the batch means bit for bit.
    std::vector<double> means;
    gp.predictMeansInto(block, means);
    ASSERT_EQ(means.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(std::memcmp(&means[q], &batch[q].mean, sizeof(double)),
                  0)
            << q;

    // The into-variant reuses scratch across calls without cross-talk.
    std::vector<GpPrediction> out;
    gp.predictBatchInto(block, out);
    gp.predictBatchInto(block, out);
    ASSERT_EQ(out.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(out[q].mean, batch[q].mean);
}

TEST(GpIncrementalTest, GridFitWithNaNTargetsKeepsLastFit)
{
    // NaN targets make every grid point's LML NaN, so none wins; the
    // GP keeps the last grid fit and still predicts (NaN, no crash).
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 6; ++i) {
        xs.push_back({i / 6.0, 1.0 - i / 6.0});
        ys.push_back(std::numeric_limits<double>::quiet_NaN());
    }
    GaussianProcess gp(Matern52Kernel(0.05), 1e-4);
    const std::vector<double> grid{0.05, 0.2, 0.5};
    gp.fitWithLengthScaleGrid(xs, ys, grid);
    ASSERT_TRUE(gp.isFitted());
    EXPECT_EQ(gp.kernel().lengthScale(), 0.5);
    EXPECT_TRUE(std::isnan(gp.predict({0.3, 0.7}).mean));
    SoaPoints block;
    block.assign({{0.1, 0.9}, {0.8, 0.2}});
    std::vector<double> means;
    gp.predictMeansInto(block, means);
    ASSERT_EQ(means.size(), 2u);
    EXPECT_TRUE(std::isnan(means[0]));
}

TEST(GpIncrementalTest, GridFitCachingMatchesDirectBestFitAndAppends)
{
    // fitWithLengthScaleGrid now restores the best candidate's cached
    // state instead of re-fitting; the result must equal a direct fit
    // at the winning length scale exactly.
    Rng rng(808);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 12; ++i) {
        const double x = i / 12.0;
        xs.push_back({x});
        ys.push_back(std::sin(3.0 * x) + 0.01 * rng.gaussian());
    }
    GaussianProcess grid_gp(Matern52Kernel(0.05),
                            1e-4);
    const std::vector<double> grid{0.05, 0.2, 0.5, 1.0};
    grid_gp.fitWithLengthScaleGrid(xs, ys, grid);
    const double winner = grid_gp.kernel().lengthScale();

    GaussianProcess direct(Matern52Kernel(winner),
                           1e-4);
    direct.fit(xs, ys);
    EXPECT_EQ(grid_gp.logMarginalLikelihood(),
              direct.logMarginalLikelihood());
    for (int p = 0; p < 5; ++p) {
        const RealVec probe = randomPoint(rng, 1);
        EXPECT_EQ(grid_gp.predict(probe).mean,
                  direct.predict(probe).mean);
        EXPECT_EQ(grid_gp.predict(probe).variance,
                  direct.predict(probe).variance);
    }

    // Copies of a grid-fitted GP keep the fit without re-fitting.
    GaussianProcess copy(grid_gp);
    const RealVec probe{0.4};
    EXPECT_EQ(copy.predict(probe).mean, grid_gp.predict(probe).mean);

    // The grid GP remains incrementally updatable afterwards.
    auto xs2 = xs;
    auto ys2 = ys;
    xs2.push_back({1.1});
    ys2.push_back(0.5);
    grid_gp.fitIncremental(xs2, ys2);
    GaussianProcess extended(Matern52Kernel(winner),
                             1e-4);
    extended.fit(xs2, ys2);
    EXPECT_EQ(grid_gp.predict(probe).mean,
              extended.predict(probe).mean);
}

TEST(EngineIncrementalTest, SetSamplesIncrementalToggleDoesNotChangeSuggestions)
{
    // The engine-level pin: same samples, same candidates, identical
    // suggestions and predictions with the incremental update on and
    // off, whether setSamples appends one sample or rebuilds the
    // targets.
    Rng rng(2718);
    bo::EngineOptions fast_opt;
    fast_opt.incremental = true;
    bo::EngineOptions slow_opt = fast_opt;
    slow_opt.incremental = false;
    BoEngine fast(fast_opt);
    BoEngine slow(slow_opt);

    std::vector<RealVec> candidates;
    for (int c = 0; c < 24; ++c)
        candidates.push_back(randomPoint(rng, 3));

    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back(randomPoint(rng, 3));
        ys.push_back(rng.gaussian());
        if (i % 3 == 0) {
            // Re-weighted objective: every earlier target moves too,
            // as in SATORI's per-iteration reconstruction.
            for (double& y : ys)
                y *= 1.5;
        }
        fast.setSamples(xs, ys);
        slow.setSamples(xs, ys);
        EXPECT_EQ(fast.suggestIndex(candidates),
                  slow.suggestIndex(candidates));
        const auto pf = fast.predict(candidates[0]);
        const auto ps = slow.predict(candidates[0]);
        EXPECT_EQ(pf.mean, ps.mean);
        EXPECT_EQ(pf.variance, ps.variance);
    }
}

TEST(AcquisitionTest, EiZeroWhenNoImprovementPossible)
{
    GpPrediction p;
    p.mean = 0.0;
    p.variance = 0.0;
    EXPECT_DOUBLE_EQ(expectedImprovement(p, 1.0), 0.0);
}

TEST(AcquisitionTest, EiPositiveWithUncertainty)
{
    GpPrediction p;
    p.mean = 0.0;
    p.variance = 1.0;
    EXPECT_GT(expectedImprovement(p, 0.5), 0.0);
}

TEST(AcquisitionTest, EiPrefersHigherMeanAtEqualUncertainty)
{
    GpPrediction lo, hi;
    lo.mean = 0.2;
    hi.mean = 0.8;
    lo.variance = hi.variance = 0.04;
    EXPECT_GT(expectedImprovement(hi, 0.5),
              expectedImprovement(lo, 0.5));
}

TEST(EngineTest, SetSamplesGrowingSuggestsNearMaximumOfSimpleFunction)
{
    // f(x) = -(x - 0.7)^2: after a handful of samples, set one more
    // at a time, the engine should point near 0.7 rather than the
    // far corner.
    BoEngine engine;
    Rng rng(11);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (int i = 0; i < 20; ++i) {
        const double x = rng.uniform();
        xs.push_back({x});
        ys.push_back(-(x - 0.7) * (x - 0.7));
        engine.setSamples(xs, ys);
    }
    std::vector<RealVec> candidates;
    for (int i = 0; i <= 50; ++i)
        candidates.push_back({i / 50.0});
    const std::size_t pick = engine.suggestIndex(candidates);
    EXPECT_NEAR(candidates[pick][0], 0.7, 0.25);
}

TEST(EngineTest, BestObservedTracksMaximum)
{
    BoEngine engine;
    engine.setSamples({{0.0}, {0.5}, {1.0}}, {1.0, 5.0, 3.0});
    EXPECT_DOUBLE_EQ(engine.bestObserved(), 5.0);
    EXPECT_EQ(engine.bestIndex(), 1u);
    EXPECT_EQ(engine.numSamples(), 3u);
}

TEST(EngineTest, SetSamplesReplacesHistory)
{
    BoEngine engine;
    engine.setSamples({{0.0}}, {1.0});
    engine.setSamples({{0.2}, {0.4}}, {2.0, 3.0});
    EXPECT_EQ(engine.numSamples(), 2u);
    EXPECT_DOUBLE_EQ(engine.bestObserved(), 3.0);
}

TEST(CandidatesTest, SeedsIncludeEqualPartitionAndAreValid)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    CandidateGenerator gen(space);
    const auto seeds = gen.seedConfigurations();
    ASSERT_FALSE(seeds.empty());
    EXPECT_TRUE(seeds.front() ==
                Configuration::equalPartition(p, 5));
    for (const auto& s : seeds)
        EXPECT_TRUE(s.isValidFor(p, 5));
}

TEST(CandidatesTest, GenerateIsDeduplicatedAndValid)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    CandidateGenerator gen(space);
    Rng rng(3);
    const Configuration incumbent = Configuration::equalPartition(p, 5);
    const auto cands = gen.generate(incumbent, rng);
    ASSERT_FALSE(cands.empty());
    std::set<Configuration> seen;
    for (const auto& c : cands) {
        EXPECT_TRUE(c.isValidFor(p, 5));
        EXPECT_TRUE(seen.insert(c).second) << "duplicate candidate";
    }
}

TEST(CandidatesTest, GenerateReplaysExactlyAcrossInstances)
{
    // The emitted candidate order must depend only on (incumbent, rng
    // state): two independent generators with identically seeded Rngs
    // produce identical lists.
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    const Configuration incumbent = Configuration::equalPartition(p, 5);

    CandidateGenerator gen_a(space);
    CandidateGenerator gen_b(space);
    Rng rng_a(17);
    Rng rng_b(17);
    const auto cands_a = gen_a.generate(incumbent, rng_a);
    const auto cands_b = gen_b.generate(incumbent, rng_b);

    ASSERT_EQ(cands_a.size(), cands_b.size());
    for (std::size_t i = 0; i < cands_a.size(); ++i)
        EXPECT_TRUE(cands_a[i] == cands_b[i]) << "divergence at " << i;
}

// --- engine at the production shape and across save/restore --------

namespace {

/** A smooth synthetic objective over share-normalized inputs. */
double
smoothTarget(const RealVec& x)
{
    double y = std::sin(3.0 * x[0]);
    for (std::size_t d = 1; d < x.size(); ++d)
        y += 0.3 * std::cos(4.0 * x[d]);
    return y;
}

/** n pseudo-random inputs in [0,1)^dims with a smooth target. */
void
makeDataset(std::size_t n, std::size_t dims, std::uint64_t seed,
            std::vector<RealVec>& xs, std::vector<double>& ys)
{
    Rng rng(seed);
    xs.clear();
    ys.clear();
    for (std::size_t i = 0; i < n; ++i) {
        RealVec x(dims);
        for (std::size_t d = 0; d < dims; ++d)
            x[d] = rng.uniform();
        ys.push_back(smoothTarget(x));
        xs.push_back(std::move(x));
    }
}

/**
 * The engine's decision recomputed from its public surface:
 * expectedImprovement(predict(x)) per candidate, maximized with the
 * first candidate winning ties.
 */
std::size_t
plainArgmax(const BoEngine& engine, const std::vector<RealVec>& candidates)
{
    const double best = engine.bestObserved();
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double score =
            expectedImprovement(engine.predict(candidates[i]), best);
        if (score > best_score) {
            best_score = score;
            best_idx = i;
        }
    }
    return best_idx;
}

} // namespace

TEST(EngineTest, ProductionShapeSuggestionIsPlainFirstWinsArgmax)
{
    // The shipped controller's shape: 5 jobs x 3 resources = 15 dims,
    // n = 64 samples, one round of real CandidateGenerator output.
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    CandidateGenerator gen(space);
    Rng rng(64);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < 64; ++i) {
        xs.push_back(space.sample(rng).normalizedVector());
        ys.push_back(smoothTarget(xs.back()));
    }
    std::vector<RealVec> candidates;
    for (const Configuration& c :
         gen.generate(Configuration::equalPartition(p, 5), rng))
        candidates.push_back(c.normalizedVector());
    ASSERT_EQ(xs.front().size(), 15u);
    ASSERT_GT(candidates.size(), 300u);

    BoEngine engine;
    engine.setSamples(xs, ys);
    const std::size_t pick = engine.suggestIndex(candidates);
    EXPECT_EQ(pick, plainArgmax(engine, candidates));

    // An exact duplicate of the winner appended at the end ties with
    // it; the earlier index must win.
    std::vector<RealVec> with_dup = candidates;
    with_dup.push_back(candidates[pick]);
    EXPECT_EQ(engine.suggestIndex(with_dup), pick);
}

TEST(EngineBlockTest, SuggestAndProbeMatchVectorOverloads)
{
    // The controller's flat path (unit rows packed by assignShares)
    // against the per-candidate RealVec path, at the shipped shape.
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    const CandidateGenerator gen(space);
    for (const std::size_t n : {16u, 64u}) {
        Rng rng(n);
        std::vector<RealVec> xs;
        std::vector<double> ys;
        for (std::size_t i = 0; i < n; ++i) {
            xs.push_back(space.sample(rng).normalizedVector());
            ys.push_back(smoothTarget(xs.back()));
        }
        BoEngine engine;
        engine.setSamples(xs, ys);

        std::vector<int> rows;
        gen.generateInto(space.sample(rng), rng, rows);
        SoaPoints block;
        block.assignShares(rows, 5, p.numResources());
        std::vector<RealVec> vectors;
        for (std::size_t c = 0; c < block.count(); ++c)
            vectors.push_back(gen.configurationAt(rows, c).normalizedVector());
        const std::size_t pick = engine.suggestIndex(block);
        EXPECT_EQ(pick, engine.suggestIndex(vectors)) << "n=" << n;
        EXPECT_EQ(pick, plainArgmax(engine, vectors)) << "n=" << n;
        // A copy of the winning row appended at the end ties with it;
        // the earlier index must win on the block path too.
        const std::size_t width = space.rowSize();
        const std::vector<int> winner(
            rows.begin() + static_cast<std::ptrdiff_t>(pick * width),
            rows.begin() + static_cast<std::ptrdiff_t>((pick + 1) * width));
        std::vector<int> with_dup = rows;
        with_dup.insert(with_dup.end(), winner.begin(), winner.end());
        SoaPoints dup_block;
        dup_block.assignShares(with_dup, 5, p.numResources());
        EXPECT_EQ(engine.suggestIndex(dup_block), pick) << "n=" << n;

        // Probe means: block, vectors and per-point predict(), bitwise.
        const std::vector<double> from_block = engine.probeMeans(block);
        const std::vector<double> from_vectors = engine.probeMeans(vectors);
        ASSERT_EQ(from_block.size(), vectors.size());
        ASSERT_EQ(from_vectors.size(), vectors.size());
        for (std::size_t c = 0; c < vectors.size(); ++c) {
            const double single = engine.predict(vectors[c]).mean;
            EXPECT_EQ(std::memcmp(&from_block[c], &from_vectors[c],
                                  sizeof(double)),
                      0)
                << "n=" << n << " probe " << c;
            EXPECT_EQ(std::memcmp(&from_block[c], &single, sizeof(double)), 0)
                << "n=" << n << " probe " << c;
        }
    }
}

TEST(EngineTest, SetSamplesStateRoundTripPreservesSuggestIndex)
{
    std::vector<RealVec> xs;
    std::vector<double> ys;
    makeDataset(41, 1, 96, xs, ys);
    std::vector<RealVec> candidates;
    std::vector<double> cys;
    makeDataset(60, 1, 97, candidates, cys);

    // 31 fits: the grid refit at fit 20 moves the length scale off
    // its initial 0.5 and leaves the next refit 9 fits away, so the
    // restore must carry both.
    BoEngine engine;
    for (std::size_t n = 10; n <= 40; ++n)
        engine.setSamples({xs.begin(), xs.begin() + n},
                          {ys.begin(), ys.begin() + n});

    persist::StateWriter w;
    engine.saveState(w);
    // The state leads with the fitted length scale. Had the grid kept
    // 0.5, a restore that ignored it would go unnoticed.
    persist::StateReader peek(w.bytes(), "engine-length-scale");
    ASSERT_NE(peek.getDouble(), 0.5);

    persist::StateReader r(w.bytes(), "engine-roundtrip");
    BoEngine restored;
    restored.restoreState(r);
    EXPECT_EQ(restored.numSamples(), engine.numSamples());
    EXPECT_DOUBLE_EQ(restored.bestObserved(), engine.bestObserved());
    EXPECT_EQ(restored.suggestIndex(candidates),
              engine.suggestIndex(candidates));
    for (const RealVec& c : candidates) {
        EXPECT_EQ(restored.predict(c).mean, engine.predict(c).mean);
        EXPECT_EQ(restored.predict(c).variance,
                  engine.predict(c).variance);
    }

    // The next append continues the same incremental sequence.
    engine.setSamples(xs, ys);
    restored.setSamples(xs, ys);
    EXPECT_EQ(restored.suggestIndex(candidates),
              engine.suggestIndex(candidates));
}

TEST(EngineTest, RestoreRejectsFitFlagThatDisagreesWithSamples)
{
    // The GP holds the training set, so a state with samples but no
    // fit (or a fit without samples) cannot be restored faithfully.
    for (const bool fitted : {false, true}) {
        persist::StateWriter w;
        w.putDouble(0.5);
        w.putBool(fitted);
        w.putSize(0);
        const std::size_t n = fitted ? 0 : 1;
        w.putSize(n);
        std::vector<double> targets;
        for (std::size_t i = 0; i < n; ++i) {
            w.putDoubleVec({0.5});
            targets.push_back(1.0);
        }
        w.putDoubleVec(targets);
        persist::StateReader r(w.bytes(), "engine-bad-fit-flag");
        BoEngine engine;
        EXPECT_THROW(engine.restoreState(r), FatalError) << fitted;
    }
}

TEST(CandidatesTest, ConcentratedConfigurationsCoverEveryJob)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    CandidateGenerator gen(space);
    const auto conc = gen.concentratedConfigurations();
    ASSERT_FALSE(conc.empty());
    for (const auto& c : conc)
        EXPECT_TRUE(c.isValidFor(p, 5));
    // Some configuration hands one job a large share of the LLC.
    bool found_heavy = false;
    for (const auto& c : conc)
        for (std::size_t j = 0; j < 5; ++j)
            found_heavy |= (c.units(1, j) >= 7);
    EXPECT_TRUE(found_heavy);
}

} // namespace
} // namespace bo
} // namespace satori
