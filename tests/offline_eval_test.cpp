/**
 * @file
 * Tests for the offline exhaustive evaluator underpinning the Oracle:
 * correctness against brute-force metric computation, memoization,
 * the strided-search fallback, and a differential test of the
 * odometer enumerator against the per-index unranking loop it
 * replaced.
 */

#include <algorithm>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/perfmodel/perf.hpp"
#include "satori/sim/offline_eval.hpp"
#include "satori/workloads/mixes.hpp"
#include "satori/workloads/suites.hpp"

namespace satori {
namespace sim {
namespace {

PlatformSpec
tinyPlatform()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    p.addResource(ResourceKind::LlcWays, 4);
    return p;
}

sim::SimulatedServer
makeTinyServer()
{
    return harness::makeServer(tinyPlatform(),
                      workloads::mixOf({"canneal", "swaptions"}), 42);
}

TEST(OfflineEvalTest, MetricsMatchManualComputation)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const Configuration c =
        Configuration::equalPartition(server.platform(), 2);
    const auto [t, f] = eval.metricsFor(c, sig);

    const auto ips = server.evaluateIps(c, sig);
    std::vector<Ips> iso;
    for (std::size_t j = 0; j < 2; ++j)
        iso.push_back(server.isolationIpsAt(j, 0));
    EXPECT_NEAR(t, normalizedThroughput(ThroughputMetric::SumIps, ips,
                                        iso),
                1e-12);
    EXPECT_NEAR(f, normalizedFairness(FairnessMetric::JainIndex,
                                      speedups(ips, iso)),
                1e-12);
}

TEST(OfflineEvalTest, BestForIsTrulyOptimal)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    EXPECT_TRUE(best.exhaustive);

    // Brute-force the tiny space by hand and compare.
    const ConfigurationSpace& space = eval.space();
    double manual_best = -1.0;
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        const auto [t, f] = eval.metricsFor(space.at(i), sig);
        manual_best = std::max(manual_best, 0.5 * t + 0.5 * f);
    }
    EXPECT_NEAR(best.objective, manual_best, 1e-9);
}

TEST(OfflineEvalTest, WeightExtremesSelectTheRightCorners)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& t_opt = eval.bestFor(sig, 1.0, 0.0);
    const auto& f_opt = eval.bestFor(sig, 0.0, 1.0);
    // The throughput oracle can't have lower throughput than the
    // fairness oracle and vice versa.
    EXPECT_GE(t_opt.throughput, f_opt.throughput - 1e-12);
    EXPECT_GE(f_opt.fairness, t_opt.fairness - 1e-12);
    EXPECT_NEAR(t_opt.objective, t_opt.throughput, 1e-12);
    EXPECT_NEAR(f_opt.objective, f_opt.fairness, 1e-12);
}

TEST(OfflineEvalTest, MemoizationAvoidsRepeatSearches)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    eval.bestFor(sig, 0.5, 0.5);
    EXPECT_EQ(eval.searchesPerformed(), 1u);
    eval.bestFor(sig, 0.5, 0.5);
    EXPECT_EQ(eval.searchesPerformed(), 1u); // memo hit
    eval.bestFor(sig, 1.0, 0.0);
    EXPECT_EQ(eval.searchesPerformed(), 2u); // new weights
    std::vector<std::size_t> other_sig(server.numJobs(), 1);
    eval.bestFor(other_sig, 0.5, 0.5);
    EXPECT_EQ(eval.searchesPerformed(), 3u); // new phase signature
}

TEST(OfflineEvalTest, StridedSearchFlagsNonExhaustive)
{
    auto server = makeTinyServer();
    OfflineEvalOptions opt;
    opt.max_evals = 3; // force striding on the tiny space
    OfflineEvaluator eval(server, opt);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    EXPECT_FALSE(best.exhaustive);
    EXPECT_TRUE(
        best.config.isValidFor(server.platform(), server.numJobs()));
}

TEST(OfflineEvalTest, BestConfigBeatsEqualPartition)
{
    auto server = makeTinyServer();
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    const auto [t, f] = eval.metricsFor(
        Configuration::equalPartition(server.platform(), 2), sig);
    EXPECT_GE(best.objective, 0.5 * t + 0.5 * f - 1e-12);
}

TEST(OfflineEvalTest, PaperScaleSearchCompletesQuickly)
{
    // 5 jobs on the paper platform: ~3.3M configurations. The tabled
    // search must stay well under a second.
    auto server = harness::makeServer(
        PlatformSpec::paperTestbed(),
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"}),
        42);
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    EXPECT_TRUE(best.exhaustive);
    EXPECT_GT(best.objective, 0.0);
}

TEST(OfflineEvalTest, ZeroMaxEvalsIsFatal)
{
    auto server = makeTinyServer();
    OfflineEvalOptions opt;
    opt.max_evals = 0;
    EXPECT_THROW(OfflineEvaluator(server, opt), FatalError);
}

// --- Differential test: odometer enumerator vs unranking reference ---

/** Per-job IPS tables, built exactly as the evaluator builds them. */
struct ReferenceTables
{
    std::vector<std::vector<double>> ips;
    std::vector<std::size_t> strides;
    std::vector<Ips> isolation;
    double isolation_sum = 0.0;
};

ReferenceTables
referenceTables(const sim::SimulatedServer& server,
                const std::vector<std::size_t>& phase_signature)
{
    const PlatformSpec& platform = server.platform();
    const std::size_t num_jobs = server.numJobs();
    const std::size_t num_res = platform.numResources();

    ReferenceTables t;
    std::vector<int> dims(num_res);
    t.strides.assign(num_res, 0);
    std::size_t table_size = 1;
    for (std::size_t r = 0; r < num_res; ++r) {
        dims[r] = platform.units(r) - static_cast<int>(num_jobs) + 1;
        t.strides[r] = table_size;
        table_size *= static_cast<std::size_t>(dims[r]);
    }

    t.ips.assign(num_jobs, std::vector<double>(table_size, 0.0));
    Configuration scratch(num_jobs, std::vector<int>(num_res * num_jobs, 1));
    for (std::size_t j = 0; j < num_jobs; ++j) {
        std::vector<int> units(num_res, 1);
        for (std::size_t flat = 0; flat < table_size; ++flat) {
            for (std::size_t r = 0; r < num_res; ++r)
                scratch.units(r, j) = units[r];
            const auto view = server.allocationView(scratch, j);
            const auto& phase =
                server.job(j).profile().phases.at(phase_signature[j]);
            t.ips[j][flat] =
                perfmodel::evaluatePhase(phase, server.machine(), view)
                    .ips;
            for (std::size_t r = 0; r < num_res; ++r) {
                if (units[r] < dims[r]) {
                    ++units[r];
                    break;
                }
                units[r] = 1;
            }
        }
        for (std::size_t r = 0; r < num_res; ++r)
            scratch.units(r, j) = 1;
    }

    t.isolation.resize(num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j) {
        t.isolation[j] = server.isolationIpsAt(j, phase_signature[j]);
        t.isolation_sum += t.isolation[j];
    }
    return t;
}

/**
 * The scoring loop the odometer replaced: unrank every visited index
 * on its own (the mixed-radix split of ConfigurationSpace::at(), each
 * digit selecting a resource row that CompositionSpace::at() wrote
 * once up front) into one scratch configuration, look each job up in
 * its table, and copy the configuration on every improvement.
 */
OracleResult
referenceBestFor(const sim::SimulatedServer& server,
                 const OfflineEvalOptions& options,
                 const std::vector<std::size_t>& phase_signature,
                 double w_t, double w_f)
{
    const ReferenceTables tables = referenceTables(server, phase_signature);
    const std::size_t num_jobs = server.numJobs();
    const std::size_t num_res = server.platform().numResources();

    // rows[r][c]: the c-th composition of resource r's units.
    std::vector<std::vector<std::vector<int>>> rows(num_res);
    std::uint64_t total = 1;
    for (std::size_t r = 0; r < num_res; ++r) {
        const CompositionSpace space(server.platform().units(r),
                                     static_cast<int>(num_jobs));
        rows[r].assign(space.size(), std::vector<int>(num_jobs));
        for (std::uint64_t c = 0; c < space.size(); ++c)
            space.at(c, rows[r][c]);
        total *= space.size();
    }

    const std::uint64_t stride =
        total <= options.max_evals
            ? 1
            : (total + options.max_evals - 1) / options.max_evals;

    OracleResult best;
    best.objective = -1.0;
    best.exhaustive = (stride == 1);

    const bool fast_metrics =
        options.tmetric == ThroughputMetric::SumIps &&
        options.fmetric == FairnessMetric::JainIndex;

    std::vector<double> spd(num_jobs);
    std::vector<Ips> ips_vec(num_jobs);
    Configuration config(num_jobs, std::vector<int>(num_res * num_jobs));
    for (std::uint64_t idx = 0; idx < total; idx += stride) {
        // Resource 0 is the most significant digit.
        std::uint64_t rest = idx;
        for (std::size_t r = num_res; r-- > 0;) {
            const std::vector<int>& row = rows[r][rest % rows[r].size()];
            std::copy(row.begin(), row.end(),
                      config.resourceRow(r).begin());
            rest /= rows[r].size();
        }
        double sum_ips = 0.0;
        for (std::size_t j = 0; j < num_jobs; ++j) {
            std::size_t flat = 0;
            for (std::size_t r = 0; r < num_res; ++r) {
                flat += static_cast<std::size_t>(config.units(r, j) - 1) *
                        tables.strides[r];
            }
            const double ips = tables.ips[j][flat];
            ips_vec[j] = ips;
            sum_ips += ips;
            spd[j] = ips / tables.isolation[j];
        }
        double thr, fair;
        if (fast_metrics) {
            double m = 0.0;
            for (double s : spd)
                m += s;
            m /= static_cast<double>(num_jobs);
            double ss = 0.0;
            for (double s : spd)
                ss += (s - m) * (s - m);
            const double var = ss / static_cast<double>(num_jobs);
            const double cov2 = m > 0.0 ? var / (m * m) : 0.0;
            fair = 1.0 / (1.0 + cov2);
            thr = std::min(sum_ips / tables.isolation_sum /
                               colocationThroughputScale(num_jobs),
                           1.0);
        } else {
            thr = normalizedThroughput(options.tmetric, ips_vec,
                                       tables.isolation);
            fair = normalizedFairness(options.fmetric, spd);
        }

        const double objective = w_t * thr + w_f * fair;
        if (objective > best.objective) {
            best.objective = objective;
            best.throughput = thr;
            best.fairness = fair;
            best.config = config;
        }
    }
    return best;
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Phase signatures: all jobs in phase 0, then staggered phases. */
std::vector<std::vector<std::size_t>>
phaseSignatures(const sim::SimulatedServer& server)
{
    std::vector<std::size_t> first(server.numJobs(), 0);
    std::vector<std::size_t> staggered(server.numJobs(), 0);
    for (std::size_t j = 0; j < server.numJobs(); ++j) {
        staggered[j] =
            (j + 1) % server.job(j).profile().phases.size();
    }
    return {first, staggered};
}

/** The Throughput, Fairness and Balanced Oracle weights. */
const std::pair<double, double> kOracleWeights[] = {
    {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}};

/**
 * Compare bestFor against the reference for every phase signature in
 * @p sigs and Oracle weight pair on @p server; returns the number of
 * searches.
 */
std::size_t
expectMatchesReference(const sim::SimulatedServer& server,
                       const OfflineEvalOptions& options,
                       const std::string& label,
                       const std::vector<std::vector<std::size_t>>& sigs)
{
    OfflineEvaluator eval(server, options);
    std::size_t searches = 0;
    for (const auto& sig : sigs) {
        for (const auto& [w_t, w_f] : kOracleWeights) {
            const OracleResult& got = eval.bestFor(sig, w_t, w_f);
            const OracleResult want =
                referenceBestFor(server, options, sig, w_t, w_f);
            const std::string where = label + " w_t=" +
                                      std::to_string(w_t) +
                                      " sig1=" + std::to_string(sig[1]);
            EXPECT_TRUE(got.config == want.config) << where;
            EXPECT_TRUE(bitEqual(got.objective, want.objective)) << where;
            EXPECT_TRUE(bitEqual(got.throughput, want.throughput))
                << where;
            EXPECT_TRUE(bitEqual(got.fairness, want.fairness)) << where;
            EXPECT_EQ(got.exhaustive, want.exhaustive) << where;
            ++searches;
        }
    }
    return searches;
}

TEST(OfflineEvalTest, EnumeratorMatchesUnrankingReference)
{
    // Every 5-job PARSEC mix on the small testbed (35^3 configs each;
    // rows of 35, so every row ends in a 3-lane tail).
    std::size_t searches = 0;
    for (const auto& mix : workloads::allMixes(workloads::parsecSuite(), 5)) {
        const auto server =
            harness::makeServer(PlatformSpec::smallTestbed(), mix, 42);
        searches += expectMatchesReference(server, {}, mix.label,
                                           phaseSignatures(server));
    }
    EXPECT_EQ(searches, 21u * 2u * 3u);

    const auto parsec5 =
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"});
    const auto small =
        harness::makeServer(PlatformSpec::smallTestbed(), parsec5, 42);
    const auto paper =
        harness::makeServer(PlatformSpec::paperTestbed(), parsec5, 42);

    // The shipped shape: an exhaustive paper-testbed search (3.3M
    // configs, rows of 126 with a 2-lane tail) for each Oracle kind.
    (void)expectMatchesReference(paper, {}, "paper/exhaustive",
                                 {phaseSignatures(paper).front()});

    // Strided searches: the odometer carries by more than one digit
    // step. Paper testbed at stride 34; the 4-resource extended
    // testbed (117M configs) at a stride of several hundred.
    OfflineEvalOptions strided;
    strided.max_evals = 100003;
    (void)expectMatchesReference(paper, strided, "paper/stride",
                                 phaseSignatures(paper));
    strided.max_evals = 200000;
    const auto extended =
        harness::makeServer(PlatformSpec::extendedTestbed(), parsec5, 42);
    (void)expectMatchesReference(extended, strided, "extended/stride",
                                 phaseSignatures(extended));

    // Every (throughput, fairness) metric pair, and the strided path
    // under a generic pair.
    for (const ThroughputMetric t :
         {ThroughputMetric::SumIps, ThroughputMetric::GeomeanSpeedup,
          ThroughputMetric::HarmonicSpeedup}) {
        for (const FairnessMetric f :
             {FairnessMetric::JainIndex, FairnessMetric::OneMinusCov}) {
            OfflineEvalOptions metrics;
            metrics.tmetric = t;
            metrics.fmetric = f;
            const std::string label =
                "small/t" + std::to_string(static_cast<int>(t)) + "/f" +
                std::to_string(static_cast<int>(f));
            (void)expectMatchesReference(small, metrics, label,
                                         phaseSignatures(small));
        }
    }
    OfflineEvalOptions generic;
    generic.tmetric = ThroughputMetric::HarmonicSpeedup;
    generic.fmetric = FairnessMetric::OneMinusCov;
    generic.max_evals = 100003;
    (void)expectMatchesReference(paper, generic, "paper/stride/generic",
                                 phaseSignatures(paper));
}

TEST(OfflineEvalTest, MemoKeepsWeightsApartBelowAMillionth)
{
    // (0.5 + 4e-7, 0.5 - 4e-7) rounds to the same millionths as
    // (0.5, 0.5) but is a different objective: it must search again
    // and report its own weighted objective, bit for bit.
    const auto server = harness::makeServer(
        PlatformSpec::smallTestbed(),
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"}),
        42);
    OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(server.numJobs(), 0);
    (void)eval.bestFor(sig, 0.5, 0.5);
    const double w_t = 0.5 + 4e-7;
    const double w_f = 0.5 - 4e-7;
    const OracleResult& near = eval.bestFor(sig, w_t, w_f);
    EXPECT_EQ(eval.searchesPerformed(), 2u);
    EXPECT_TRUE(bitEqual(near.objective,
                         w_t * near.throughput + w_f * near.fairness));
    (void)eval.bestFor(sig, w_t, w_f);
    EXPECT_EQ(eval.searchesPerformed(), 2u); // exact repeat: memo hit
}

} // namespace
} // namespace sim
} // namespace satori
