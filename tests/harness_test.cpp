/**
 * @file
 * Tests for the experiment harness: the runner loop, policy factory,
 * and %-of-oracle comparison reporting.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/parallel.hpp"
#include "satori/harness/report.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/policies/equal_policy.hpp"
#include "satori/sim/monitor.hpp"
#include "satori/sim/offline_eval.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace harness {
namespace {

PlatformSpec
smallPlatform()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    p.addResource(ResourceKind::MemBandwidth, 6);
    return p;
}

workloads::JobMix
smallMix()
{
    return workloads::mixOf({"canneal", "streamcluster", "swaptions"});
}

TEST(ExperimentRunnerTest, AggregatesOverConfiguredDuration)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 5.0;
    opt.warmup = 1.0;
    const ExperimentRunner runner(opt);
    const auto result = runner.run(server, policy, "small");
    EXPECT_EQ(result.policy_name, "Equal");
    EXPECT_EQ(result.mix_label, "small");
    // 50 intervals total, 10 in warm-up.
    EXPECT_EQ(result.throughput_stats.count(), 40u);
    EXPECT_GT(result.mean_throughput, 0.0);
    EXPECT_GT(result.mean_fairness, 0.0);
    EXPECT_LE(result.mean_fairness, 1.0);
    EXPECT_NEAR(result.mean_objective,
                0.5 * result.mean_throughput +
                    0.5 * result.mean_fairness,
                1e-12);
    EXPECT_NEAR(server.now(), 5.0, 1e-9);
}

TEST(ExperimentRunnerTest, WorstJobIsMinimumOfJobMeans)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 5.0;
    const ExperimentRunner runner(opt);
    const auto result = runner.run(server, policy, "");
    ASSERT_EQ(result.job_mean_speedups.size(), 3u);
    double min = 1.0;
    for (double s : result.job_mean_speedups)
        min = std::min(min, s);
    EXPECT_DOUBLE_EQ(result.worst_job_speedup, min);
}

TEST(ExperimentRunnerTest, SeriesRecordedOnRequest)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 3.0;
    opt.warmup = 0.0;
    opt.record_series = true;
    const ExperimentRunner runner(opt);
    const auto result = runner.run(server, policy, "");
    EXPECT_EQ(result.throughput_series.size(), 30u);
    EXPECT_EQ(result.fairness_series.size(), 30u);
}

TEST(ExperimentRunnerTest, OnIntervalHookSeesEveryInterval)
{
    auto server = makeServer(smallPlatform(), smallMix());
    policies::EqualPartitionPolicy policy(server.platform(), 3);
    ExperimentOptions opt;
    opt.duration = 2.0;
    int calls = 0;
    opt.on_interval = [&](const sim::IntervalObservation& obs, double t,
                          double f) {
        ++calls;
        EXPECT_GT(obs.time, 0.0);
        EXPECT_GE(t, 0.0);
        EXPECT_GE(f, 0.0);
    };
    (void)ExperimentRunner(opt).run(server, policy, "");
    EXPECT_EQ(calls, 20);
}

TEST(PolicyFactoryTest, AllNamesConstruct)
{
    auto server = makeServer(smallPlatform(), smallMix());
    for (const auto& name :
         {"Equal", "Random", "dCAT", "CoPart", "PARTIES", "SATORI",
          "SATORI-static", "Throughput-SATORI", "Fairness-SATORI",
          "Balanced-Oracle", "Throughput-Oracle", "Fairness-Oracle"}) {
        auto policy = makePolicy(name, server);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
    }
    EXPECT_THROW(makePolicy("Quantum", server), FatalError);
}

TEST(PolicyFactoryTest, OraclesMaximizeTheObjectiveMetrics)
{
    // Every %-of-oracle score divides by the Balanced Oracle, so under
    // a non-default objective it must maximize that objective's
    // metrics rather than the default sum-IPS + Jain.
    auto server = makeServer(smallPlatform(), smallMix());
    sim::PerfMonitor monitor(server);
    const sim::IntervalObservation obs = monitor.observe();
    const std::vector<std::size_t> sig = server.phaseSignature();

    OfflineEvalOptions metrics;
    metrics.tmetric = ThroughputMetric::GeomeanSpeedup;
    metrics.fmetric = FairnessMetric::OneMinusCov;
    const Configuration expected =
        OfflineEvaluator(server, metrics).bestFor(sig, 0.5, 0.5).config;
    ASSERT_FALSE(expected ==
                 OfflineEvaluator(server).bestFor(sig, 0.5, 0.5).config);

    core::SatoriOptions sopt;
    sopt.objective = core::ObjectiveSpec(ThroughputMetric::GeomeanSpeedup,
                                         FairnessMetric::OneMinusCov);
    auto oracle = makePolicy("Balanced-Oracle", server, sopt);
    EXPECT_TRUE(oracle->decide(obs) == expected);
}

TEST(PolicyFactoryTest, ComparisonSetMatchesPaperFigure)
{
    const auto names = comparisonPolicyNames();
    EXPECT_EQ(names, (std::vector<std::string>{"Random", "dCAT",
                                               "CoPart", "PARTIES",
                                               "SATORI"}));
    EXPECT_EQ(satoriVariantNames().size(), 4u);
}

TEST(ComparePoliciesTest, NormalizesAgainstBalancedOracle)
{
    ExperimentOptions opt;
    opt.duration = 8.0;
    const MixComparison comp = comparePolicies(
        smallPlatform(), smallMix(), {"Equal", "Random"}, opt, 42);
    EXPECT_EQ(comp.scores.size(), 2u);
    EXPECT_GT(comp.oracle.mean_throughput, 0.0);
    for (const auto& s : comp.scores) {
        EXPECT_GT(s.throughput_pct, 0.0);
        EXPECT_GT(s.fairness_pct, 0.0);
        EXPECT_NEAR(s.throughput_pct,
                    s.result.mean_throughput /
                        comp.oracle.mean_throughput,
                    1e-12);
    }
    EXPECT_NO_THROW((void)comp.score("Equal"));
    EXPECT_THROW((void)comp.score("SATORI"), FatalError);
}

TEST(ComparePoliciesTest, AggregateHelpers)
{
    ExperimentOptions opt;
    opt.duration = 6.0;
    std::vector<MixComparison> comps;
    comps.push_back(comparePolicies(smallPlatform(), smallMix(),
                                    {"Equal"}, opt, 1));
    comps.push_back(comparePolicies(smallPlatform(), smallMix(),
                                    {"Equal"}, opt, 2));
    const double t = meanThroughputPct(comps, "Equal");
    const double f = meanFairnessPct(comps, "Equal");
    const double w = meanWorstJobPct(comps, "Equal");
    EXPECT_GT(t, 0.0);
    EXPECT_GT(f, 0.0);
    EXPECT_GT(w, 0.0);
    EXPECT_NEAR(t,
                (comps[0].score("Equal").throughput_pct +
                 comps[1].score("Equal").throughput_pct) /
                    2.0,
                1e-12);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    for (const std::size_t workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.workerCount(), workers);
        const std::size_t count = 100;
        std::vector<int> hits(count, 0);
        pool.forEachIndex(count,
                          [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i], 1) << i;
        // The pool is reusable for further batches.
        pool.forEachIndex(count,
                          [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i], 2) << i;
        pool.forEachIndex(0, [&](std::size_t) { ADD_FAILURE(); });
    }
}

TEST(ThreadPoolTest, FirstExceptionPropagatesToCaller)
{
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.forEachIndex(50,
                          [](std::size_t i) {
                              if (i == 7)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // Still usable after a failed batch.
    std::atomic<int> ran{0};
    pool.forEachIndex(10, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelForTest, SerialAndPooledAgree)
{
    std::vector<std::size_t> serial(64, 0);
    parallelFor(64, 1, [&](std::size_t i) { serial[i] = i * i; });
    std::vector<std::size_t> pooled(64, 0);
    parallelFor(64, 4, [&](std::size_t i) { pooled[i] = i * i; });
    EXPECT_EQ(serial, pooled);
}

TEST(ParallelForTest, ParallelComparisonsBitIdenticalToSerial)
{
    // The determinism contract the benches rely on: parallelFor over
    // comparePolicies, one result slot per mix with its seed derived
    // from the index, gives bitwise the same scores at every thread
    // count - SATORI's GP and controller included.
    ExperimentOptions opt;
    opt.duration = 3.0;
    const std::vector<workloads::JobMix> mixes = {
        smallMix(),
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate"}),
        workloads::mixOf({"freqmine", "streamcluster", "swaptions"})};
    auto compare = [&](std::size_t threads) {
        std::vector<MixComparison> out(mixes.size());
        parallelFor(mixes.size(), threads, [&](std::size_t i) {
            out[i] = comparePolicies(smallPlatform(), mixes[i],
                                     {"SATORI"}, opt, 5 + i);
        });
        return out;
    };
    const auto serial = compare(1);
    const auto parallel = compare(4);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const PolicyScore& s = serial[i].score("SATORI");
        const PolicyScore& p = parallel[i].score("SATORI");
        EXPECT_EQ(std::memcmp(&s.throughput_pct, &p.throughput_pct,
                              sizeof(double)),
                  0)
            << i;
        EXPECT_EQ(std::memcmp(&s.fairness_pct, &p.fairness_pct,
                              sizeof(double)),
                  0)
            << i;
        EXPECT_EQ(std::memcmp(&s.result.mean_objective,
                              &p.result.mean_objective, sizeof(double)),
                  0)
            << i;
    }
}

} // namespace
} // namespace harness
} // namespace satori
