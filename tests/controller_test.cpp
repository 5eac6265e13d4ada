/**
 * @file
 * Tests for the SATORI controller (Algorithm 1): decision validity,
 * warm-up seeding, convergence/settling, reactivation, diagnostics,
 * and the goal-mode variants.
 */

#include <gtest/gtest.h>

#include "satori/core/controller.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/sim/monitor.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace core {
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

sim::SimulatedServer
makeSmallServer(std::uint64_t seed = 42)
{
    return harness::makeServer(
        smallPlatform(),
        workloads::mixOf({"canneal", "swaptions", "vips"}), seed);
}

TEST(ControllerTest, AlwaysReturnsValidConfigurations)
{
    auto server = makeSmallServer();
    SatoriController satori(server.platform(), server.numJobs());
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 150; ++i) {
        const auto obs = monitor.observe(0.1);
        const Configuration next = satori.decide(obs);
        ASSERT_TRUE(next.isValidFor(server.platform(), server.numJobs()))
            << "iteration " << i << ": " << next.toString();
        server.setConfiguration(next);
    }
}

TEST(ControllerTest, WarmupEvaluatesSeedsFirst)
{
    auto server = makeSmallServer();
    SatoriController satori(server.platform(), server.numJobs());
    sim::PerfMonitor monitor(server);
    // The first decision after the initial observation must be the
    // first seed: the equal partition.
    const auto obs = monitor.observe(0.1);
    const Configuration first = satori.decide(obs);
    EXPECT_TRUE(first == Configuration::equalPartition(
                             server.platform(), server.numJobs()));
}

TEST(ControllerTest, SettlesOnStaticWorkload)
{
    auto server = makeSmallServer();
    SatoriController satori(server.platform(), server.numJobs());
    sim::PerfMonitor monitor(server);
    bool settled = false;
    for (int i = 0; i < 300 && !settled; ++i) {
        server.setConfiguration(satori.decide(monitor.observe(0.1)));
        settled = satori.diagnostics().settled;
    }
    EXPECT_TRUE(settled) << "controller never settled in 30 s";
}

TEST(ControllerTest, SettlingStopsProxyUpdates)
{
    auto server = makeSmallServer();
    SatoriController satori(server.platform(), server.numJobs());
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 300; ++i)
        server.setConfiguration(satori.decide(monitor.observe(0.1)));
    if (satori.diagnostics().settled)
        EXPECT_DOUBLE_EQ(satori.diagnostics().proxy_change_pct, 0.0);
}

TEST(ControllerTest, DiagnosticsArePopulated)
{
    auto server = makeSmallServer();
    SatoriController satori(server.platform(), server.numJobs());
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 30; ++i)
        server.setConfiguration(satori.decide(monitor.observe(0.1)));
    const SatoriDiagnostics& d = satori.diagnostics();
    EXPECT_GT(d.num_samples, 0u);
    EXPECT_GT(d.throughput, 0.0);
    EXPECT_GT(d.fairness, 0.0);
    EXPECT_GT(d.objective_value, 0.0);
    EXPECT_NEAR(d.weights.w_t + d.weights.w_f, 1.0, 1e-9);
}

TEST(ControllerTest, GoalModeWeights)
{
    auto server = makeSmallServer();
    sim::PerfMonitor monitor(server);
    SatoriOptions t_only;
    t_only.mode = GoalMode::ThroughputOnly;
    SatoriController tc(server.platform(), server.numJobs(), t_only);
    tc.decide(monitor.observe(0.1));
    EXPECT_DOUBLE_EQ(tc.diagnostics().weights.w_t, 1.0);
    EXPECT_DOUBLE_EQ(tc.diagnostics().weights.w_f, 0.0);

    SatoriOptions f_only;
    f_only.mode = GoalMode::FairnessOnly;
    SatoriController fc(server.platform(), server.numJobs(), f_only);
    fc.decide(monitor.observe(0.1));
    EXPECT_DOUBLE_EQ(fc.diagnostics().weights.w_f, 1.0);

    SatoriOptions stat;
    stat.mode = GoalMode::StaticEqual;
    SatoriController sc(server.platform(), server.numJobs(), stat);
    sc.decide(monitor.observe(0.1));
    EXPECT_DOUBLE_EQ(sc.diagnostics().weights.w_t, 0.5);
}

TEST(ControllerTest, VariantNames)
{
    EXPECT_EQ(goalModeName(GoalMode::Balanced), "SATORI");
    EXPECT_EQ(goalModeName(GoalMode::StaticEqual), "SATORI-static");
    EXPECT_EQ(goalModeName(GoalMode::ThroughputOnly),
              "Throughput-SATORI");
    EXPECT_EQ(goalModeName(GoalMode::FairnessOnly), "Fairness-SATORI");
    auto server = makeSmallServer();
    SatoriController satori(server.platform(), server.numJobs());
    EXPECT_EQ(satori.name(), "SATORI");
}

TEST(ControllerTest, ResetForgetsEverything)
{
    auto server = makeSmallServer();
    SatoriController satori(server.platform(), server.numJobs());
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 100; ++i)
        server.setConfiguration(satori.decide(monitor.observe(0.1)));
    satori.reset();
    EXPECT_EQ(satori.diagnostics().num_samples, 0u);
    // First decision after reset is the first seed again.
    const Configuration next = satori.decide(monitor.observe(0.1));
    EXPECT_TRUE(next == Configuration::equalPartition(
                            server.platform(), server.numJobs()));
}

/**
 * Drive the warm-up on the paper testbed and check that it runs the
 * equal partition, then every @p stride-th single-transfer variant of
 * CandidateGenerator::seedConfigurations(), @p expected_seeds in all.
 */
void
expectStrideSubsampledSeeds(const std::vector<std::string>& mix,
                            std::size_t stride, std::size_t expected_seeds)
{
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    auto server = harness::makeServer(platform, workloads::mixOf(mix), 42);
    SatoriOptions o;
    o.resilience = false;
    SatoriController satori(platform, mix.size(), o);
    const std::vector<Configuration> all =
        bo::CandidateGenerator(satori.space(), o.candidates)
            .seedConfigurations();
    std::vector<Configuration> expected{all.front()};
    for (std::size_t i = 1; i < all.size(); i += stride)
        expected.push_back(all[i]);
    ASSERT_EQ(expected.size(), expected_seeds);

    sim::PerfMonitor monitor(server);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const Configuration next = satori.decide(monitor.observe(0.1));
        EXPECT_TRUE(next == expected[i])
            << "warm-up decision " << i << ": " << next.toString()
            << " expected " << expected[i].toString();
        server.setConfiguration(next);
    }
}

TEST(ControllerTest, WarmupRunsStrideSubsampledSeeds)
{
    // 5 jobs: 1 + 24 variants, every 3rd kept -> 9 seeds.
    expectStrideSubsampledSeeds(
        {"blackscholes", "canneal", "fluidanimate", "freqmine",
         "streamcluster"},
        3, 9);
    // 3 jobs: 1 + 12 variants, every 2nd kept -> 7 seeds.
    expectStrideSubsampledSeeds({"canneal", "swaptions", "vips"}, 2, 7);
}

TEST(ControllerTest, WorksOnRestrictedPlatforms)
{
    // Single-resource ablation (Sec. V: SATORI-LLC-only vs dCAT).
    PlatformSpec llc_only;
    llc_only.addResource(ResourceKind::LlcWays, 8);
    auto server = harness::makeServer(
        llc_only, workloads::mixOf({"canneal", "swaptions"}), 7);
    SatoriController satori(llc_only, 2);
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 60; ++i) {
        const auto next = satori.decide(monitor.observe(0.1));
        ASSERT_TRUE(next.isValidFor(llc_only, 2));
        server.setConfiguration(next);
    }
}

TEST(ControllerTest, SingleJobDegenerateCase)
{
    auto server = harness::makeServer(smallPlatform(),
                                      workloads::mixOf({"vips"}), 3);
    SatoriController satori(server.platform(), 1);
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 30; ++i) {
        const auto next = satori.decide(monitor.observe(0.1));
        ASSERT_TRUE(next.isValidFor(server.platform(), 1));
        server.setConfiguration(next);
        // With one job, fairness is trivially 1.
        EXPECT_DOUBLE_EQ(satori.diagnostics().fairness, 1.0);
    }
}

} // namespace
} // namespace core
} // namespace satori
