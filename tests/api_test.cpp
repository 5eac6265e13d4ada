/**
 * @file
 * Cross-module API tests: the workflows a downstream user composes
 * from the public headers - custom platforms (including the
 * power-cap extension), loader-defined workloads driving the
 * simulator, and trace-backed experiment pipelines.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "satori/satori.hpp"

namespace satori {
namespace {

TEST(ApiTest, ExtendedTestbedHasFourResources)
{
    const PlatformSpec p = PlatformSpec::extendedTestbed();
    ASSERT_EQ(p.numResources(), 4u);
    EXPECT_GE(p.indexOf(ResourceKind::PowerCap), 0);
    // The 4-D space is much bigger than the 3-D one.
    EXPECT_GT(ConfigurationSpace::sizeOf(p, 5),
              ConfigurationSpace::sizeOf(PlatformSpec::paperTestbed(),
                                         5));
}

TEST(ApiTest, SatoriPartitionsFourResourcesEndToEnd)
{
    const PlatformSpec p = PlatformSpec::extendedTestbed();
    auto server = harness::makeServer(
        p, workloads::mixOf({"canneal", "swaptions", "vips"}), 17);
    core::SatoriController satori(p, server.numJobs());
    sim::PerfMonitor monitor(server);
    for (int i = 0; i < 120; ++i) {
        const auto next = satori.decide(monitor.observe(0.1));
        ASSERT_TRUE(next.isValidFor(p, 3));
        server.setConfiguration(next);
    }
    EXPECT_GT(satori.diagnostics().throughput, 0.0);
}

TEST(ApiTest, PowerStarvationIsVisibleToTheOptimizer)
{
    // On the extended platform, a power-starved configuration must
    // measure worse than the equal partition, so the optimizer has a
    // gradient to follow.
    const PlatformSpec p = PlatformSpec::extendedTestbed();
    auto server = harness::makeServer(
        p, workloads::mixOf({"swaptions", "vips"}), 3, 0.0);
    const auto equal_ips = server.step(0.1);

    Configuration starved = server.configuration();
    const auto power =
        static_cast<std::size_t>(p.indexOf(ResourceKind::PowerCap));
    // Drain job 0's power budget to the minimum.
    while (starved.transferUnit(power, 0, 1)) {
    }
    server.setConfiguration(starved);
    for (int i = 0; i < 8; ++i)
        server.step(0.1); // let the transient decay
    const auto starved_ips = server.step(0.1);
    EXPECT_LT(starved_ips[0], equal_ips[0]);
}

TEST(ApiTest, LoaderWorkloadsDriveTheSimulator)
{
    const auto custom = workloads::parseWorkloadText(
        "workload stress\n"
        "  phase burn\n"
        "    base_ipc 1.2\n"
        "    parallel_fraction 0.9\n"
        "    mpki_one 18\n"
        "    mpki_floor 6\n"
        "    mrc cliff 4.0 0.8\n"
        "    length 5e9\n");
    workloads::JobMix mix;
    mix.label = "stress+vips";
    mix.jobs.push_back(custom[0]);
    mix.jobs.push_back(workloads::workloadByName("vips"));

    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(p, mix, 9);
    core::SatoriController satori(p, 2);
    harness::ExperimentOptions opt;
    opt.duration = 8.0;
    const auto result =
        harness::ExperimentRunner(opt).run(server, satori, mix.label);
    EXPECT_GT(result.mean_throughput, 0.0);
    EXPECT_GT(result.mean_fairness, 0.0);
}

TEST(ApiTest, TraceBackedComparisonPipeline)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    const auto mix = workloads::mixOf({"canneal", "swaptions"});
    auto server = harness::makeServer(p, mix, 31);
    core::SatoriController satori(p, 2);

    const std::string path = "/tmp/satori_api_trace.jsonl";
    harness::TraceWriter trace(path, harness::TraceFormat::JsonLines);
    harness::ExperimentOptions opt;
    opt.duration = 5.0;
    opt.trace = &trace;
    const auto result =
        harness::ExperimentRunner(opt).run(server, satori, mix.label);
    trace.flush();
    EXPECT_EQ(trace.count(), 50u);
    EXPECT_GT(result.mean_objective, 0.0);
    std::remove(path.c_str());
}

TEST(ApiTest, OfflineEvaluatorHandlesFourResources)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    p.addResource(ResourceKind::LlcWays, 4);
    p.addResource(ResourceKind::MemBandwidth, 4);
    p.addResource(ResourceKind::PowerCap, 4);
    auto server = harness::makeServer(
        p, workloads::mixOf({"canneal", "swaptions"}), 13);
    harness::OfflineEvaluator eval(server);
    const std::vector<std::size_t> sig(2, 0);
    const auto& best = eval.bestFor(sig, 0.5, 0.5);
    EXPECT_TRUE(best.exhaustive);
    EXPECT_TRUE(best.config.isValidFor(p, 2));
    EXPECT_GT(best.objective, 0.0);
}

TEST(ApiTest, MakeServerRespectsNoiseParameter)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    const auto mix = workloads::mixOf({"vips"});
    auto noiseless = harness::makeServer(p, mix, 3, 0.0);
    const auto a = noiseless.step(0.1);
    const auto b = noiseless.step(0.1);
    EXPECT_NEAR(a[0], b[0], a[0] * 1e-9);

    auto noisy = harness::makeServer(p, mix, 3, 0.10);
    const auto c = noisy.step(0.1);
    const auto d = noisy.step(0.1);
    EXPECT_GT(std::abs(c[0] - d[0]), c[0] * 1e-4);
}

} // namespace
} // namespace satori
