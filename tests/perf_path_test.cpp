/**
 * @file
 * Pins the decision-loop performance work's determinism contract:
 * the incremental GP update (rank-1 Cholesky appends + batched
 * acquisition) must produce decision traces byte-identical to the
 * full-refit path it replaced, over a real controller run that
 * exercises appends, window trims, settling, and baseline resets.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/harness/trace.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace {

std::string
runWithTrace(const std::string& path, bool incremental,
             const std::vector<std::string>& mix, double duration)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    auto server = harness::makeServer(p, workloads::mixOf(mix), 5);
    core::SatoriOptions options;
    options.engine.incremental = incremental;
    auto policy = harness::makePolicy("SATORI", server, options);

    {
        harness::TraceWriter trace(path, harness::TraceFormat::Csv);
        harness::ExperimentOptions opt;
        opt.duration = duration;
        opt.trace = &trace;
        (void)harness::ExperimentRunner(opt).run(server, *policy, "");
    } // destructor flushes

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The load-bearing test for EngineOptions::incremental: every
 * per-interval decision record (time, chosen config, per-job IPS and
 * speedups, metrics) must match the full-refit path byte for byte.
 * 12 s at 100 ms intervals crosses the baseline-reset period and the
 * GP sample window, so rank-1 appends (with every target
 * re-standardized) and full refits of trimmed training sets both
 * occur.
 */
TEST(PerfPathTest, IncrementalDecisionTraceByteIdenticalToFullRefit)
{
    const std::string fast_path = "/tmp/satori_perf_fast.csv";
    const std::string full_path = "/tmp/satori_perf_full.csv";
    const std::vector<std::string> mix = {"canneal", "swaptions",
                                          "streamcluster"};
    const std::string fast = runWithTrace(fast_path, true, mix, 12.0);
    const std::string full = runWithTrace(full_path, false, mix, 12.0);
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(fast, full);
    std::remove(fast_path.c_str());
    std::remove(full_path.c_str());
}

/** Same contract on a second mix with a shorter, pre-settling run. */
TEST(PerfPathTest, IncrementalTraceMatchesOnSecondMix)
{
    const std::string fast_path = "/tmp/satori_perf_fast2.csv";
    const std::string full_path = "/tmp/satori_perf_full2.csv";
    const std::vector<std::string> mix = {"fluidanimate", "canneal"};
    const std::string fast = runWithTrace(fast_path, true, mix, 5.0);
    const std::string full = runWithTrace(full_path, false, mix, 5.0);
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(fast, full);
    std::remove(fast_path.c_str());
    std::remove(full_path.c_str());
}

} // namespace
} // namespace satori
