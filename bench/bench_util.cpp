#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace satori {
namespace bench {

BenchOptions
parseArgs(int argc, char** argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            opt.full = true;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opt.csv = true;
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            opt.threads =
                static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--full] [--csv] [--threads N]\n"
                         "  --full       paper-scale durations and mix counts\n"
                         "  --csv        export the data as CSV\n"
                         "  --threads N  parallel scenario workers (0 = all\n"
                         "               hardware threads); results are\n"
                         "               identical at every thread count\n",
                         argv[0]);
            std::exit(2);
        }
    }
    return opt;
}

void
banner(const std::string& experiment, const std::string& claim,
       const BenchOptions& options)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("%s\n", claim.c_str());
    std::printf("mode: %s\n",
                options.full ? "--full (paper scale)"
                             : "quick (pass --full for paper scale)");
    std::printf("==============================================================\n");
}

workloads::JobMix
canonicalParsecMix()
{
    return workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                             "freqmine", "streamcluster"});
}

std::vector<harness::MixComparison>
sweepComparisons(const PlatformSpec& platform,
                 const std::vector<workloads::JobMix>& mixes,
                 const std::vector<std::string>& policies,
                 Seconds duration, std::uint64_t seed_base,
                 std::size_t stride, std::size_t threads)
{
    harness::ExperimentOptions opt;
    opt.duration = duration;
    // Pre-compute the strided mix indices so each worker derives its
    // scenario (mix + seed) and output slot purely from its index.
    std::vector<std::size_t> selected;
    for (std::size_t m = 0; m < mixes.size(); m += stride)
        selected.push_back(m);
    std::vector<harness::MixComparison> out(selected.size());
    common::parallelFor(selected.size(), threads, [&](std::size_t i) {
        const std::size_t m = selected[i];
        out[i] = harness::comparePolicies(
            platform, mixes[m], policies, opt,
            seed_base + static_cast<std::uint64_t>(m));
    });
    return out;
}

std::string
pct(double fraction)
{
    return TablePrinter::pct(fraction, 1);
}

} // namespace bench
} // namespace satori
