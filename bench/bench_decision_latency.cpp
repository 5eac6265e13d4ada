/**
 * @file
 * Decision-loop latency microbenchmark: per-interval proxy-model
 * update (fit) and acquisition-maximization cost as the training set
 * grows, measured across the engine's decision paths:
 *
 *   full - the pre-optimization behavior (EngineOptions::
 *          incremental = false: every update refactorizes from
 *          scratch, O(n^3)) with the acquisition loop predicting one
 *          candidate at a time, exactly as suggestIndex() used to;
 *   fast - the incremental default (rank-1 Cholesky appends, O(n^2))
 *          with batched suggestIndex(), on the same synthetic
 *          10-dim inputs and 64 candidates as full;
 *   prod - the fast path at the shape the shipped controller runs:
 *          5 jobs x 3 resources = 15 dims, the controller's default
 *          EngineOptions, n in {16, 32, 64} samples refit through
 *          setSamples() as the controller does, and one round of
 *          CandidateGenerator output (~340 candidates).
 *
 * Every cell builds a fresh engine per trial and times one decision
 * interval at exactly n samples. full and fast produce bit-identical
 * decisions (perf_path_test pins it).
 *
 * Emits BENCH_decision_latency.json; --check enforces, against the
 * checked-in baseline:
 *   - fit p95 speedup (full/fast at n=200)  >= 5x   (machine-free)
 *   - every measured (path, n, candidates) present in the baseline -
 *     missing keys are listed and fail the check, so growing the
 *     matrix forces a baseline regeneration instead of silently
 *     skipping the new cells
 *   - fast/prod total p95 within 3x of baseline per cell
 *
 * Regenerate the baseline from a Release build with
 *   build/bench/bench_decision_latency --full \
 *       --json BENCH_decision_latency.json
 *
 * Timing uses obs::steadyNowNs(), the library's one sanctioned
 * steady-clock entry point; nothing measured here feeds back into
 * decisions.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "satori/satori.hpp"
#include "satori/obs/tracer.hpp"

using namespace satori;

namespace {

/** Input dimensionality of the synthetic full/fast cells. */
constexpr std::size_t kDims = 10;

/** Jobs in the production-shape cells (x 3 resources = 15 dims). */
constexpr std::size_t kProdJobs = 5;

struct PathStats
{
    std::vector<double> fit_ns;
    std::vector<double> acq_ns;
    std::vector<double> total_ns;
};

/** p50/p95 summary of one (path, n, candidates) cell. */
struct Point
{
    std::string path;
    std::size_t n = 0;
    std::size_t candidates = 0;
    double fit_p50 = 0.0, fit_p95 = 0.0;
    double acq_p50 = 0.0, acq_p95 = 0.0;
    double total_p50 = 0.0, total_p95 = 0.0;
};

/** One cell of the measurement matrix. */
struct Cell
{
    const char* path;
    std::size_t n;
    std::size_t candidates; ///< 0 for prod: one CandidateGenerator round.
};

const Cell kCells[] = {
    // Synthetic cells: the machine-independent full/fast speedup gate.
    {"full", 25, 64},
    {"full", 50, 64},
    {"full", 100, 64},
    {"full", 200, 64},
    {"fast", 25, 64},
    {"fast", 50, 64},
    {"fast", 100, 64},
    {"fast", 200, 64},
    // The shipped controller's shape (the GP never exceeds 64
    // samples there).
    {"prod", 16, 0},
    {"prod", 32, 0},
    {"prod", 64, 0},
};

RealVec
randomInput(Rng& rng)
{
    RealVec x(kDims);
    for (double& v : x)
        v = rng.uniform();
    return x;
}

/** Smooth synthetic objective with mild observation noise. */
double
syntheticTarget(const RealVec& x, Rng& rng)
{
    double d2 = 0.0;
    for (const double v : x)
        d2 += (v - 0.5) * (v - 0.5);
    return -d2 + 0.05 * rng.gaussian();
}

/** Training set and candidate set of one trial. */
struct TrialData
{
    std::vector<RealVec> inputs;
    std::vector<double> targets;
    std::vector<RealVec> candidates;
};

/** n random 10-dim samples and @p candidates random candidates. */
TrialData
syntheticData(const Cell& cell, std::uint64_t seed)
{
    Rng rng(seed);
    TrialData d;
    for (std::size_t i = 0; i < cell.n; ++i) {
        d.inputs.push_back(randomInput(rng));
        d.targets.push_back(syntheticTarget(d.inputs.back(), rng));
    }
    for (std::size_t c = 0; c < cell.candidates; ++c)
        d.candidates.push_back(randomInput(rng));
    return d;
}

/**
 * n random configurations of the 5-job paper testbed as training
 * samples, scored synthetically, plus one CandidateGenerator round
 * around the equal partition. The candidate round uses a seed fixed
 * per cell so its size - part of the cell key - is stable.
 */
TrialData
productionData(const Cell& cell, std::uint64_t seed)
{
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const ConfigurationSpace space(platform, kProdJobs);
    Rng rng(seed);
    TrialData d;
    for (std::size_t i = 0; i < cell.n; ++i) {
        d.inputs.push_back(space.sample(rng).normalizedVector());
        d.targets.push_back(syntheticTarget(d.inputs.back(), rng));
    }
    const bo::CandidateGenerator generator(space,
                                           core::SatoriOptions{}.candidates);
    Rng cand_rng(7000 + cell.n);
    for (const Configuration& c : generator.generate(
             Configuration::equalPartition(platform, kProdJobs), cand_rng))
        d.candidates.push_back(c.normalizedVector());
    return d;
}

bo::EngineOptions
engineOptions(const std::string& path)
{
    if (path == "prod")
        return core::SatoriOptions{}.engine;
    bo::EngineOptions opt;
    opt.length_scale_grid.clear(); // isolate the per-update fit cost
    if (path == "full")
        opt.incremental = false;
    return opt;
}

/**
 * One timed decision interval at sample count n: fit the n-th sample
 * and maximize acquisition over the candidate set. The full path
 * emulates the pre-optimization engine exactly: full refit plus one
 * predict() per candidate. The prod path refits through setSamples()
 * with the whole training set, as the controller's per-interval
 * reconstruction does; full and fast append through addSample().
 * Returns the candidate count.
 */
std::size_t
runTrial(const Cell& cell, std::uint64_t seed, PathStats& stats)
{
    const bool full = std::strcmp(cell.path, "full") == 0;
    const bool prod = std::strcmp(cell.path, "prod") == 0;
    const TrialData d =
        prod ? productionData(cell, seed) : syntheticData(cell, seed);

    bo::BoEngine engine(engineOptions(cell.path));
    const std::vector<RealVec> warm(d.inputs.begin(), d.inputs.end() - 1);
    const std::vector<double> warm_y(d.targets.begin(),
                                     d.targets.end() - 1);
    engine.setSamples(warm, warm_y);

    const std::uint64_t t0 = obs::steadyNowNs();
    if (prod)
        engine.setSamples(d.inputs, d.targets);
    else
        engine.addSample(d.inputs.back(), d.targets.back());
    const std::uint64_t t1 = obs::steadyNowNs();
    std::size_t pick = 0;
    if (!full) {
        pick = engine.suggestIndex(d.candidates);
    } else {
        // The pre-optimization acquisition loop: one GP solve per
        // candidate.
        const double best = engine.bestObserved();
        double best_score = -1e300;
        for (std::size_t c = 0; c < d.candidates.size(); ++c) {
            const auto pred = engine.predict(d.candidates[c]);
            const double score = bo::acquisition(
                engine.options().acquisition, pred, best,
                engine.options().xi, engine.options().ucb_beta);
            if (score > best_score) {
                best_score = score;
                pick = c;
            }
        }
    }
    const std::uint64_t t2 = obs::steadyNowNs();
    // Keep the optimizer honest about the chosen index.
    if (pick >= d.candidates.size())
        std::abort();

    stats.fit_ns.push_back(static_cast<double>(t1 - t0));
    stats.acq_ns.push_back(static_cast<double>(t2 - t1));
    stats.total_ns.push_back(static_cast<double>(t2 - t0));
    return d.candidates.size();
}

Point
summarize(const Cell& cell, std::size_t candidates, const PathStats& s)
{
    Point p;
    p.path = cell.path;
    p.n = cell.n;
    p.candidates = candidates;
    p.fit_p50 = percentile(s.fit_ns, 50.0);
    p.fit_p95 = percentile(s.fit_ns, 95.0);
    p.acq_p50 = percentile(s.acq_ns, 50.0);
    p.acq_p95 = percentile(s.acq_ns, 95.0);
    p.total_p50 = percentile(s.total_ns, 50.0);
    p.total_p95 = percentile(s.total_ns, 95.0);
    return p;
}

void
writeJson(const std::string& file_path, const std::vector<Point>& points,
          double fit_speedup, double total_speedup)
{
    std::ofstream out(file_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", file_path.c_str());
        std::exit(1);
    }
    out << "{\n";
    out << "  \"bench\": \"decision_latency\",\n";
    out << "  \"dims\": " << kDims << ",\n";
    out << "  \"prod_dims\": " << kProdJobs * 3 << ",\n";
    out << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        char line[640];
        std::snprintf(
            line, sizeof(line),
            "    {\"path\": \"%s\", \"n\": %zu, \"candidates\": %zu, "
            "\"fit_p50_ns\": %.0f, \"fit_p95_ns\": %.0f, "
            "\"acq_p50_ns\": %.0f, \"acq_p95_ns\": %.0f, "
            "\"total_p50_ns\": %.0f, \"total_p95_ns\": %.0f}%s\n",
            p.path.c_str(), p.n, p.candidates, p.fit_p50, p.fit_p95,
            p.acq_p50, p.acq_p95, p.total_p50, p.total_p95,
            i + 1 < points.size() ? "," : "");
        out << line;
    }
    out << "  ],\n";
    char tail[240];
    std::snprintf(tail, sizeof(tail),
                  "  \"speedup_p95_fit_at_max_n\": %.2f,\n"
                  "  \"speedup_p95_total_at_max_n\": %.2f\n",
                  fit_speedup, total_speedup);
    out << tail;
    out << "}\n";
}

/**
 * Minimal reader for the flat JSON this bench writes: total_p95_ns
 * keyed by "path/n/candidates". No general JSON parsing - the format
 * is one point per line with fixed key order. Lines missing any of
 * the three key fields are malformed and abort the check rather than
 * being skipped.
 */
std::map<std::string, double>
readBaselineTotalP95(const std::string& file_path)
{
    std::ifstream in(file_path);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n",
                     file_path.c_str());
        std::exit(1);
    }
    std::map<std::string, double> out;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t p_at = line.find("\"path\": \"");
        if (p_at == std::string::npos)
            continue;
        const std::size_t p_start = p_at + 9;
        const std::size_t p_end = line.find('"', p_start);
        const std::size_t n_at = line.find("\"n\": ");
        const std::size_t c_at = line.find("\"candidates\": ");
        const std::size_t t_at = line.find("\"total_p95_ns\": ");
        if (p_end == std::string::npos || n_at == std::string::npos ||
            c_at == std::string::npos || t_at == std::string::npos) {
            std::fprintf(stderr,
                         "malformed baseline point in %s: %s\n",
                         file_path.c_str(), line.c_str());
            std::exit(1);
        }
        const std::string path = line.substr(p_start, p_end - p_start);
        const unsigned long n =
            std::strtoul(line.c_str() + n_at + 5, nullptr, 10);
        const unsigned long c =
            std::strtoul(line.c_str() + c_at + 14, nullptr, 10);
        const double total_p95 =
            std::strtod(line.c_str() + t_at + 16, nullptr);
        out[path + "/" + std::to_string(n) + "/" + std::to_string(c)] =
            total_p95;
    }
    return out;
}

std::string
cellKey(const Point& p)
{
    return p.path + "/" + std::to_string(p.n) + "/" +
           std::to_string(p.candidates);
}

} // namespace

int
main(int argc, char** argv)
{
    bool full_run = false;
    std::string json_path;
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            full_run = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 &&
                   i + 1 < argc) {
            check_path = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--full] [--json PATH] [--check BASELINE]\n"
                "  --full           more trials per point\n"
                "  --json PATH      write the results as JSON\n"
                "  --check BASELINE fail on missing baseline cells, >3x\n"
                "                   p95 regression, or <5x fit speedup\n",
                argv[0]);
            return 2;
        }
    }

    std::printf("Decision-loop latency across engine paths (full, "
                "fast: %zu dims;\nprod: %zu dims, CandidateGenerator "
                "candidates)\n\n",
                kDims, kProdJobs * 3);

    std::vector<Point> points;
    for (const Cell& cell : kCells) {
        const std::size_t trials = full_run ? 60 : 25;
        const std::size_t warmup = 2;
        PathStats stats;
        PathStats discard;
        std::size_t candidates = 0;
        for (std::size_t t = 0; t < warmup + trials; ++t)
            candidates =
                runTrial(cell, 1000 + t, t < warmup ? discard : stats);
        points.push_back(summarize(cell, candidates, stats));
    }

    TablePrinter table({"path", "n", "cands", "fit p50 us",
                        "fit p95 us", "acq p50 us", "acq p95 us",
                        "total p95 us"});
    for (const Point& p : points) {
        table.addRow({p.path, std::to_string(p.n),
                      std::to_string(p.candidates),
                      TablePrinter::num(p.fit_p50 / 1e3, 1),
                      TablePrinter::num(p.fit_p95 / 1e3, 1),
                      TablePrinter::num(p.acq_p50 / 1e3, 1),
                      TablePrinter::num(p.acq_p95 / 1e3, 1),
                      TablePrinter::num(p.total_p95 / 1e3, 1)});
    }
    table.print();

    // Machine-independent full/fast ratio at the largest shared n.
    constexpr std::size_t kRatioN = 200;
    double full_fit_p95 = 0.0, fast_fit_p95 = 0.0;
    double full_total_p95 = 0.0, fast_total_p95 = 0.0;
    for (const Point& p : points) {
        if (p.n != kRatioN || p.candidates != 64)
            continue;
        if (p.path == "full") {
            full_fit_p95 = p.fit_p95;
            full_total_p95 = p.total_p95;
        } else if (p.path == "fast") {
            fast_fit_p95 = p.fit_p95;
            fast_total_p95 = p.total_p95;
        }
    }
    const double fit_speedup = full_fit_p95 / fast_fit_p95;
    const double total_speedup = full_total_p95 / fast_total_p95;
    std::printf("\nfit p95 speedup at n=%zu: %.1fx (target >= 5x); "
                "end-to-end: %.1fx\n",
                kRatioN, fit_speedup, total_speedup);

    if (!json_path.empty()) {
        writeJson(json_path, points, fit_speedup, total_speedup);
        std::printf("wrote %s\n", json_path.c_str());
    }

    bool ok = true;
    if (!check_path.empty()) {
        if (fit_speedup < 5.0) {
            std::printf("CHECK FAIL: fit speedup %.1fx < 5x\n",
                        fit_speedup);
            ok = false;
        }
        const auto baseline = readBaselineTotalP95(check_path);
        for (const Point& p : points) {
            if (p.path == "full")
                continue; // emulation cells regression-gate via ratio
            const auto it = baseline.find(cellKey(p));
            if (it == baseline.end()) {
                std::printf("CHECK FAIL: baseline %s has no cell "
                            "%s - regenerate the baseline to cover "
                            "the current matrix\n",
                            check_path.c_str(), cellKey(p).c_str());
                ok = false;
                continue;
            }
            // 3x, not 2x: the sub-100 us cells sit close to shared-
            // runner timer jitter, and losing an optimization is far
            // coarser than that.
            if (p.total_p95 > 3.0 * it->second) {
                std::printf("CHECK FAIL: %s total p95 %.0f ns > 3x "
                            "baseline %.0f ns\n",
                            cellKey(p).c_str(), p.total_p95,
                            it->second);
                ok = false;
            }
        }
        if (ok)
            std::printf("CHECK PASS: >= 5x fit speedup, all cells "
                        "within 3x of baseline\n");
    }
    return ok ? 0 : 1;
}
