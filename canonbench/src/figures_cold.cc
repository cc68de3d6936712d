/**
 * @file
 * figures-cold: every figure bench of bench::figureRegistry() except
 * bench_sim_throughput (its cells are wall-clock rates), each at
 * --jobs 4 into a fresh cache directory with --sample-every,
 * --cycle-accounting, --stats-json and --trace-out on. It exercises
 * what model-serial bypasses: the figure layer's payload path, pool
 * parallelism, cache writes, and obs capture and rendering.
 */

#include <filesystem>
#include <map>
#include <sstream>

#include "common.hh"
#include "requests.hh"

#include "cache/key.hh"
#include "cache/store.hh"
#include "engine/engine.hh"
#include "figures.hh"

namespace canonbench
{

namespace
{

namespace fs = std::filesystem;
using canon::bench::BenchOptions;
using canon::bench::FigureBench;

constexpr int kJobs = 4;

struct Figure
{
    std::string name;
    FigureBench bench;
};

/** Golden CSVs (ci/golden/) and recorded digests (digests.txt). */
struct Expectations
{
    std::map<std::string, std::string> golden; //!< csv -> bytes
    std::map<std::string, std::string> digest; //!< csv -> digest
};

Expectations
loadExpectations(const std::string &root, Report &rep)
{
    Expectations e;
    for (const char *name : {"fig12_performance.csv", "fig14_edp.csv"}) {
        std::string bytes;
        if (!readFile(root + "/ci/golden/" + name, bytes))
            rep.mismatch(std::string("missing golden ") + name);
        e.golden[name] = bytes;
    }
    std::string text;
    if (!readFile(root + "/canonbench/digests.txt", text))
        rep.mismatch("missing canonbench/digests.txt");
    std::istringstream in(text);
    std::string csv, dig;
    while (in >> csv >> dig)
        e.digest[csv] = dig;
    return e;
}

struct SuiteRun
{
    double wallS = 0;
    std::map<std::string, double> figureS;
    std::uint64_t artifactBytes = 0;
    std::uint64_t cacheEntries = 0;
    std::vector<std::uint64_t> entrySizes;
};

std::uint64_t
filesUnder(const std::string &dir, std::vector<std::uint64_t> *sizes)
{
    std::uint64_t n = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it)
        if (it->is_regular_file()) {
            ++n;
            if (sizes)
                sizes->push_back(it->file_size());
        }
    return n;
}

/**
 * One suite into a fresh directory. With @p obs the four obs flags
 * are on; the CSVs are checked either way.
 */
SuiteRun
runSuite(const std::vector<Figure> &figs, const std::string &dir,
         bool obs, const Expectations &expect, Tracer &tracer,
         int parent, Report &rep)
{
    SuiteRun s;
    fs::create_directories(dir);
    const fs::path home = fs::current_path();
    fs::current_path(dir); // figure CSVs land in the working directory
    const double t0 = nowUs();
    for (const Figure &f : figs) {
        BenchOptions bo;
        bo.common.jobs = kJobs;
        bo.common.cacheDir = dir + "/cache";
        if (obs) {
            bo.common.obs.sampleEvery = 500;
            bo.common.obs.cycleAccounting = true;
            bo.common.obs.traceOut = dir + "/" + f.name + ".trace.json";
            bo.common.obs.statsJsonOut =
                dir + "/" + f.name + ".stats.json";
        }
        std::ostringstream out, err;
        const double f0 = nowUs();
        const int span = tracer.begin(f.name, "bench", parent);
        int rc = 1;
        try {
            rc = f.bench.run(bo, out, err);
        } catch (const std::exception &e) {
            err << e.what();
        }
        tracer.end(span);
        s.figureS[f.name] = secondsBetween(f0, nowUs());
        ++rep.failures.attempted;
        if (rc != 0) {
            ++rep.failures.errors;
            rep.notes.push_back(f.name + " failed: " + err.str());
        }
    }
    s.wallS = secondsBetween(t0, nowUs());
    fs::current_path(home);

    // Every CSV the suite wrote is checked exactly once.
    std::map<std::string, std::string> csvs;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (entry.path().extension() == ".csv") {
            std::string bytes;
            readFile(entry.path().string(), bytes);
            csvs[name] = bytes;
        } else if (entry.is_regular_file()) {
            s.artifactBytes += entry.file_size();
        }
    }
    for (const auto &[name, bytes] : expect.golden) {
        ++rep.failures.attempted;
        auto it = csvs.find(name);
        if (it == csvs.end() || it->second != bytes)
            rep.mismatch(name + " differs from ci/golden");
    }
    for (const auto &[name, dig] : expect.digest) {
        ++rep.failures.attempted;
        auto it = csvs.find(name);
        if (it == csvs.end() || digest(it->second) != dig)
            rep.mismatch(name + " differs from its recorded digest");
    }
    for (const auto &[name, bytes] : csvs)
        if (!expect.golden.count(name) && !expect.digest.count(name))
            rep.mismatch(name + " has no recorded digest (" +
                         digest(bytes) + ")");
    s.cacheEntries = filesUnder(dir + "/cache", &s.entrySizes);
    return s;
}

/** Median microseconds of ResultStore::store on payloads of the
 *  sizes the suite stored, into a fresh store. */
double
storeMedianUs(const std::vector<std::uint64_t> &sizes,
              const std::string &dir)
{
    canon::cache::ResultStore store(dir, canon::cache::Mode::ReadWrite);
    if (!store.prepare().empty())
        return 0;
    std::vector<double> us;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const auto key = canon::cache::figureKey(
            "canonbench", "store", std::to_string(i));
        const std::string payload(sizes[i], 'x');
        const double t0 = nowUs();
        store.store(key, payload);
        us.push_back(nowUs() - t0);
    }
    return median(us);
}

/** Host cost of recording one span, microseconds. */
double
spanCostUs()
{
    Tracer t(true);
    const int n = 20000;
    const double t0 = nowUs();
    for (int i = 0; i < n; ++i)
        t.end(t.begin("probe", "bench"));
    return (nowUs() - t0) / n;
}

} // namespace

int
runFiguresCold(const RunOptions &opt, Report &rep)
{
    const Expectations expect = loadExpectations(opt.root, rep);

    // Set-up, repeated: a fresh cache directory, the figure
    // definitions built from the registry, and a small warm-up batch
    // on a 4-worker engine writing to that cache, so worker threads,
    // allocator arenas and the cache path are in place before timing.
    // The seed fixes the order the figures run in; their outputs do
    // not depend on it.
    std::vector<Figure> figs;
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowUs();
        const std::string cache =
            opt.work + "/setup" + std::to_string(i) + "/cache";
        fs::create_directories(cache);
        canon::engine::Engine warm(canon::engine::EngineConfig{
            .jobs = kJobs,
            .cacheDir = cache,
            .cacheMode = canon::cache::Mode::ReadWrite});
        const auto rs = warm.run(canon::engine::ScenarioRequest()
                                     .workload(canon::cli::Workload::Spmm)
                                     .shape(128, 128, 64)
                                     .sweep("seed", "1,2,3,4"));
        if (!rs.ok() || rs.failureCount() != 0) {
            rep.notes.push_back("warm-up batch failed");
            return 1;
        }
        figs.clear();
        for (const auto &e : canon::bench::figureRegistry())
            if (std::string(e.binary) != "bench_sim_throughput")
                figs.push_back({e.binary, e.build()});
        SplitMix rng(opt.seed);
        for (std::size_t k = figs.size(); k > 1; --k)
            std::swap(figs[k - 1], figs[rng.below(k)]);
        setups.push_back(secondsBetween(t0, nowUs()));
    }

    Tracer off(false);
    Tracer tracer(opt.trace);
    const int root = tracer.begin("figures-cold traced suite", "bench");
    std::vector<SuiteRun> suites;
    const double start = nowUs();
    do {
        const std::string dir =
            opt.work + "/suite" + std::to_string(suites.size());
        suites.push_back(runSuite(figs, dir, true, expect,
                                  opt.trace ? tracer : off, root, rep));
        if (!opt.trace)
            removeTree(dir);
    } while (!opt.trace &&
             startAnother(start, nowUs(), suites.back().wallS, opt.seconds));
    tracer.end(root);

    std::vector<double> walls;
    for (const auto &s : suites) {
        walls.push_back(s.wallS);
    }
    const double setup = median(setups);
    const double rss = selfPeakRssMb();
    rep.endToEnd = {{"pass_s", median(walls), "s"},
                    {"peak_rss_mb", rss, "MB"},
                    {"setup_s", setup, "s"}};
    rep.named = {{"figures_cold_s", median(walls), "s",
                  "median of n=" + std::to_string(walls.size()) +
                      " suites; too few for a tail percentile"},
                 {"setup_s", setup, "s", "median of 5 set-ups"},
                 {"peak_rss_mb", rss, "MB", "benchmark process"}};
    for (const auto &[name, s] : suites.front().figureS)
        rep.notes.push_back("figure " + name + " " + std::to_string(s) +
                            " s");
    if (!opt.trace)
        return 0;

    // Traced extras: the same suite without obs flags (obs overhead),
    // Fig 14 alone at --jobs 1 (pool speedup), and the cache store
    // cost on payloads of the sizes the suite stored.
    const SuiteRun &traced = suites.front();
    const SuiteRun plain = runSuite(figs, opt.work + "/suite-noobs",
                                    false, expect, off, -1, rep);
    double fig14j1 = 0;
    for (const Figure &f : figs) {
        if (f.name != "bench_fig14_edp")
            continue;
        BenchOptions bo;
        bo.common.jobs = 1;
        bo.common.cacheDir = opt.work + "/fig14-j1/cache";
        fs::create_directories(opt.work + "/fig14-j1");
        const fs::path home = fs::current_path();
        fs::current_path(opt.work + "/fig14-j1");
        std::ostringstream out, err;
        const double t0 = nowUs();
        ++rep.failures.attempted;
        if (f.bench.run(bo, out, err) != 0) {
            ++rep.failures.errors;
            rep.notes.push_back("fig14 --jobs 1 failed: " + err.str());
        }
        fig14j1 = secondsBetween(t0, nowUs());
        fs::current_path(home);
    }

    double jobs = 0;
    for (const Figure &f : figs)
        jobs += static_cast<double>(f.bench.jobCount());
    auto fig = [&](const char *name) {
        auto it = traced.figureS.find(name);
        return it == traced.figureS.end() ? 0.0 : it->second;
    };
    const double named4 = fig("bench_fig12_performance") +
                          fig("bench_fig13_perfwatt") +
                          fig("bench_fig14_edp") +
                          fig("bench_fig15_scalability");
    const auto spans = tracer.spans();
    const auto self = selfTimesUs(spans);
    const double rootUs = spans[static_cast<std::size_t>(root)].durationUs();
    rep.layers = {
        {"bench.fig12_s", fig("bench_fig12_performance"), "s"},
        {"bench.fig13_s", fig("bench_fig13_perfwatt"), "s"},
        {"bench.fig14_s", fig("bench_fig14_edp"), "s"},
        {"bench.fig15_s", fig("bench_fig15_scalability"), "s"},
        {"bench.rest_s", traced.wallS - named4, "s"},
        {"runner.jobs", jobs, "count"},
        {"runner.fig14_speedup",
         fig("bench_fig14_edp") > 0 ? fig14j1 / fig("bench_fig14_edp")
                                    : 0,
         "ratio"},
        {"obs.overhead_s", traced.wallS - plain.wallS, "s"},
        {"obs.artifact_mb", static_cast<double>(traced.artifactBytes) /
                                (1024.0 * 1024.0),
         "MB"},
        {"cache.store_us",
         storeMedianUs(traced.entrySizes, opt.work + "/store-probe"),
         "us"},
        {"cache.stored", static_cast<double>(traced.cacheEntries),
         "count"},
        {"trace.overhead_ms",
         spanCostUs() * static_cast<double>(spans.size()) / 1e3, "ms"},
        {"trace.unaccounted_share", self[static_cast<std::size_t>(root)] / rootUs,
         "ratio"},
    };
    rep.notes.push_back("fig14 --jobs 1: " + std::to_string(fig14j1) +
                        " s; suite without obs flags: " +
                        std::to_string(plain.wallS) + " s");
    if (!tracer.write(opt.work + "/spans.json"))
        rep.notes.push_back("could not write spans.json");
    return 0;
}

} // namespace canonbench
