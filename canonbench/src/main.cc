/**
 * @file
 * canonbench: the Canon benchmark program.
 *
 *   canonbench --workload W --seed N --seconds S --trace 0|1
 *              --root CHECKOUT --work DIR --canond PATH
 *
 * Prints a human-readable report, then, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones BENCHMARK.json
 * bounds; with --trace 1 they are the per-layer ones, and a layer
 * the workload does not exercise reads 0. Only host time is timed.
 * Simulated statistics are checked for exact equality; the simulated
 * timing model itself is unvalidated against hardware, so no
 * accuracy figure is reported.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include <sys/resource.h>

#include "common.hh"
#include "common/logging.hh"

namespace canonbench
{

void
Report::mismatch(const std::string &what)
{
    ++failures.attempted;
    ++failures.mismatches;
    notes.push_back("MISMATCH: " + what);
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    out.assign(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
    return true;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

namespace
{

/** Per-layer metrics in BENCHMARK.json order, with their units. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"sparse.gen_ms", "ms"},
    {"kernels.map_ms", "ms"},
    {"core.build_ms", "ms"},
    {"core.load_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.ns_per_pe_cycle", "ns"},
    {"sim.cycles", "count"},
    {"baselines.ms", "ms"},
    {"workloads.self_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"bench.fig12_s", "s"},
    {"bench.fig13_s", "s"},
    {"bench.fig14_s", "s"},
    {"bench.fig15_s", "s"},
    {"bench.rest_s", "s"},
    {"runner.jobs", "count"},
    {"runner.fig14_speedup", "ratio"},
    {"obs.overhead_s", "s"},
    {"obs.artifact_mb", "MB"},
    {"cache.store_us", "us"},
    {"cache.stored", "count"},
    {"cache.lookup_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"engine.plan_ms", "ms"},
    {"service.connect_ms", "ms"},
    {"service.hit_queue_wait_ms", "ms"},
    {"service.miss_queue_wait_ms", "ms"},
    {"service.first_result_ms", "ms"},
    {"service.render_us", "us"},
    {"trace.overhead_ms", "ms"},
    {"trace.unaccounted_share", "ratio"},
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 1e300; // a failed request's latency; correct is false
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
line(const Metric &m)
{
    std::ostringstream s;
    s << "  " << m.name << " = " << number(m.value) << " " << m.unit;
    if (!m.note.empty())
        s << "  (" << m.note << ")";
    return s.str();
}

int
usage(const std::string &why)
{
    std::cerr << "canonbench: " << why
              << "\nusage: canonbench --workload model-serial|"
                 "figures-cold|service-mixed --seed N --seconds S "
                 "--trace 0|1 --root DIR --work DIR --canond PATH\n";
    return 2;
}

} // namespace

} // namespace canonbench

int
main(int argc, char **argv)
{
    using namespace canonbench;
    RunOptions opt;
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0)
        return usage("flags take one value each");
    try {
        for (const auto &[k, v] : args) {
            if (k == "--workload")
                opt.workload = v;
            else if (k == "--seed")
                opt.seed = std::stoull(v);
            else if (k == "--seconds")
                opt.seconds = std::stod(v);
            else if (k == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (k == "--root")
                opt.root = v;
            else if (k == "--work")
                opt.work = v;
            else if (k == "--canond")
                opt.canond = v;
            else
                return usage("unknown flag " + k);
        }
    } catch (const std::exception &) {
        return usage("bad flag value");
    }
    if (opt.root.empty() || opt.work.empty() || opt.seconds <= 0)
        return usage("--root, --work and a positive --seconds are "
                     "required");

    canon::setQuiet(true);
    removeTree(opt.work);
    std::filesystem::create_directories(opt.work);

    Report rep;
    int rc = 1;
    try {
        if (opt.workload == "model-serial")
            rc = runModelSerial(opt, rep);
        else if (opt.workload == "figures-cold")
            rc = runFiguresCold(opt, rep);
        else if (opt.workload == "service-mixed")
            rc = runServiceMixed(opt, rep);
        else
            return usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception &e) {
        rep.notes.push_back(std::string("error: ") + e.what());
        rc = 1;
    }
    for (const auto &n : rep.notes)
        std::cout << "# " << n << "\n";
    if (rc != 0 || rep.failures.attempted == 0) {
        std::cerr << "canonbench: " << opt.workload
                  << " could not run; see the notes above\n";
        return 1;
    }

    const FailureCount &f = rep.failures;
    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << (opt.trace ? " (traced)" : "") << "\n"
              << "end to end:\n";
    for (const Metric &m : rep.named)
        std::cout << line(m) << "\n";
    std::cout << line({"failed_ratio", f.ratio(), "ratio",
                       std::to_string(f.failed()) + " of " +
                           std::to_string(f.attempted) + " (" +
                           std::to_string(f.errors) + " errors, " +
                           std::to_string(f.refused) + " refused, " +
                           std::to_string(f.mismatches) +
                           " mismatches)"})
              << "\n";
    std::map<std::string, Metric> layers;
    if (opt.trace) {
        std::cout << "per layer (traced run):\n";
        for (const Metric &m : rep.layers) {
            std::cout << line(m) << "\n";
            layers[m.name] = m;
        }
    }
    std::cout << "simulated timing: unvalidated against hardware; no "
                 "accuracy figure\n";

    const bool correct = f.failed() == 0;
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << f.attempted
       << ", \"failed\": " << f.failed() << ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const std::string &name, double v,
                    const std::string &unit) {
        js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << number(v) << ", \"unit\": \"" << unit << "\"}";
        first = false;
    };
    if (opt.trace) {
        for (const auto &[name, unit] : kLayerMetrics) {
            auto it = layers.find(name);
            emit(name, it == layers.end() ? 0.0 : it->second.value,
                 unit);
        }
    } else {
        for (const Metric &m : rep.endToEnd)
            emit(m.name, m.value, m.unit);
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}
