/**
 * @file
 * What every workload of the benchmark program shares: its options and
 * the report it fills in.
 */

#ifndef CANONBENCH_COMMON_HH
#define CANONBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hh"
#include "trace.hh"

namespace canonbench
{

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root;   //!< checkout root (reads ci/golden, digests)
    std::string work;   //!< scratch directory this run owns
    std::string canond; //!< daemon binary (service-mixed)
};

struct Metric
{
    Metric() = default;
    Metric(std::string n, double v, std::string u, std::string nt = {})
        : name(std::move(n)), value(v), unit(std::move(u)),
          note(std::move(nt))
    {
    }

    std::string name;
    double value = 0;
    std::string unit;
    std::string note; //!< sample count, percentile, ... (text only)
};

struct Report
{
    FailureCount failures;

    /** The metrics BENCHMARK.json gates, in its order. */
    std::vector<Metric> endToEnd;
    /** Workload-specific end-to-end figures, printed but not bounded. */
    std::vector<Metric> named;
    /** Per-layer metrics (traced run). */
    std::vector<Metric> layers;
    /** Free-form lines of the human-readable report. */
    std::vector<std::string> notes;

    /** Count one failed correctness check, with a note. */
    void mismatch(const std::string &what);
};

/** Wall seconds between two nowUs() readings. */
inline double
secondsBetween(double startUs, double endUs)
{
    return (endUs - startUs) / 1e6;
}

/**
 * Whether a closed loop that started at @p startUs should begin one
 * more unit of work that last took @p lastS: only when it is
 * expected to end within @p seconds, so a run measures about
 * --seconds and never a ragged extra unit.
 */
inline bool
startAnother(double startUs, double nowUsValue, double lastS,
             double seconds)
{
    return secondsBetween(startUs, nowUsValue) + lastS <= seconds;
}

/** Peak resident set of this process, MB. */
double selfPeakRssMb();

/** Read a whole file; false when it cannot be opened. */
bool readFile(const std::string &path, std::string &out);

/** rm -rf @p path (inside the run's work directory only). */
void removeTree(const std::string &path);

int runModelSerial(const RunOptions &opt, Report &rep);
int runFiguresCold(const RunOptions &opt, Report &rep);
int runServiceMixed(const RunOptions &opt, Report &rep);

} // namespace canonbench

#endif // CANONBENCH_COMMON_HH
