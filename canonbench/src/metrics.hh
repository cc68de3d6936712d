/**
 * @file
 * Order statistics and failure accounting for the benchmark.
 *
 * Quartiles follow Python's statistics.quantiles(data, n=4) (the
 * default "exclusive" method), so the steadiness report and these
 * numbers agree digit for digit.
 */

#ifndef CANONBENCH_METRICS_HH
#define CANONBENCH_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace canonbench
{

/** Median of @p v; 0 for an empty list. */
double median(std::vector<double> v);

struct Quartiles
{
    double q1 = 0, q2 = 0, q3 = 0;

    /** (q3 - q1) / q2; 0 when q2 is 0. */
    double spread() const;
};

/** statistics.quantiles(v, n=4); a single value fills all three. */
Quartiles quartiles(std::vector<double> v);

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p v: the smallest
 * value with at least p% of the samples at or below it.
 */
double percentile(std::vector<double> v, double p);

/** Samples strictly beyond the nearest-rank @p p of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of the tail percentiles 90, 99 and 99.9 that still has
 * at least @p min_beyond samples beyond it among @p n; 0 when even
 * p90 has fewer (the median is then the only timing reported).
 */
double tailPercentile(std::size_t n, std::size_t min_beyond = 10);

/**
 * Latencies of one operation class. A failed or refused operation
 * is kept as +infinity, so it misses every latency limit and pushes
 * the percentiles up instead of vanishing from them.
 */
class LatencySet
{
  public:
    void add(double ms) { samples_.push_back(ms); }
    void addFailed();

    std::size_t size() const { return samples_.size(); }
    std::size_t failed() const { return failed_; }

    double p(double pct) const { return percentile(samples_, pct); }

  private:
    std::vector<double> samples_;
    std::size_t failed_ = 0;
};

/**
 * Attempted operations and the ways they can go wrong. A refused
 * request, a failed one and a correct-looking one whose output does
 * not match its reference all count as failed.
 */
struct FailureCount
{
    std::uint64_t attempted = 0;
    std::uint64_t errors = 0;     //!< the program reported a failure
    std::uint64_t refused = 0;    //!< rejected before running
    std::uint64_t mismatches = 0; //!< output differs from reference

    std::uint64_t failed() const
    {
        return errors + refused + mismatches;
    }
    /** failed() / attempted; 0 when nothing was attempted. */
    double ratio() const;
};

/** 64-bit FNV-1a of @p bytes, as 16 lowercase hex digits. */
std::string digest(const std::string &bytes);

} // namespace canonbench

#endif // CANONBENCH_METRICS_HH
