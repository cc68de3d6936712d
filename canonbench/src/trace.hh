/**
 * @file
 * Spans recorded by the benchmark around its calls into each layer.
 *
 * A span has a name, the layer it times, start and end (host
 * microseconds on a steady clock), its parent span and, on the
 * service workload, the request it belongs to. Spans are kept in
 * memory and written out once, when the benchmark ends. A disabled
 * tracer records nothing and costs one branch per call.
 */

#ifndef CANONBENCH_TRACE_HH
#define CANONBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace canonbench
{

/** Steady-clock microseconds since an arbitrary epoch. */
double nowUs();

struct Span
{
    std::string name;
    std::string layer;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;           //!< index of the parent span; -1: root
    std::uint64_t request = 0; //!< 0: not tied to a request

    double durationUs() const { return endUs - startUs; }
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children. Children that
 * overlap each other (work spread over pool workers or client
 * threads) are merged first, so overlapping time is never
 * subtracted twice; children are clipped to the parent's interval.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Sum of self times per layer. */
std::map<std::string, double>
layerSelfUs(const std::vector<Span> &spans);

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const std::string &name, const std::string &layer,
              int parent = -1, std::uint64_t request = 0);
    void end(int id);

    /** Record an already-timed interval; returns its id. */
    int record(const std::string &name, const std::string &layer,
               double startUs, double endUs, int parent = -1,
               std::uint64_t request = 0);

    std::vector<Span> spans() const;

    /** Write the spans as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; //!< guarded by mu_
};

} // namespace canonbench

#endif // CANONBENCH_TRACE_HH
