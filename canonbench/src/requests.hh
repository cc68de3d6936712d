/**
 * @file
 * The service-mixed request stream, generated from the workload seed.
 *
 * The daemon receives only these generated submissions. A "hot"
 * request comes from a fixed pool that set-up submits once (so the
 * timed phase reads it from the cache); a "fresh" request carries
 * scenario seeds no other request uses, so it misses, simulates and
 * writes. Everything here is a pure function of its arguments.
 */

#ifndef CANONBENCH_REQUESTS_HH
#define CANONBENCH_REQUESTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace canonbench
{

/** splitmix64: a small, fully specified generator. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, bound); @p bound > 0. */
    std::uint64_t below(std::uint64_t bound);

  private:
    std::uint64_t s_;
};

/**
 * One small request: spmm, sddmm, gemm or spmm-nm with m and k in
 * {64, 128, 192, 256}, n = 64, 1-3 scenarios (a sweep over scenario
 * seeds starting at @p first_seed), on canon plus one baseline.
 */
canon::service::SubmitBody makeRequest(SplitMix &rng,
                                       std::uint64_t first_seed,
                                       const std::string &client);

/**
 * The hot pool: @p count requests cycling through every workload and
 * size, with baselines and scenario seeds drawn from @p seed.
 */
std::vector<canon::service::SubmitBody>
hotPool(std::uint64_t seed, std::size_t count);

/** What one closed-loop client submits next. */
struct Pick
{
    bool hot = false;
    std::size_t hotIndex = 0;              //!< valid when hot
    canon::service::SubmitBody fresh;      //!< valid when !hot
};

/**
 * The @p index-th submission of client @p client: a hot request with
 * probability one half, else a fresh one. Fresh scenario seeds are
 * unique across (seed, client, index) and disjoint from the hot
 * pool's.
 */
Pick clientPick(std::uint64_t seed, int client, std::uint64_t index,
                std::size_t hot_count);

/** Stable one-line text of a request (logs, tests). */
std::string describe(const canon::service::SubmitBody &body);

} // namespace canonbench

#endif // CANONBENCH_REQUESTS_HH
