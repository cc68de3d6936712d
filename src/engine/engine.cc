#include "engine/engine.hh"

#include <algorithm>
#include <mutex>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cache/payload.hh"
#include "runner/shard.hh"
#include "workloads/models.hh"

namespace canon
{
namespace engine
{

namespace
{

/**
 * Pin glibc's mmap threshold at its 128 KiB default, once per process.
 * Left dynamic, the first free of a large transient buffer (proxy
 * matrices, CSR arrays, token streams of a scenario) raises the
 * threshold to that buffer's size, so later buffers of the same size
 * come from arenas that keep their freed pages: every further pass of
 * a long-lived engine peaks higher than the one before. With the
 * threshold fixed such buffers are mapped and returned on free.
 */
void
pinMmapThreshold()
{
#if defined(__GLIBC__)
    static std::once_flag once;
    std::call_once(once, [] { mallopt(M_MMAP_THRESHOLD, 128 * 1024); });
#endif
}

/** Run one workload case across the requested architectures. */
CaseResult
runSuiteCase(const cli::Options &opt)
{
    ArchSuite suite(opt.fabricConfig(), opt.archs);
    if (!opt.model.empty())
        return suite.model(opt.sparsitySet
                               ? modelByName(opt.model, opt.sparsity)
                               : modelByName(opt.model),
                           opt.seed);
    switch (opt.workload) {
      case cli::Workload::Gemm:
        return suite.gemm(opt.m, opt.k, opt.n, opt.seed);
      case cli::Workload::Spmm:
        return suite.spmm(opt.m, opt.k, opt.n, opt.sparsity,
                          opt.seed);
      case cli::Workload::SpmmNm:
        return suite.spmmNm(opt.m, opt.k, opt.n, opt.nmN, opt.nmM,
                            opt.seed);
      case cli::Workload::Sddmm:
        return suite.sddmm(opt.m, opt.k, opt.n, opt.sparsity,
                           opt.seed);
      case cli::Workload::SddmmWindow:
        return suite.sddmmWindow(opt.m, opt.k, opt.window, opt.seed);
    }
    return {};
}

} // namespace

CaseResult
runScenarioCases(const cli::Options &opt)
{
    // ArchSuite only simulates the selected architectures, so the
    // canon-only run needs no separate fast path; the filter below
    // just pins the result to exactly what was asked for.
    cli::Options o = opt;
    if (o.archs.empty()) // Options contract: empty means canon only
        o.archs.push_back("canon");
    CaseResult all = runSuiteCase(o);
    CaseResult r;
    for (const auto &a : o.archs) {
        auto it = all.find(a);
        if (it != all.end())
            r[a] = it->second;
    }
    return r;
}

EngineConfig
makeEngineConfig(const CommonFlags &flags, int default_jobs)
{
    EngineConfig cfg;
    cfg.jobs = flags.jobs > 0 ? flags.jobs : default_jobs;
    cfg.cacheDir = flags.cacheDir;
    cfg.cacheMode = flags.cacheMode;
    return cfg;
}

const char *
forecastName(ScenarioPlan::Forecast f)
{
    switch (f) {
      case ScenarioPlan::Forecast::Hit:
        return "hit";
      case ScenarioPlan::Forecast::Miss:
        return "miss";
      case ScenarioPlan::Forecast::Uncached:
        return "uncached";
    }
    return "?";
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      workers_(config_.jobs > 0
                   ? config_.jobs
                   : static_cast<int>(std::max(
                         1u, std::thread::hardware_concurrency()))),
      pool_(workers_)
{
    pinMmapThreshold();
    if (!config_.cacheDir.empty() &&
        config_.cacheMode != cache::Mode::Off)
        store_.emplace(config_.cacheDir, config_.cacheMode);
}

std::string
Engine::prepare()
{
    std::call_once(prepare_once_, [this] {
        if (store_)
            prepare_error_ = store_->prepare();
    });
    return prepare_error_;
}

std::string
Engine::cacheStatsLine() const
{
    return store_ ? store_->statsLine() : std::string();
}

ResultSet
Engine::rejected(const ScenarioRequest &req) const
{
    ResultSet rs;
    rs.status_ = ResultSet::Status::InvalidRequest;
    rs.error_ = req.error();
    rs.warnings_ = req.warnings();
    rs.shard_ = req.options().common.shard;
    return rs;
}

namespace
{

/**
 * The per-request cache report: hit/miss/store counts attributed to
 * exactly the results in @p results (via the pool's per-job flags),
 * never the store's process-lifetime totals -- under a shared
 * long-lived engine every submission must report its own delta.
 * Cancelled jobs never touched the store, so they count as neither
 * hits nor executed misses.
 */
std::string
perRequestCacheLine(
    const std::vector<runner::ScenarioResult> &results)
{
    cache::CacheStats delta;
    for (const auto &r : results) {
        if (r.cacheHit)
            ++delta.hits;
        else if (!r.cancelled())
            ++delta.misses;
        if (r.cacheStored)
            ++delta.stores;
    }
    return cache::statsLineText(delta);
}

} // namespace

ResultSet
Engine::execute(const std::vector<runner::SweepJob> &sharded,
                const ScenarioRequest &req, std::size_t total,
                const ResultCallback &onResult,
                const runner::CancelToken *cancel)
{
    ResultSet rs;
    rs.warnings_ = req.warnings();
    rs.total_jobs_ = total;
    rs.shard_ = req.options().common.shard;
    rs.single_ =
        req.options().sweepAxes.empty() && rs.shard_.whole();
    rs.results_ = pool_.run(sharded, runScenarioCases, store(),
                            onResult, cancel);
    if (store())
        rs.cache_stats_line_ = perRequestCacheLine(rs.results_);
    const obs::ObsOptions &obs_opt = req.options().common.obs;
    if (obs_opt.enabled())
        rs.obs_ = ObsReport::build(obs_opt, rs.results_, store());
    return rs;
}

ResultSet
Engine::run(const ScenarioRequest &req, const ResultCallback &onResult,
            const runner::CancelToken *cancel)
{
    // Validate a private copy: validation caches into the request's
    // mutable members without synchronization, so a const request
    // shared across threads must never be mutated through here.
    const ScenarioRequest local = req;
    if (!local.validate())
        return rejected(local);
    if (std::string err = prepare(); !err.empty()) {
        ResultSet rs;
        rs.status_ = ResultSet::Status::Failed;
        rs.error_ = err;
        rs.warnings_ = local.warnings();
        rs.shard_ = local.options().common.shard;
        return rs;
    }

    std::vector<runner::SweepJob> jobs = local.expand();
    const std::size_t total = jobs.size();
    const runner::Shard &shard = local.options().common.shard;
    if (!shard.whole()) {
        const auto [first, last] = runner::shardRange(shard, total);
        jobs = std::vector<runner::SweepJob>(
            jobs.begin() + static_cast<std::ptrdiff_t>(first),
            jobs.begin() + static_cast<std::ptrdiff_t>(last));
    }
    return execute(jobs, local, total, onResult, cancel);
}

std::vector<ResultSet>
Engine::runBatch(const std::vector<ScenarioRequest> &requests,
                 const ResultCallback &onResult,
                 const runner::CancelToken *cancel)
{
    // Validate and expand everything first so one global job list
    // can feed a single pool pass: concurrency then spans request
    // boundaries instead of draining one request at a time. Work on
    // private copies (see run()) so shared const requests are never
    // mutated through their validation cache.
    const std::vector<ScenarioRequest> local(requests.begin(),
                                             requests.end());
    std::vector<ResultSet> sets(local.size());
    std::vector<runner::SweepJob> all;
    struct Slice
    {
        bool runnable = false;
        std::size_t first = 0, count = 0, total = 0;
    };
    std::vector<Slice> slices(local.size());

    const std::string prepare_error = prepare();
    for (std::size_t r = 0; r < local.size(); ++r) {
        const ScenarioRequest &req = local[r];
        if (!req.validate()) {
            sets[r] = rejected(req);
            continue;
        }
        if (!prepare_error.empty()) {
            sets[r].status_ = ResultSet::Status::Failed;
            sets[r].error_ = prepare_error;
            sets[r].warnings_ = req.warnings();
            sets[r].shard_ = req.options().common.shard;
            continue;
        }
        std::vector<runner::SweepJob> jobs = req.expand();
        slices[r].total = jobs.size();
        const runner::Shard &shard = req.options().common.shard;
        if (!shard.whole()) {
            const auto [first, last] =
                runner::shardRange(shard, jobs.size());
            jobs = std::vector<runner::SweepJob>(
                jobs.begin() + static_cast<std::ptrdiff_t>(first),
                jobs.begin() + static_cast<std::ptrdiff_t>(last));
        }
        slices[r].runnable = true;
        slices[r].first = all.size();
        slices[r].count = jobs.size();
        all.insert(all.end(),
                   std::make_move_iterator(jobs.begin()),
                   std::make_move_iterator(jobs.end()));
    }

    std::vector<runner::ScenarioResult> results =
        pool_.run(all, runScenarioCases, store(), onResult, cancel);

    for (std::size_t r = 0; r < local.size(); ++r) {
        if (!slices[r].runnable)
            continue;
        ResultSet &rs = sets[r];
        rs.warnings_ = local[r].warnings();
        rs.total_jobs_ = slices[r].total;
        rs.shard_ = local[r].options().common.shard;
        rs.single_ = local[r].options().sweepAxes.empty() &&
                     rs.shard_.whole();
        rs.results_.assign(
            std::make_move_iterator(
                results.begin() +
                static_cast<std::ptrdiff_t>(slices[r].first)),
            std::make_move_iterator(
                results.begin() + static_cast<std::ptrdiff_t>(
                                      slices[r].first +
                                      slices[r].count)));
        if (store())
            rs.cache_stats_line_ = perRequestCacheLine(rs.results_);
        const obs::ObsOptions &obs_opt =
            local[r].options().common.obs;
        if (obs_opt.enabled())
            rs.obs_ = ObsReport::build(obs_opt, rs.results_, store());
    }
    return sets;
}

std::vector<ScenarioPlan>
Engine::plan(const ScenarioRequest &req)
{
    // Private copy, as in run().
    const ScenarioRequest local = req;
    if (!local.validate())
        return {};

    std::vector<runner::SweepJob> jobs = local.expand();
    const runner::Shard &shard = local.options().common.shard;
    if (!shard.whole()) {
        const auto [first, last] =
            runner::shardRange(shard, jobs.size());
        jobs = std::vector<runner::SweepJob>(
            jobs.begin() + static_cast<std::ptrdiff_t>(first),
            jobs.begin() + static_cast<std::ptrdiff_t>(last));
    }

    std::vector<ScenarioPlan> plans;
    plans.reserve(jobs.size());
    for (auto &job : jobs) {
        ScenarioPlan p;
        p.key = cache::scenarioKey(job.options);
        if (!store_) {
            p.forecast = ScenarioPlan::Forecast::Uncached;
        } else if (!store_->readsEnabled()) {
            // Write/Refresh modes execute every scenario regardless
            // of what is already stored.
            p.forecast = ScenarioPlan::Forecast::Miss;
        } else {
            // Mirror the pool's hit test exactly: a stored entry only
            // counts when it decodes to a non-empty result. Lookups
            // leave the hit/miss counters untouched.
            CaseResult decoded;
            auto payload = store_->lookup(p.key);
            p.forecast = payload &&
                                 cache::decodeCaseResult(*payload,
                                                         decoded) &&
                                 !decoded.empty()
                             ? ScenarioPlan::Forecast::Hit
                             : ScenarioPlan::Forecast::Miss;
        }
        p.job = std::move(job);
        plans.push_back(std::move(p));
    }
    return plans;
}

std::vector<std::string>
Engine::runPayloadBatch(const std::vector<PayloadJob> &jobs)
{
    // A missing cache directory degrades to computing everything
    // (lookups miss, stores fail quietly); callers that want to
    // surface the error check prepare() themselves first.
    prepare();
    return pool_.mapCached(
        jobs.size(),
        [&](std::size_t i) { return jobs[i].key; },
        [&](std::size_t i) { return jobs[i].compute(); }, store());
}

} // namespace engine
} // namespace canon
