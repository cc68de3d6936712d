/**
 * @file
 * model-serial: one caller, one uncached Engine{jobs=1}, observability
 * off, running five whole models on every architecture in a closed
 * loop. The cycle loop does nearly all of the work here, so this is
 * where a faster PE datapath shows and where the engine, runner,
 * cache and obs layers must read "no change".
 *
 * The traced run also replays every model layer through the public
 * per-layer entry points (sparse::generate, map*, CanonFabric, the
 * baseline models), timing each call, to attribute a pass to layers.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common.hh"
#include "requests.hh"

#include "common/bitfield.hh"
#include "common/rng.hh"
#include "core/fabric.hh"
#include "engine/engine.hh"
#include "kernels/dense_cadence.hh"
#include "kernels/sddmm.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"
#include "workloads/canon_runner.hh"
#include "workloads/models.hh"
#include "workloads/suite.hh"

namespace canonbench
{

namespace
{

using namespace canon;

const std::vector<std::string> kModels = {
    "resnet50", "mistral7b-mlp", "llama8b-attn", "mistral7b-attn",
    "longformer"};

/** Simulated cycles per architecture, for the exactness check. */
using Cycles = std::map<std::string, std::uint64_t>;

Cycles
cyclesOf(const engine::ResultSet &rs)
{
    Cycles c;
    for (const auto &s : rs.scenarios())
        for (const auto &[arch, prof] : s.cases)
            c[arch] = prof.cycles;
    return c;
}

/** Per-layer host time of one replayed pass, microseconds. */
struct LayerTimes
{
    double gen = 0, map = 0, build = 0, load = 0, run = 0,
           baselines = 0;
    std::uint64_t rawCycles = 0;   //!< unscaled fabric cycles
    std::uint64_t peCycles = 0;    //!< rawCycles x PEs
    double children() const
    {
        return gen + map + build + load + run + baselines;
    }
};

std::int64_t
roundUp(std::int64_t v, std::int64_t q)
{
    return static_cast<std::int64_t>(
               divCeil(static_cast<std::uint64_t>(v),
                       static_cast<std::uint64_t>(q))) *
           q;
}

/**
 * Replays one model the way ArchSuite::model runs it, one public call
 * at a time, and returns the canon cycle total it implies (scaled as
 * the runner scales it), so the caller can check the replay did the
 * engine's work. The first layer of each kind also checks the
 * fabric's output matrix against sparse/reference.
 */
class Replayer
{
  public:
    Replayer(const CanonConfig &cfg, Tracer &tracer, Report &rep)
        : cfg_(cfg), tracer_(tracer), rep_(rep)
    {
    }

    std::uint64_t model(const ModelSpec &spec, std::uint64_t seed,
                        const std::vector<std::string> &baselines,
                        int parent, LayerTimes &t)
    {
        ArchSuite base(cfg_, baselines);
        std::uint64_t total = 0;
        std::uint64_t salt = seed;
        for (const auto &layer : spec.layers) {
            const int span =
                tracer_.begin("layer " + layer.name, "bench", parent);
            const std::uint64_t canon = canonLayer(layer, salt, span, t);
            total += scaled(canon, layer.repeats);
            const double b0 = nowUs();
            switch (layer.kind) {
              case LayerKind::Gemm:
                base.gemm(layer.m, layer.k, layer.n, salt);
                break;
              case LayerKind::Spmm:
                base.spmm(layer.m, layer.k, layer.n, layer.sparsity,
                          salt);
                break;
              case LayerKind::SddmmU:
                base.sddmm(layer.m, layer.k, layer.n, layer.sparsity,
                           salt);
                break;
              case LayerKind::SddmmWin:
                base.sddmmWindow(layer.m, layer.k, layer.window, salt);
                break;
            }
            const double b1 = nowUs();
            t.baselines += b1 - b0;
            tracer_.record("baselines", "baselines", b0, b1, span);
            tracer_.end(span);
            ++salt;
        }
        return total;
    }

  private:
    static std::uint64_t scaled(std::uint64_t c, double f)
    {
        return static_cast<std::uint64_t>(static_cast<double>(c) * f);
    }

    /** Time @p fn as one span of @p layer, adding to @p acc. */
    template <typename Fn>
    auto timed(const char *name, const char *layer, int parent,
               double &acc, Fn &&fn)
    {
        const double t0 = nowUs();
        auto r = fn();
        const double t1 = nowUs();
        acc += t1 - t0;
        tracer_.record(name, layer, t0, t1, parent);
        return r;
    }

    /** Build, load and run one mapping; returns the raw cycles. */
    std::uint64_t execute(std::function<KernelMapping()> mapFn,
                          const WordMatrix *expect, int parent,
                          LayerTimes &t)
    {
        auto mapping = timed("map", "kernels", parent, t.map, mapFn);
        auto fabric = timed("build", "core", parent, t.build, [&] {
            return std::make_unique<CanonFabric>(cfg_);
        });
        timed("load", "core", parent, t.load, [&] {
            fabric->load(std::move(mapping));
            return 0;
        });
        timed("run", "sim", parent, t.run, [&] {
            fabric->run();
            return 0;
        });
        const std::uint64_t raw = fabric->profile("replay").cycles;
        t.rawCycles += raw;
        t.peCycles += raw * static_cast<std::uint64_t>(cfg_.numPes());
        ++rep_.failures.attempted;
        if (expect && !(fabric->result() == *expect))
            rep_.mismatch("fabric result differs from sparse/reference");
        return raw;
    }

    std::uint64_t canonLayer(const LayerSpec &l, std::uint64_t salt,
                             int parent, LayerTimes &t)
    {
        const int tile_n = cfg_.cols * kSimdWidth;
        const std::int64_t cap =
            static_cast<std::int64_t>(cfg_.rows) * cfg_.dmemSlots;
        const CanonRunOptions ropt;
        const std::int64_t mp = std::min<std::int64_t>(
            l.m, ropt.effectiveProxyRows(cfg_));
        Rng rng(salt);
        const bool check = checked_.insert(l.kind).second;

        if (l.kind == LayerKind::SddmmU) {
            const int kp = tile_n;
            const std::int64_t np = roundUp(std::min(l.n, cap), cfg_.rows);
            const int mpi = static_cast<int>(mp);
            const int npi = static_cast<int>(np);
            struct In { DenseMatrix a, b; CsrMatrix mask; };
            In in = timed("gen", "sparse", parent, t.gen, [&] {
                auto a = randomDense(mpi, kp, rng);
                auto b = randomDense(kp, npi, rng);
                auto mask = randomMask(mpi, npi, l.sparsity, rng);
                return In{std::move(a), std::move(b), std::move(mask)};
            });
            WordMatrix ref;
            if (check)
                ref = reference::sddmm(in.mask, in.a, in.b);
            const std::uint64_t raw = execute(
                [&] { return mapSddmm(in.mask, in.a, in.b, cfg_); },
                check ? &ref : nullptr, parent, t);
            const double f = (static_cast<double>(l.m) / mpi) *
                             (static_cast<double>(l.k) / kp) *
                             (static_cast<double>(l.n) / npi);
            return scaled(raw, f);
        }

        // Gemm, Spmm and sliding-window SDDMM (a dense band GEMM).
        const std::int64_t n =
            l.kind == LayerKind::SddmmWin ? l.window : l.n;
        const int kp = static_cast<int>(roundUp(std::min(l.k, cap),
                                                cfg_.rows));
        const int mpi = static_cast<int>(mp);
        const auto passes_total =
            divCeil(static_cast<std::uint64_t>(n),
                    static_cast<std::uint64_t>(tile_n));
        const auto passes_sim = std::min<std::uint64_t>(
            passes_total,
            static_cast<std::uint64_t>(ropt.maxProxyPasses));
        const int cols = static_cast<int>(passes_sim) * tile_n;
        std::uint64_t raw = 0;
        if (l.kind == LayerKind::Spmm) {
            struct In { CsrMatrix a; DenseMatrix b; };
            In in = timed("gen", "sparse", parent, t.gen, [&] {
                auto a = randomSparse(mpi, kp, l.sparsity, rng);
                auto b = randomDense(kp, cols, rng);
                return In{CsrMatrix::fromDense(a), std::move(b)};
            });
            WordMatrix ref;
            if (check)
                ref = reference::spmm(in.a, in.b);
            raw = execute([&] { return mapSpmm(in.a, in.b, cfg_); },
                          check ? &ref : nullptr, parent, t);
        } else {
            struct In { DenseMatrix a, b; };
            In in = timed("gen", "sparse", parent, t.gen, [&] {
                auto a = randomDense(mpi, kp, rng);
                auto b = randomDense(kp, tile_n, rng);
                return In{std::move(a), std::move(b)};
            });
            WordMatrix ref;
            if (check)
                ref = reference::gemm(in.a, in.b);
            for (std::uint64_t p = 0; p < passes_sim; ++p)
                raw += execute([&] { return mapGemm(in.a, in.b, cfg_); },
                               check && p == 0 ? &ref : nullptr,
                               parent, t);
        }
        const double f = (static_cast<double>(l.m) / mpi) *
                         (static_cast<double>(l.k) / kp) *
                         (static_cast<double>(passes_total) /
                          static_cast<double>(passes_sim));
        return scaled(raw, f);
    }

    CanonConfig cfg_;
    Tracer &tracer_;
    Report &rep_;
    std::set<LayerKind> checked_;
};

engine::ScenarioRequest
modelRequest(const std::string &model, std::uint64_t seed)
{
    return engine::ScenarioRequest().model(model).archs({"all"}).seed(
        seed);
}

} // namespace

int
runModelSerial(const RunOptions &opt, Report &rep)
{
    // The seed fixes the scenario seed (the generated matrices) and
    // the order the caller walks the models in.
    std::vector<std::string> order = kModels;
    SplitMix rng(opt.seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    // Set-up, repeated: engine start, the five validated requests,
    // and one untimed warm-up run of the smallest model (other
    // scenario seed), so lazy state (pages, the allocator, code) is in
    // place before timing. A whole model rather than a tiny scenario
    // keeps set-up long enough to measure steadily.
    std::unique_ptr<engine::Engine> eng;
    std::vector<engine::ScenarioRequest> reqs;
    std::vector<double> setups;
    for (int rep_i = 0; rep_i < 5; ++rep_i) {
        const double t0 = nowUs();
        eng = std::make_unique<engine::Engine>(engine::EngineConfig{
            .jobs = 1, .cacheDir = {}, .cacheMode = cache::Mode::Off});
        reqs.clear();
        for (const auto &m : order) {
            reqs.push_back(modelRequest(m, opt.seed));
            if (!reqs.back().validate()) {
                rep.notes.push_back("invalid request for " + m + ": " +
                                    reqs.back().error());
                return 1;
            }
        }
        const auto warm =
            eng->run(modelRequest("llama8b-attn", opt.seed + 1));
        if (!warm.ok() || warm.failureCount() != 0) {
            rep.notes.push_back("warm-up scenario failed");
            return 1;
        }
        setups.push_back(secondsBetween(t0, nowUs()));
    }

    // One Engine::run of model i, checked against the first pass's
    // cycle counts; returns its wall time in microseconds.
    std::map<std::string, Cycles> firstCycles;
    auto runModel = [&](std::size_t i, Tracer &tracer, int parent) {
        const double t0 = nowUs();
        const int span =
            tracer.begin("Engine::run " + order[i], "engine", parent);
        const auto rs = eng->run(reqs[i]);
        tracer.end(span);
        const double us = nowUs() - t0;
        ++rep.failures.attempted;
        if (!rs.ok() || rs.failureCount() != 0) {
            ++rep.failures.errors;
            rep.notes.push_back("model " + order[i] + " failed: " +
                                rs.error());
            return us;
        }
        const Cycles c = cyclesOf(rs);
        auto [it, fresh] = firstCycles.emplace(order[i], c);
        if (!fresh && it->second != c)
            rep.mismatch("sim cycles of " + order[i] +
                         " changed between passes");
        return us;
    };

    Tracer off(false);
    std::vector<double> passes;
    const double start = nowUs();
    do {
        const double t0 = nowUs();
        for (std::size_t i = 0; i < reqs.size(); ++i)
            runModel(i, off, -1);
        passes.push_back(secondsBetween(t0, nowUs()));
    } while (!opt.trace &&
             startAnother(start, nowUs(), passes.back(), opt.seconds));

    const double setup = median(setups);
    const double rss = selfPeakRssMb();
    rep.endToEnd = {{"pass_s", median(passes), "s"},
                    {"peak_rss_mb", rss, "MB"},
                    {"setup_s", setup, "s"}};
    const std::string n =
        "median of n=" + std::to_string(passes.size()) +
        " passes; too few for a tail percentile";
    rep.named = {{"model_pass_s", median(passes), "s", n},
                 {"setup_s", setup, "s", "median of 5 set-ups"},
                 {"peak_rss_mb", rss, "MB", "benchmark process"}};
    std::string walls = "pass seconds:";
    for (double p : passes)
        walls += " " + std::to_string(p);
    rep.notes.push_back(walls);
    for (const auto &[model, c] : firstCycles)
        for (const auto &[arch, cyc] : c)
            rep.notes.push_back("cycles " + model + " " + arch + " " +
                                std::to_string(cyc));
    if (!opt.trace)
        return 0;

    // Traced pass, model by model: Engine::run under a span, then
    // runScenarioCases on the model's scenario, then the per-layer
    // replay, back to back so slow drifts in host speed hit all three
    // alike. Engine self time is Engine::run minus runScenarioCases;
    // workloads self time is runScenarioCases minus the replayed
    // children.
    Tracer tracer(true);
    const int root = tracer.begin("model-serial traced pass", "bench");
    double sumEngine = 0, sumCases = 0;
    LayerTimes lt;
    Replayer replay(reqs[0].expand()[0].options.fabricConfig(), tracer,
                    rep);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        sumEngine += runModel(i, tracer, root);
        const auto job = reqs[i].expand()[0];
        const double t0 = nowUs();
        const int span = tracer.begin("runScenarioCases " + order[i],
                                      "workloads", root);
        const CaseResult cases = engine::runScenarioCases(job.options);
        tracer.end(span);
        sumCases += nowUs() - t0;

        std::vector<std::string> baselines;
        for (const auto &[arch, prof] : cases)
            if (arch != "canon")
                baselines.push_back(arch);
        const int rspan =
            tracer.begin("replay " + order[i], "bench", root);
        const std::uint64_t canon =
            replay.model(modelByName(job.options.model), job.options.seed,
                         baselines, rspan, lt);
        tracer.end(rspan);
        ++rep.failures.attempted;
        const auto it = cases.find("canon");
        if (it == cases.end() || it->second.cycles != canon)
            rep.mismatch("replayed canon cycles of " + order[i] +
                         " differ from runScenarioCases");
    }
    tracer.end(root);

    const double untraced = passes.front() * 1e6;
    const auto spans = tracer.spans();
    const auto self = selfTimesUs(spans);
    rep.layers = {
        {"sparse.gen_ms", lt.gen / 1e3, "ms"},
        {"kernels.map_ms", lt.map / 1e3, "ms"},
        {"core.build_ms", lt.build / 1e3, "ms"},
        {"core.load_ms", lt.load / 1e3, "ms"},
        {"sim.run_ms", lt.run / 1e3, "ms"},
        {"sim.ns_per_pe_cycle",
         lt.peCycles ? lt.run * 1e3 / static_cast<double>(lt.peCycles)
                     : 0,
         "ns"},
        {"sim.cycles", static_cast<double>(lt.rawCycles), "count"},
        {"baselines.ms", lt.baselines / 1e3, "ms"},
        {"workloads.self_ms", (sumCases - lt.children()) / 1e3, "ms"},
        {"engine.self_ms", (sumEngine - sumCases) / 1e3, "ms"},
        {"runner.jobs", static_cast<double>(reqs.size()), "count"},
        {"trace.overhead_ms", (sumEngine - untraced) / 1e3, "ms"},
        {"trace.unaccounted_share",
         self[static_cast<std::size_t>(root)] /
             spans[static_cast<std::size_t>(root)].durationUs(),
         "ratio"},
    };
    rep.notes.push_back(
        "traced pass: Engine::run " + std::to_string(sumEngine / 1e6) +
        " s (untraced pass " + std::to_string(untraced / 1e6) +
        " s), runScenarioCases " + std::to_string(sumCases / 1e6) +
        " s, replayed children " + std::to_string(lt.children() / 1e6) +
        " s");
    if (!tracer.write(opt.work + "/spans.json"))
        rep.notes.push_back("could not write spans.json");
    for (const auto &[layer, us] : layerSelfUs(spans))
        rep.notes.push_back("span self " + layer + " " +
                            std::to_string(us / 1e3) + " ms");
    return 0;
}

} // namespace canonbench
