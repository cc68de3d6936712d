/**
 * @file
 * service-mixed: a canond process (--jobs 4, default --max-active 2,
 * fresh cache directory) and four service::Client connections, each
 * in a closed loop. About half the submissions repeat a request from
 * the hot pool that set-up already ran (cache reads); the rest are
 * unique fresh-seed requests (cache misses that simulate and write).
 * This is the one workload where the service layer, Engine::plan on
 * every submit, and cache reads matter; with two admission slots,
 * hits can queue behind misses.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "requests.hh"

#include "cache/store.hh"
#include "engine/engine.hh"
#include "service/client.hh"
#include "service/render.hh"

namespace canonbench
{

namespace
{

namespace fs = std::filesystem;
using canon::service::Client;
using canon::service::SubmitBody;
using canon::service::SubmitOutcome;

constexpr int kClients = 4;
constexpr std::size_t kHot = 16;
constexpr std::size_t kWindow = 32; //!< requests per "pass"

/** A canond child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &cacheDir)
        : socket_(socket)
    {
        pid_ = fork();
        if (pid_ == 0) {
            // Quiet the daemon's own log lines; results come back
            // over the socket.
            std::freopen("/dev/null", "w", stderr);
            execl(binary.c_str(), binary.c_str(), "--socket",
                  socket.c_str(), "--jobs", "4", "--cache-dir",
                  cacheDir.c_str(), static_cast<char *>(nullptr));
            _exit(127);
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Wait until a client completes the handshake; "" on success. */
    std::string waitReady(Client &probe)
    {
        std::string err = "fork failed";
        for (int i = 0; pid_ > 0 && i < 1000; ++i) {
            err = probe.connect(socket_);
            if (err.empty())
                return err;
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return "canond exited during start-up";
            }
            usleep(10000);
        }
        return "canond not ready: " + err;
    }

    /** Peak RSS (VmHWM) in MB; 0 when unreadable. */
    double peakRssMb() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(f, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;
        return 0;
    }

    /** SIGTERM (drain), then SIGKILL past 20 s; reaps the child. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        int status = 0;
        for (int i = 0; i < 2000; ++i) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            usleep(10000);
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** Hits and misses from a Done frame's "cache: H hits, M misses". */
bool
parseCacheLine(const std::string &line, std::uint64_t &hits,
               std::uint64_t &misses)
{
    return std::sscanf(line.c_str(), "cache: %lu hits, %lu misses",
                       &hits, &misses) == 2;
}

struct Sample
{
    bool hot = false;
    bool hit = false;
    bool ok = false;
    double startUs = 0, endUs = 0, firstResultUs = 0;
    double queueWaitMs = 0;
    std::uint64_t hits = 0, misses = 0;
};

struct Submitted
{
    bool ok = false;
    std::string text;       //!< concatenated Result frame texts
    double firstResultUs = 0;
    SubmitOutcome outcome;
    std::string error;
};

Submitted
submit(Client &c, const SubmitBody &body)
{
    Submitted s;
    s.ok = c.submit(
        body,
        [&](std::size_t, const std::string &text) {
            if (s.firstResultUs == 0)
                s.firstResultUs = nowUs();
            s.text += text;
        },
        s.outcome, s.error);
    return s;
}

/** Run @p fn(client) on every connection at once and join. */
template <typename Fn>
void
onEveryClient(std::vector<std::unique_ptr<Client>> &clients, Fn fn)
{
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] { fn(c, *clients[static_cast<std::size_t>(c)]); });
    for (auto &t : threads)
        t.join();
}

struct Phase
{
    std::vector<Sample> samples;
    double startUs = 0, endUs = 0;
};

/**
 * The timed closed loop: each client submits its own seeded sequence
 * until @p seconds have passed, continuing from @p next[c].
 */
Phase
runPhase(std::vector<std::unique_ptr<Client>> &clients,
         const std::vector<SubmitBody> &hot,
         const std::vector<std::string> &expected, const RunOptions &opt,
         std::vector<std::uint64_t> &next, Tracer &tracer, Report &rep)
{
    Phase ph;
    std::mutex mu; // guards ph.samples and rep
    ph.startUs = nowUs();
    const double deadline = ph.startUs + opt.seconds * 1e6;
    const int root = tracer.begin("service-mixed traced phase", "bench");
    onEveryClient(clients, [&](int c, Client &client) {
        const std::string name = "client" + std::to_string(c);
        while (nowUs() < deadline) {
            const std::uint64_t idx = next[static_cast<std::size_t>(c)]++;
            Pick pick = clientPick(opt.seed, c, idx, hot.size());
            SubmitBody body = pick.hot ? hot[pick.hotIndex] : pick.fresh;
            body.client = name;
            const std::uint64_t reqId =
                (static_cast<std::uint64_t>(c + 1) << 32) | idx;
            Sample s;
            s.hot = pick.hot;
            s.startUs = nowUs();
            const int span =
                tracer.begin("request", "service", root, reqId);
            const Submitted r = submit(client, body);
            tracer.end(span);
            s.endUs = nowUs();
            if (r.firstResultUs > 0)
                tracer.record("first result", "service", s.startUs,
                              r.firstResultUs, span, reqId);
            s.firstResultUs = r.firstResultUs;
            std::lock_guard<std::mutex> lock(mu);
            ++rep.failures.attempted;
            if (!r.ok) {
                ++rep.failures.errors;
                rep.notes.push_back(name + ": " + r.error);
            } else if (!r.outcome.accepted) {
                ++rep.failures.refused;
                rep.notes.push_back(name + " refused: " +
                                    r.outcome.message);
            } else if (r.outcome.done.failures != 0) {
                ++rep.failures.errors;
                rep.notes.push_back(name + ": scenario failures in " +
                                    describe(body));
            } else {
                s.ok = parseCacheLine(r.outcome.done.cacheLine, s.hits,
                                      s.misses);
                if (!s.ok)
                    rep.mismatch("unparsable cache line: " +
                                 r.outcome.done.cacheLine);
                s.hit = s.ok && s.misses == 0;
                s.queueWaitMs =
                    static_cast<double>(r.outcome.done.queueWaitUs) / 1e3;
                if (pick.hot && r.text != expected[pick.hotIndex])
                    rep.mismatch("hot request " +
                                 std::to_string(pick.hotIndex) +
                                 " streamed different bytes");
            }
            ph.samples.push_back(s);
        }
    });
    tracer.end(root);
    ph.endUs = nowUs();
    return ph;
}

/** Median seconds per kWindow consecutive completions. */
double
windowSeconds(const Phase &ph)
{
    std::vector<double> ends;
    for (const Sample &s : ph.samples)
        ends.push_back(s.endUs);
    std::sort(ends.begin(), ends.end());
    std::vector<double> w;
    double prev = ph.startUs;
    for (std::size_t i = kWindow; i <= ends.size(); i += kWindow) {
        w.push_back(secondsBetween(prev, ends[i - 1]));
        prev = ends[i - 1];
    }
    return median(w);
}

struct Classes
{
    LatencySet hit, miss;
    std::vector<double> hitQueue, missQueue, firstResult;
    std::uint64_t hits = 0, lookups = 0;
};

Classes
classify(const Phase &ph)
{
    Classes k;
    for (const Sample &s : ph.samples) {
        if (!s.ok) {
            (s.hot ? k.hit : k.miss).addFailed();
            continue;
        }
        const double ms = (s.endUs - s.startUs) / 1e3;
        k.hits += s.hits;
        k.lookups += s.hits + s.misses;
        if (s.hit) {
            k.hit.add(ms);
            k.hitQueue.push_back(s.queueWaitMs);
            if (s.firstResultUs > 0)
                k.firstResult.push_back(
                    (s.firstResultUs - s.startUs) / 1e3);
        } else {
            k.miss.add(ms);
            k.missQueue.push_back(s.queueWaitMs);
        }
    }
    return k;
}

Metric
latencyMetric(const std::string &name, const LatencySet &set, double p)
{
    const double tail = tailPercentile(set.size());
    std::string note = "n=" + std::to_string(set.size()) + ", " +
                       std::to_string(set.failed()) + " failed";
    if (p > 50 && tail < p)
        note += "; fewer than 10 samples beyond p" +
                std::to_string(static_cast<int>(p));
    if (p > 50 && tail > p)
        note += "; highest tail with 10 beyond: p" +
                std::to_string(tail).substr(0, 4) + " = " +
                std::to_string(set.p(tail)) + " ms";
    return {name, set.p(p), "ms", note};
}

/** Start a daemon on a fresh cache dir, connect, pre-warm the hot
 *  pool. Fills @p texts with what each hot request streamed. */
std::unique_ptr<Daemon>
setUp(const RunOptions &opt, int i,
      const std::vector<SubmitBody> &hot,
      std::vector<std::unique_ptr<Client>> &clients,
      std::vector<std::string> &texts, std::vector<double> &connectMs,
      Report &rep, std::string &cacheDir)
{
    cacheDir = "cache" + std::to_string(i);
    fs::create_directories(cacheDir);
    const std::string sock = "canond" + std::to_string(i) + ".sock";
    auto d = std::make_unique<Daemon>(opt.canond, sock, cacheDir);
    clients.clear();
    for (int c = 0; c < kClients; ++c)
        clients.push_back(std::make_unique<Client>());
    if (std::string err = d->waitReady(*clients[0]); !err.empty()) {
        rep.notes.push_back(err);
        return nullptr;
    }
    for (int c = 1; c < kClients; ++c) {
        const double t0 = nowUs();
        if (std::string err = clients[static_cast<std::size_t>(c)]->connect(sock);
            !err.empty()) {
            rep.notes.push_back("connect: " + err);
            return nullptr;
        }
        connectMs.push_back((nowUs() - t0) / 1e3);
    }
    texts.assign(hot.size(), "");
    std::mutex mu;
    bool failed = false;
    onEveryClient(clients, [&](int c, Client &client) {
        for (std::size_t h = static_cast<std::size_t>(c); h < hot.size();
             h += kClients) {
            const Submitted r = submit(client, hot[h]);
            std::lock_guard<std::mutex> lock(mu);
            if (!r.ok || !r.outcome.accepted ||
                r.outcome.done.failures != 0)
                failed = true;
            texts[h] = r.text;
        }
    });
    if (failed) {
        rep.notes.push_back("pre-warm failed");
        return nullptr;
    }
    return d;
}

} // namespace

int
runServiceMixed(const RunOptions &opt, Report &rep)
{
    // Sockets and cache directories are relative to the work
    // directory, keeping the socket path short.
    fs::create_directories(opt.work);
    const fs::path home = fs::current_path();
    fs::current_path(opt.work);
    struct Restore
    {
        fs::path p;
        ~Restore() { fs::current_path(p); }
    } restore{home};

    const std::vector<SubmitBody> hot = hotPool(opt.seed, kHot);

    // Set-up three times (daemon start, cache dir, pre-warm); the
    // last daemon serves the timed phase. Every pre-warm must stream
    // the same bytes.
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::string> expected, texts;
    std::vector<double> setups, connectMs;
    std::unique_ptr<Daemon> d;
    std::string cacheDir;
    for (int i = 0; i < 3; ++i) {
        if (d) {
            clients.clear();
            d->stop();
        }
        const double t0 = nowUs();
        d = setUp(opt, i, hot, clients, texts, connectMs, rep, cacheDir);
        if (!d)
            return 1;
        setups.push_back(secondsBetween(t0, nowUs()));
        if (expected.empty())
            expected = texts;
        else if (texts != expected)
            rep.mismatch("pre-warm streams differ between set-ups");
    }

    std::vector<std::uint64_t> next(kClients, 0);
    Tracer off(false);
    const Phase ph =
        runPhase(clients, hot, expected, opt, next, off, rep);
    Classes k = classify(ph);
    const double rss = d->peakRssMb();
    const double elapsed = secondsBetween(ph.startUs, ph.endUs);
    const double pass = windowSeconds(ph);
    const double setup = median(setups);
    rep.endToEnd = {{"pass_s", pass, "s"},
                    {"peak_rss_mb", rss, "MB"},
                    {"setup_s", setup, "s"}};
    const double hitShare =
        ph.samples.empty()
            ? 0
            : static_cast<double>(k.hit.size()) /
                  static_cast<double>(ph.samples.size());
    rep.named = {
        latencyMetric("svc_hit_p50_ms", k.hit, 50),
        latencyMetric("svc_hit_p90_ms", k.hit, 90),
        latencyMetric("svc_miss_p50_ms", k.miss, 50),
        latencyMetric("svc_miss_p90_ms", k.miss, 90),
        {"svc_requests_per_s",
         static_cast<double>(ph.samples.size()) / elapsed, "1/s",
         std::to_string(ph.samples.size()) + " requests"},
        {"setup_s", setup, "s", "median of 3 set-ups"},
        {"peak_rss_mb", rss, "MB", "canond process"},
    };
    rep.notes.push_back("load generator: 1 process, " +
                        std::to_string(kClients) + " threads, " +
                        std::to_string(kClients) +
                        " connections, closed loop; hit share " +
                        std::to_string(hitShare) + "; pass = " +
                        std::to_string(kWindow) + " requests");
    if (!opt.trace) {
        clients.clear();
        d->stop();
        return 0;
    }

    // Traced phase, then the in-process probes against the cache the
    // daemon filled.
    Tracer tracer(true);
    const Phase tph =
        runPhase(clients, hot, expected, opt, next, tracer, rep);
    const Classes tk = classify(tph);
    clients.clear();
    d->stop();

    canon::engine::Engine eng(canon::engine::EngineConfig{
        .jobs = 1, .cacheDir = cacheDir,
        .cacheMode = canon::cache::Mode::Read});
    const canon::cache::ResultStore store(cacheDir,
                                          canon::cache::Mode::Read);
    std::vector<double> planMs, lookupUs, renderUs;
    for (const SubmitBody &body : hot) {
        const auto req = canon::service::requestFromSubmit(body);
        const double t0 = nowUs();
        const auto plan = eng.plan(req);
        planMs.push_back((nowUs() - t0) / 1e3);
        for (const auto &p : plan) {
            const double l0 = nowUs();
            const bool found = store.lookup(p.key).has_value();
            lookupUs.push_back(nowUs() - l0);
            if (!found)
                rep.mismatch("hot key missing from the store");
        }
        const auto rs = eng.run(req);
        for (const auto &r : rs.scenarios()) {
            const double r0 = nowUs();
            const std::string text = canon::service::renderScenarioText(r);
            const std::string frame =
                canon::service::encodeResultFrame(r.job.index, r);
            renderUs.push_back(nowUs() - r0);
            if (text.empty() || frame.empty())
                rep.mismatch("empty rendered result");
        }
    }

    const auto spans = tracer.spans();
    const auto self = selfTimesUs(spans);
    const double rootUs = spans.empty() ? 1 : spans[0].durationUs();
    rep.layers = {
        {"cache.lookup_us", median(lookupUs), "us"},
        {"cache.hit_ratio",
         tk.lookups ? static_cast<double>(tk.hits) /
                          static_cast<double>(tk.lookups)
                    : 0,
         "ratio"},
        {"engine.plan_ms", median(planMs), "ms"},
        {"service.connect_ms", median(connectMs), "ms"},
        {"service.hit_queue_wait_ms", median(tk.hitQueue), "ms"},
        {"service.miss_queue_wait_ms", median(tk.missQueue), "ms"},
        {"service.first_result_ms", median(tk.firstResult), "ms"},
        {"service.render_us", median(renderUs), "us"},
        {"trace.overhead_ms", (windowSeconds(tph) - pass) * 1e3, "ms"},
        {"trace.unaccounted_share", spans.empty() ? 0 : self[0] / rootUs,
         "ratio"},
    };
    rep.notes.push_back(
        "traced phase: " + std::to_string(tph.samples.size()) +
        " requests, hit p50 " + std::to_string(tk.hit.p(50)) +
        " ms, miss p50 " + std::to_string(tk.miss.p(50)) + " ms");
    if (!tracer.write("spans.json"))
        rep.notes.push_back("could not write spans.json");
    return 0;
}

} // namespace canonbench
