#include "requests.hh"

namespace canonbench
{

using canon::service::SubmitBody;

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix::below(std::uint64_t bound)
{
    return next() % bound;
}

namespace
{

const char *const kWorkloads[] = {"spmm", "sddmm", "gemm", "spmm-nm"};
const char *const kBaselines[] = {"systolic", "systolic24", "zed",
                                  "cgra"};
const char *const kSparsity[] = {"0.5", "0.7", "0.9"};

SubmitBody
request(const std::string &workload, std::uint64_t m, std::uint64_t k,
        std::uint64_t scenarios, const std::string &sparsity,
        const std::string &baseline, std::uint64_t first_seed,
        const std::string &client)
{
    SubmitBody b;
    b.client = client;
    b.opt("workload", workload)
        .opt("m", std::to_string(m))
        .opt("k", std::to_string(k))
        .opt("n", "64");
    if (workload == "spmm" || workload == "sddmm")
        b.opt("sparsity", sparsity);
    std::string seeds;
    for (std::uint64_t i = 0; i < scenarios; ++i)
        seeds += (i ? "," : "") + std::to_string(first_seed + i);
    if (scenarios == 1)
        b.opt("seed", seeds);
    else
        b.sweep("seed", seeds);
    b.arch("canon").arch(baseline);
    return b;
}

} // namespace

SubmitBody
makeRequest(SplitMix &rng, std::uint64_t first_seed,
            const std::string &client)
{
    const std::string workload = kWorkloads[rng.below(4)];
    const std::uint64_t m = 64 * (1 + rng.below(4));
    const std::uint64_t k = 64 * (1 + rng.below(4));
    const std::uint64_t scenarios = 1 + rng.below(3);
    const std::string baseline = kBaselines[rng.below(4)];
    const std::string sparsity = kSparsity[rng.below(3)];
    return request(workload, m, k, scenarios, sparsity, baseline,
                   first_seed, client);
}

std::vector<SubmitBody>
hotPool(std::uint64_t seed, std::size_t count)
{
    // A fixed, balanced design: every workload at every size, so the
    // pool's simulation cost hardly depends on the seed. The seed
    // picks the baselines and the scenario seeds (the matrices).
    SplitMix rng(seed ^ 0x686f74ull);
    const std::uint64_t base = 1 + (seed % 4096) * 4096;
    std::vector<SubmitBody> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t m = 64 * (1 + (i / 4) % 4);
        const std::uint64_t k = 64 * (1 + (i + i / 4) % 4);
        pool.push_back(request(kWorkloads[i % 4], m, k, 1 + i % 3,
                               kSparsity[i % 3],
                               kBaselines[rng.below(4)], base + 4 * i,
                               "hot"));
    }
    return pool;
}

Pick
clientPick(std::uint64_t seed, int client, std::uint64_t index,
           std::size_t hot_count)
{
    SplitMix rng(seed * 0x100000001b3ull ^
                 (static_cast<std::uint64_t>(client) << 48) ^ index);
    rng.next();
    Pick p;
    p.hot = rng.below(2) == 0;
    if (p.hot) {
        p.hotIndex = static_cast<std::size_t>(rng.below(hot_count));
        return p;
    }
    // Unique per (client, index): 2^32 + (client << 24 | index) * 4,
    // so the up to three seeds of one request never meet another's;
    // hot seeds stay below 2^25.
    const std::uint64_t first =
        (1ull << 32) +
        ((static_cast<std::uint64_t>(client) << 24) | index) * 4;
    p.fresh = makeRequest(rng, first, "client" + std::to_string(client));
    return p;
}

std::string
describe(const SubmitBody &body)
{
    std::string s;
    for (const auto &e : body.entries) {
        if (!s.empty())
            s += ' ';
        switch (e.kind) {
          case SubmitBody::Entry::Kind::Opt:
            s += e.key + "=" + e.value;
            break;
          case SubmitBody::Entry::Kind::Sweep:
            s += "sweep." + e.key + "=" + e.value;
            break;
          case SubmitBody::Entry::Kind::Arch:
            s += "arch=" + e.value;
            break;
        }
    }
    return s;
}

} // namespace canonbench
