#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace canonbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
Quartiles::spread() const
{
    return q2 == 0 ? 0 : (q3 - q1) / q2;
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles, method='exclusive', n=4.
    const long n = 4;
    const long m = ld + 1;
    double out[3];
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        out[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                      v[j] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

namespace
{

/** ceil(p% of n), immune to 99.9 * n landing a hair above an integer. */
std::size_t
nearestRank(std::size_t n, double p)
{
    return static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[std::clamp<std::size_t>(nearestRank(v.size(), p), 1,
                                     v.size()) -
             1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n - std::min(nearestRank(n, p), n);
}

double
tailPercentile(std::size_t n, std::size_t min_beyond)
{
    double best = 0;
    for (double p : {90.0, 99.0, 99.9})
        if (samplesBeyond(n, p) >= min_beyond)
            best = p;
    return best;
}

void
LatencySet::addFailed()
{
    samples_.push_back(std::numeric_limits<double>::infinity());
    ++failed_;
}

double
FailureCount::ratio() const
{
    return attempted == 0 ? 0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace canonbench
