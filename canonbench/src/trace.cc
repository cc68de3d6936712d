#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace canonbench
{

double
nowUs()
{
    using namespace std::chrono;
    return duration<double, std::micro>(
               steady_clock::now().time_since_epoch())
        .count();
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startUs, s.endUs);

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        double cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.startUs);
            hi = std::min(hi, p.endUs);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = std::max(0.0, p.durationUs() - covered);
    }
    return self;
}

std::map<std::string, double>
layerSelfUs(const std::vector<Span> &spans)
{
    const auto self = selfTimesUs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += self[i];
    return out;
}

int
Tracer::begin(const std::string &name, const std::string &layer,
              int parent, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    const double t = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, t, t, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double t = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endUs = t;
}

int
Tracer::record(const std::string &name, const std::string &layer,
               double startUs, double endUs, int parent,
               std::uint64_t request)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, startUs, endUs, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
Tracer::write(const std::string &path) const
{
    const auto all = spans();
    const auto self = selfTimesUs(all);
    std::ofstream f(path);
    f << "[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        f << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"layer\": \"" << s.layer
          << "\", \"start_us\": " << static_cast<long long>(s.startUs)
          << ", \"end_us\": " << static_cast<long long>(s.endUs)
          << ", \"self_us\": " << static_cast<long long>(self[i])
          << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}"
          << (i + 1 < all.size() ? ",\n" : "\n");
    }
    f << "]\n";
    return static_cast<bool>(f);
}

} // namespace canonbench
