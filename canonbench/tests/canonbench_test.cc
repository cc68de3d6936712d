/**
 * @file
 * Unit tests for the benchmark's own code: order statistics, tail
 * percentile choice, failure counting, span self time and the seeded
 * request stream.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "metrics.hh"
#include "requests.hh"
#include "trace.hh"

using namespace canonbench;

TEST(Metrics, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(Metrics, QuartilesMatchPythonExclusive)
{
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    EXPECT_DOUBLE_EQ(q.spread(), (8.25 - 2.75) / 5.5);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    const Quartiles two = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(two.q1, 0.75);
    EXPECT_DOUBLE_EQ(two.q2, 1.5);
    EXPECT_DOUBLE_EQ(two.q3, 2.25);
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    const Quartiles five = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(five.q1, 1.5);
    EXPECT_DOUBLE_EQ(five.q2, 3.0);
    EXPECT_DOUBLE_EQ(five.q3, 4.5);
    EXPECT_EQ(quartiles({7}).q1, 7);
}

TEST(Metrics, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 90), 90);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile({5}, 90), 5);
}

TEST(Metrics, TailNeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_EQ(samplesBeyond(99, 90), 9u);
    EXPECT_EQ(tailPercentile(99), 0);
    EXPECT_EQ(tailPercentile(100), 90);
    EXPECT_EQ(tailPercentile(999), 90);
    EXPECT_EQ(tailPercentile(1000), 99);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(tailPercentile(50, 5), 90);
}

TEST(Metrics, FailedRequestsMissEveryLimit)
{
    LatencySet s;
    for (int i = 0; i < 8; ++i)
        s.add(1.0);
    s.addFailed();
    s.addFailed();
    EXPECT_EQ(s.size(), 10u);
    EXPECT_EQ(s.failed(), 2u);
    EXPECT_EQ(s.p(50), 1.0);
    EXPECT_TRUE(std::isinf(s.p(90)));
}

TEST(Metrics, FailureCounting)
{
    FailureCount f;
    EXPECT_EQ(f.ratio(), 0);
    f.attempted = 10;
    f.errors = 1;
    f.refused = 2;
    f.mismatches = 1;
    EXPECT_EQ(f.failed(), 4u);
    EXPECT_DOUBLE_EQ(f.ratio(), 0.4);
}

TEST(Metrics, DigestIsFnv1a)
{
    EXPECT_EQ(digest(""), "cbf29ce484222325");
    EXPECT_EQ(digest("a"), "af63dc4c8601ec8c");
}

TEST(Trace, SelfTimeSubtractsChildren)
{
    std::vector<Span> s = {
        {"root", "bench", 0, 100, -1, 0},
        {"a", "engine", 10, 30, 0, 0},
        {"b", "sim", 40, 60, 0, 0},
    };
    const auto self = selfTimesUs(s);
    EXPECT_DOUBLE_EQ(self[0], 60);
    EXPECT_DOUBLE_EQ(self[1], 20);
    EXPECT_DOUBLE_EQ(self[2], 20);
}

TEST(Trace, OverlappingChildrenAcrossWorkersCountOnce)
{
    // Pool workers run children at once: [10, 50), [30, 70) and
    // [70, 80) cover [10, 80), 70 us, not the 90 their durations sum to.
    std::vector<Span> s = {
        {"root", "bench", 0, 100, -1, 0},
        {"w1", "runner", 10, 50, 0, 1},
        {"w2", "runner", 30, 70, 0, 2},
        {"w3", "runner", 70, 80, 0, 3}, // touches w2: still merged
    };
    const auto self = selfTimesUs(s);
    EXPECT_DOUBLE_EQ(self[0], 30);
    const auto layers = layerSelfUs(s);
    EXPECT_DOUBLE_EQ(layers.at("bench"), 30);
    // A layer's total is busy time summed over workers.
    EXPECT_DOUBLE_EQ(layers.at("runner"), 90);
}

TEST(Trace, ChildrenAreClippedToTheParent)
{
    std::vector<Span> s = {
        {"root", "bench", 0, 100, -1, 0},
        {"late", "sim", 90, 150, 0, 0},
        {"grandchild", "sim", 95, 99, 1, 0},
    };
    const auto self = selfTimesUs(s);
    EXPECT_DOUBLE_EQ(self[0], 90);
    EXPECT_DOUBLE_EQ(self[1], 56);
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    Tracer t(false);
    const int off = t.begin("x", "bench");
    EXPECT_EQ(off, -1);
    t.end(off);
    EXPECT_EQ(t.record("y", "bench", 0, 1), -1);
    EXPECT_TRUE(t.spans().empty());
    Tracer on(true);
    const int outer = on.begin("outer", "bench");
    const int inner = on.begin("inner", "sim", outer, 7);
    on.end(inner);
    on.end(outer);
    const auto spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].request, 7u);
    EXPECT_LE(spans[0].startUs, spans[1].startUs);
    EXPECT_GE(spans[0].endUs, spans[1].endUs);
}

TEST(Requests, SameSeedSameStream)
{
    const auto a = hotPool(42, 16);
    const auto b = hotPool(42, 16);
    ASSERT_EQ(a.size(), 16u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(describe(a[i]), describe(b[i]));
    for (int c = 0; c < 4; ++c)
        for (std::uint64_t i = 0; i < 50; ++i) {
            const Pick x = clientPick(42, c, i, 16);
            const Pick y = clientPick(42, c, i, 16);
            EXPECT_EQ(x.hot, y.hot);
            EXPECT_EQ(x.hotIndex, y.hotIndex);
            EXPECT_EQ(describe(x.fresh), describe(y.fresh));
        }
}

TEST(Requests, DifferentSeedsDiffer)
{
    const auto a = hotPool(1, 16);
    const auto b = hotPool(2, 16);
    int same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += describe(a[i]) == describe(b[i]);
    EXPECT_LT(same, 16);
}

TEST(Requests, ShapeBoundsAndRoughlyHalfHot)
{
    int hot = 0, total = 0;
    std::set<std::string> fresh;
    for (int c = 0; c < 4; ++c)
        for (std::uint64_t i = 0; i < 250; ++i) {
            const Pick p = clientPick(7, c, i, 16);
            ++total;
            if (p.hot) {
                ++hot;
                EXPECT_LT(p.hotIndex, 16u);
                continue;
            }
            // Fresh requests never repeat: their seeds are unique.
            EXPECT_TRUE(fresh.insert(describe(p.fresh)).second);
            int archs = 0;
            for (const auto &e : p.fresh.entries) {
                if (e.key == "m" || e.key == "k") {
                    const int v = std::stoi(e.value);
                    EXPECT_GE(v, 64);
                    EXPECT_LE(v, 256);
                }
                archs += e.kind ==
                         canon::service::SubmitBody::Entry::Kind::Arch;
            }
            EXPECT_EQ(archs, 2);
        }
    EXPECT_GT(hot, total * 4 / 10);
    EXPECT_LT(hot, total * 6 / 10);
}
