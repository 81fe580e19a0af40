/**
 * @file
 * Tests of the observability layer: metrics registry exactness under
 * concurrency, histogram-vs-exact percentile agreement, trace-buffer
 * bounded-drop accounting, Chrome trace export well-formedness
 * (parsed back with a minimal JSON parser), the zero-overhead
 * contract when tracing is disabled, serving-engine histogram
 * consistency with ServingStats, and the end-to-end `recstack obs`
 * acceptance run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "serve/serving_node.h"

namespace recstack {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser, just enough to validate the
// exports: objects, arrays, strings, numbers, bools, null.

struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue& at(const std::string& key) const
    {
        static const JsonValue null_value;
        const auto it = object.find(key);
        return it == object.end() ? null_value : it->second;
    }
    bool has(const std::string& key) const
    {
        return object.find(key) != object.end();
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    bool parse(JsonValue* out)
    {
        skipWs();
        if (!parseValue(out)) {
            return false;
        }
        skipWs();
        return pos_ == text_.size();
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool parseValue(JsonValue* out)
    {
        if (pos_ >= text_.size()) {
            return false;
        }
        const char c = text_[pos_];
        if (c == '{') {
            return parseObject(out);
        }
        if (c == '[') {
            return parseArray(out);
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::kString;
            return parseString(&out->str);
        }
        if (c == 't' || c == 'f') {
            const char* word = c == 't' ? "true" : "false";
            if (text_.compare(pos_, std::strlen(word), word) != 0) {
                return false;
            }
            pos_ += std::strlen(word);
            out->kind = JsonValue::Kind::kBool;
            out->boolean = c == 't';
            return true;
        }
        if (c == 'n') {
            if (text_.compare(pos_, 4, "null") != 0) {
                return false;
            }
            pos_ += 4;
            out->kind = JsonValue::Kind::kNull;
            return true;
        }
        return parseNumber(out);
    }

    bool parseString(std::string* out)
    {
        if (text_[pos_] != '"') {
            return false;
        }
        ++pos_;
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    return false;
                }
                const char esc = text_[pos_++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 'r': c = '\r'; break;
                  case 't': c = '\t'; break;
                  case 'u':
                    if (pos_ + 4 > text_.size()) {
                        return false;
                    }
                    // Validation only: keep the raw escape.
                    out->append("\\u");
                    out->append(text_, pos_, 4);
                    pos_ += 4;
                    continue;
                  default: c = esc; break;
                }
            }
            out->push_back(c);
        }
        if (pos_ >= text_.size()) {
            return false;
        }
        ++pos_;  // closing quote
        return true;
    }

    bool parseNumber(JsonValue* out)
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) {
            return false;
        }
        out->kind = JsonValue::Kind::kNumber;
        out->number = std::atof(text_.substr(start, pos_ - start).c_str());
        return true;
    }

    bool parseArray(JsonValue* out)
    {
        ++pos_;  // '['
        out->kind = JsonValue::Kind::kArray;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            skipWs();
            if (!parseValue(&item)) {
                return false;
            }
            out->array.push_back(std::move(item));
            skipWs();
            if (pos_ >= text_.size()) {
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool parseObject(JsonValue* out)
    {
        ++pos_;  // '{'
        out->kind = JsonValue::Kind::kObject;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(&key)) {
                return false;
            }
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                return false;
            }
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(&value)) {
                return false;
            }
            out->object.emplace(std::move(key), std::move(value));
            skipWs();
            if (pos_ >= text_.size()) {
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string& text_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Counter, StripedConcurrentAddsAreExact)
{
    obs::Counter counter;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                counter.add();
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, LastWriteWins)
{
    obs::Gauge gauge;
    gauge.set(3.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
    gauge.set(-1.0);
    EXPECT_DOUBLE_EQ(gauge.value(), -1.0);
    gauge.reset();
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordsKeepExactTotals)
{
    obs::LatencyHistogram hist(0.0, 1.0, 100);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, t] {
            Rng rng(static_cast<uint64_t>(t) + 1);
            for (int i = 0; i < kPerThread; ++i) {
                hist.record(rng.nextDouble());
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    const obs::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.total,
              static_cast<uint64_t>(kThreads) * kPerThread);
    uint64_t bucket_sum = 0;
    for (uint64_t c : snap.counts) {
        bucket_sum += c;
    }
    EXPECT_EQ(bucket_sum, snap.total);
    // Uniform samples on [0,1): the mean converges to 0.5.
    EXPECT_NEAR(snap.mean(), 0.5, 0.01);
}

TEST(LatencyHistogram, PercentileAgreesWithExactWithinOneBucket)
{
    obs::LatencyHistogram hist(0.0, 1.0, 1000);
    Rng rng(7);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        // Skewed tail, like a latency distribution.
        const double x = std::pow(rng.nextDouble(), 3.0);
        samples.push_back(x);
        hist.record(x);
    }
    std::sort(samples.begin(), samples.end());
    const obs::HistogramSnapshot snap = hist.snapshot();
    const double tol = snap.bucketWidth();
    for (double p : {0.5, 0.9, 0.95, 0.99, 0.999}) {
        EXPECT_NEAR(snap.percentile(p), percentileOfSorted(samples, p),
                    tol)
            << "p=" << p;
    }
}

TEST(LatencyHistogram, MergedShardsMatchSingleHistogramExactly)
{
    // Bucketing is deterministic, so recording samples into per-node
    // shards and merging must reproduce the single-histogram counts
    // bit for bit — and therefore every percentile. This is the
    // contract the fleet p99 roll-up rests on.
    constexpr int kShards = 4;
    obs::LatencyHistogram single(0.0, 0.5, 500);
    std::vector<std::unique_ptr<obs::LatencyHistogram>> shards;
    for (int s = 0; s < kShards; ++s) {
        shards.push_back(
            std::make_unique<obs::LatencyHistogram>(0.0, 0.5, 500));
    }
    Rng rng(21);
    for (int i = 0; i < 40000; ++i) {
        const double x = 0.6 * std::pow(rng.nextDouble(), 2.0);
        single.record(x);
        shards[static_cast<size_t>(i % kShards)]->record(x);
    }

    // Snapshot-level merge.
    obs::HistogramSnapshot merged = shards[0]->snapshot();
    for (int s = 1; s < kShards; ++s) {
        merged.merge(shards[static_cast<size_t>(s)]->snapshot());
    }
    const obs::HistogramSnapshot exact = single.snapshot();
    EXPECT_EQ(merged.total, exact.total);
    ASSERT_EQ(merged.counts.size(), exact.counts.size());
    for (size_t b = 0; b < exact.counts.size(); ++b) {
        ASSERT_EQ(merged.counts[b], exact.counts[b]) << "bucket " << b;
    }
    for (double p : {0.5, 0.9, 0.99, 0.999}) {
        EXPECT_DOUBLE_EQ(merged.percentile(p), exact.percentile(p))
            << "p=" << p;
    }

    // Histogram-level merge folds shards into a live histogram.
    obs::LatencyHistogram folded(0.0, 0.5, 500);
    for (const auto& shard : shards) {
        folded.merge(*shard);
    }
    const obs::HistogramSnapshot folded_snap = folded.snapshot();
    EXPECT_EQ(folded_snap.total, exact.total);
    EXPECT_DOUBLE_EQ(folded_snap.percentile(0.99),
                     exact.percentile(0.99));
}

TEST(LatencyHistogram, MergeRejectsMismatchedBounds)
{
    obs::LatencyHistogram a(0.0, 1.0, 100);
    obs::LatencyHistogram b(0.0, 2.0, 100);
    EXPECT_DEATH(a.merge(b), "check failed");
}

TEST(LatencyHistogram, OutOfRangeSamplesClampToEdgeBuckets)
{
    obs::LatencyHistogram hist(0.0, 1.0, 10);
    hist.record(-5.0);
    hist.record(42.0);
    const obs::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.counts.front(), 1u);
    EXPECT_EQ(snap.counts.back(), 1u);
    EXPECT_EQ(snap.total, 2u);
}

TEST(MetricsRegistry, HandlesAreStableAndResetKeepsRegistrations)
{
    obs::MetricsRegistry registry;
    obs::Counter& c1 = registry.counter("test.counter");
    obs::Counter& c2 = registry.counter("test.counter");
    EXPECT_EQ(&c1, &c2);
    c1.add(3);
    registry.gauge("test.gauge").set(2.5);
    registry.histogram("test.hist", 0.0, 1.0, 10).record(0.25);

    obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("test.counter"), 3u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge"), 2.5);
    EXPECT_EQ(snap.histograms.at("test.hist").total, 1u);

    registry.reset();
    c1.add(1);  // the pre-reset handle still works
    snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("test.counter"), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge"), 0.0);
    EXPECT_EQ(snap.histograms.at("test.hist").total, 0u);
}

TEST(MetricsRegistry, ConcurrentMixedUpdatesStayExact)
{
    obs::MetricsRegistry registry;
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            // Registration and update race deliberately.
            obs::Counter& c = registry.counter("mixed.counter");
            obs::LatencyHistogram& h =
                registry.histogram("mixed.hist", 0.0, 1.0, 50);
            Rng rng(static_cast<uint64_t>(t) + 11);
            for (int i = 0; i < kIters; ++i) {
                c.add();
                h.record(rng.nextDouble());
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("mixed.counter"),
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(snap.histograms.at("mixed.hist").total,
              static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, RenderJsonParsesBack)
{
    obs::MetricsRegistry registry;
    registry.counter("a.count").add(5);
    registry.gauge("b.gauge").set(1.25);
    registry.histogram("c.hist", 0.0, 1.0, 10).record(0.5);

    const std::string json = registry.snapshot().renderJson();
    JsonValue doc;
    ASSERT_TRUE(JsonParser(json).parse(&doc)) << json;
    EXPECT_EQ(doc.at("counters").at("a.count").number, 5.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("b.gauge").number, 1.25);
    EXPECT_EQ(doc.at("histograms").at("c.hist").at("count").number, 1.0);
}

// ---------------------------------------------------------------------------
// Trace buffer + spans

/// Restores the process tracing flag on scope exit so tests cannot
/// leak an enabled flag into unrelated suites.
struct TraceFlagGuard {
    TraceFlagGuard() : prev_(obs::traceEnabled()) {}
    ~TraceFlagGuard() { obs::setTraceEnabled(prev_); }
    const bool prev_;
};

TEST(TraceBuffer, BoundedWithDropAccounting)
{
    obs::TraceBuffer buffer(16);
    obs::SpanRecord rec;
    std::snprintf(rec.name, sizeof(rec.name), "test.span");
    for (int i = 0; i < 20; ++i) {
        rec.startNs = static_cast<uint64_t>(i);
        rec.endNs = rec.startNs + 1;
        buffer.record(rec);
    }
    EXPECT_EQ(buffer.size(), 16u);
    EXPECT_EQ(buffer.dropped(), 4u);
    const obs::TraceSnapshot snap = buffer.snapshot();
    EXPECT_EQ(snap.spans.size(), 16u);
    EXPECT_EQ(snap.dropped, 4u);
    // Drop-new policy: the oldest records survive.
    EXPECT_EQ(snap.spans.front().startNs, 0u);
    EXPECT_EQ(snap.spans.back().startNs, 15u);

    buffer.clear();
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.dropped(), 0u);
    EXPECT_TRUE(buffer.snapshot().spans.empty());
}

TEST(TraceBuffer, ConcurrentRecordsAllCommit)
{
    obs::TraceBuffer buffer(100000);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&buffer] {
            obs::SpanRecord rec;
            std::snprintf(rec.name, sizeof(rec.name), "concurrent");
            for (int i = 0; i < kPerThread; ++i) {
                buffer.record(rec);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(buffer.size(),
              static_cast<size_t>(kThreads) * kPerThread);
    EXPECT_EQ(buffer.dropped(), 0u);
    EXPECT_EQ(buffer.snapshot().spans.size(),
              static_cast<size_t>(kThreads) * kPerThread);
}

TEST(ScopedSpan, DisabledSpansWriteNothing)
{
    TraceFlagGuard guard;
    obs::setTraceEnabled(false);
    obs::TraceBuffer& buffer = obs::TraceBuffer::global();
    buffer.clear();
    for (int i = 0; i < 100; ++i) {
        RECSTACK_SPAN("test.disabled", {{"i", i}});
    }
    {
        obs::ScopedSpan span("test", "disabled_two_part");
        span.arg("late", 1);
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(ScopedSpan, EnabledSpansRecordNamesArgsAndMonotonicTimes)
{
    TraceFlagGuard guard;
    obs::TraceBuffer& buffer = obs::TraceBuffer::global();
    buffer.clear();
    obs::setTraceEnabled(true);
    {
        RECSTACK_SPAN("test.outer", {{"k", 7}});
        obs::ScopedSpan inner("op", "FC");
        inner.arg("rows", 64);
    }
    obs::setTraceEnabled(false);
    const obs::TraceSnapshot snap = buffer.snapshot();
    ASSERT_EQ(snap.spans.size(), 2u);
    // Inner destructs first.
    EXPECT_STREQ(snap.spans[0].name, "op.FC");
    ASSERT_EQ(snap.spans[0].numArgs, 1u);
    EXPECT_STREQ(snap.spans[0].args[0].key, "rows");
    EXPECT_EQ(snap.spans[0].args[0].value, 64);
    EXPECT_STREQ(snap.spans[1].name, "test.outer");
    ASSERT_EQ(snap.spans[1].numArgs, 1u);
    EXPECT_EQ(snap.spans[1].args[0].value, 7);
    for (const obs::SpanRecord& rec : snap.spans) {
        EXPECT_LE(rec.startNs, rec.endNs);
        EXPECT_GT(rec.tid, 0u);
    }
    // The outer span opened before the inner one.
    EXPECT_LE(snap.spans[1].startNs, snap.spans[0].startNs);
    buffer.clear();
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST(TraceExport, RendersValidChromeTraceJson)
{
    obs::TraceSnapshot snap;
    obs::SpanRecord rec;
    std::snprintf(rec.name, sizeof(rec.name), "queue.acquire");
    rec.startNs = 1500;
    rec.endNs = 4500;
    rec.tid = 3;
    rec.numArgs = 2;
    std::snprintf(rec.args[0].key, sizeof(rec.args[0].key), "batch");
    rec.args[0].value = 64;
    std::snprintf(rec.args[1].key, sizeof(rec.args[1].key), "busy");
    rec.args[1].value = 2;
    snap.spans.push_back(rec);
    std::snprintf(rec.name, sizeof(rec.name), "noprefix");
    rec.numArgs = 0;
    snap.spans.push_back(rec);
    snap.dropped = 9;

    const std::string json = obs::renderChromeTrace(snap);
    JsonValue doc;
    ASSERT_TRUE(JsonParser(json).parse(&doc)) << json;
    const JsonValue& events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
    ASSERT_EQ(events.array.size(), 2u);
    const JsonValue& ev = events.array[0];
    EXPECT_EQ(ev.at("name").str, "queue.acquire");
    EXPECT_EQ(ev.at("cat").str, "queue");
    EXPECT_EQ(ev.at("ph").str, "X");
    EXPECT_DOUBLE_EQ(ev.at("ts").number, 1.5);
    EXPECT_DOUBLE_EQ(ev.at("dur").number, 3.0);
    EXPECT_EQ(ev.at("pid").number, 1.0);
    EXPECT_EQ(ev.at("tid").number, 3.0);
    EXPECT_EQ(ev.at("args").at("batch").number, 64.0);
    EXPECT_EQ(ev.at("args").at("busy").number, 2.0);
    // A prefix-free name categorizes as itself.
    EXPECT_EQ(events.array[1].at("cat").str, "noprefix");
    EXPECT_EQ(doc.at("recstack").at("dropped").number, 9.0);
}

TEST(TraceExport, WriteChromeTraceRoundTrips)
{
    obs::TraceSnapshot snap;
    obs::SpanRecord rec;
    std::snprintf(rec.name, sizeof(rec.name), "engine.batch");
    rec.startNs = 0;
    rec.endNs = 1000;
    rec.tid = 1;
    snap.spans.push_back(rec);

    const std::string path =
        ::testing::TempDir() + "recstack_trace_roundtrip.json";
    std::string error;
    ASSERT_TRUE(obs::writeChromeTrace(path, snap, &error)) << error;

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    std::remove(path.c_str());

    JsonValue doc;
    ASSERT_TRUE(JsonParser(text).parse(&doc));
    EXPECT_EQ(doc.at("traceEvents").array.size(), 1u);

    EXPECT_FALSE(obs::writeChromeTrace(
        "/nonexistent-dir/trace.json", snap, &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Serving engine integration

class ObsServingTest : public ::testing::Test
{
  protected:
    ObsServingTest()
        : sweep_(allPlatforms(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    EngineResult run(ModelId model, ExecMode mode, bool capture_trace)
    {
        ServingNode engine(&sched_, model, 0);
        EngineConfig cfg;
        cfg.numWorkers = 4;
        cfg.arrivalQps = 2000.0;
        cfg.maxBatch = 64;
        cfg.simSeconds = 0.25;
        cfg.execMode = mode;
        cfg.captureTrace = capture_trace;
        return engine.run(cfg);
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(ObsServingTest, LatencyHistogramMatchesExactStats)
{
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.reset();
    const EngineResult result =
        run(ModelId::kRM1, ExecMode::kProfileOnly, false);
    ASSERT_GT(result.aggregate.samplesServed, 0u);

    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_TRUE(snap.histograms.count("serve.query_latency_seconds"));
    const obs::HistogramSnapshot& hist =
        snap.histograms.at("serve.query_latency_seconds");
    EXPECT_EQ(hist.total, result.aggregate.samplesServed);
    const double tol = hist.bucketWidth();
    EXPECT_NEAR(hist.percentile(0.50), result.aggregate.p50Latency, tol);
    EXPECT_NEAR(hist.percentile(0.95), result.aggregate.p95Latency, tol);
    EXPECT_NEAR(hist.percentile(0.99), result.aggregate.p99Latency, tol);

    // Queue accounting went through the same run.
    EXPECT_EQ(snap.counters.at("queue.samples"),
              result.aggregate.samplesServed);
    EXPECT_EQ(snap.counters.at("queue.batches"),
              result.aggregate.batchesServed);
    EXPECT_EQ(snap.counters.at("serve.queries"),
              result.aggregate.samplesServed);
    EXPECT_EQ(snap.counters.at("executor.runs"),
              result.batchesExecuted);
}

TEST_F(ObsServingTest, StoreCountersReExportThroughRegistry)
{
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.reset();
    const EngineResult result =
        run(ModelId::kNCF, ExecMode::kNumericOnly, false);
    ASSERT_GT(result.storeStats.total.lookups, 0u);

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("store.lookups"),
              result.storeStats.total.lookups);
    EXPECT_EQ(snap.counters.at("store.hits"),
              result.storeStats.total.hits);
    EXPECT_GT(snap.counters.at("store.hits"), 0u);
    EXPECT_DOUBLE_EQ(
        snap.gauges.at("store.cache_bytes_used"),
        static_cast<double>(result.storeStats.total.cacheBytesUsed));
}

TEST_F(ObsServingTest, CaptureTraceRecordsSpansAndRestoresFlag)
{
    TraceFlagGuard guard;
    obs::setTraceEnabled(false);
    obs::TraceBuffer& buffer = obs::TraceBuffer::global();
    buffer.clear();

    const EngineResult result =
        run(ModelId::kNCF, ExecMode::kNumericOnly, true);
    ASSERT_GT(result.batchesExecuted, 0u);
    EXPECT_FALSE(obs::traceEnabled());  // restored after the run

    const obs::TraceSnapshot snap = buffer.snapshot();
    std::set<std::string> cats;
    std::set<uint32_t> tids;
    for (const obs::SpanRecord& rec : snap.spans) {
        const std::string name(rec.name);
        cats.insert(name.substr(0, name.find('.')));
        tids.insert(rec.tid);
    }
    EXPECT_TRUE(cats.count("queue"));
    EXPECT_TRUE(cats.count("engine"));
    EXPECT_TRUE(cats.count("executor"));
    EXPECT_TRUE(cats.count("op"));
    EXPECT_TRUE(cats.count("store"));
    EXPECT_GE(tids.size(), 2u) << "spans from at least 2 workers";
    buffer.clear();
}

TEST_F(ObsServingTest, DisabledTracingLeavesBufferUntouched)
{
    TraceFlagGuard guard;
    obs::setTraceEnabled(false);
    obs::TraceBuffer& buffer = obs::TraceBuffer::global();
    buffer.clear();
    const EngineResult result =
        run(ModelId::kRM1, ExecMode::kProfileOnly, false);
    ASSERT_GT(result.batchesExecuted, 0u);
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: the CLI run from the issue.

TEST(ObsCli, TraceExportFromRealServingRunIsWellFormed)
{
#ifndef RECSTACK_CLI_BINARY
    GTEST_SKIP() << "CLI binary path not configured";
#else
    const std::string trace_path =
        ::testing::TempDir() + "recstack_obs_accept.json";
    const std::string cmd = std::string(RECSTACK_CLI_BINARY) +
                            " obs RM2 256 --trace " + trace_path +
                            " > /dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    std::FILE* f = std::fopen(trace_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    std::remove(trace_path.c_str());

    JsonValue doc;
    ASSERT_TRUE(JsonParser(text).parse(&doc));
    const JsonValue& events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
    ASSERT_GT(events.array.size(), 100u);

    std::set<std::string> cats;
    std::set<double> tids;
    for (const JsonValue& ev : events.array) {
        ASSERT_TRUE(ev.has("name"));
        ASSERT_TRUE(ev.has("ts"));
        ASSERT_TRUE(ev.has("dur"));
        ASSERT_TRUE(ev.has("tid"));
        EXPECT_EQ(ev.at("ph").str, "X");
        EXPECT_GE(ev.at("dur").number, 0.0);
        cats.insert(ev.at("cat").str);
        tids.insert(ev.at("tid").number);
    }
    // Batch-queue, per-op executor, and store spans, from >= 2
    // worker threads (the issue's acceptance criteria).
    EXPECT_TRUE(cats.count("queue"));
    EXPECT_TRUE(cats.count("op"));
    EXPECT_TRUE(cats.count("store"));
    EXPECT_GE(tids.size(), 2u);
#endif
}

}  // namespace
}  // namespace recstack
