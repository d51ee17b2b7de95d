/**
 * @file
 * Tests for the observability layer: registry counters/gauges/
 * histograms under concurrency, RAII span tracing and the Chrome
 * trace-event schema, the JSON round-trip (plus a seeded mutation
 * fuzz of the parser), and run manifests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "support/rng.hh"

namespace spikesim::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesAndRoundTripsDocuments)
{
    const std::string text =
        R"({"a":[1,2.5,-3],"b":{"s":"hi\n\"x\"","t":true,"n":null},)"
        R"("big":9007199254740992})";
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(text, doc, &err)) << err;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("a")->array().size(), 3u);
    EXPECT_DOUBLE_EQ(doc.find("a")->array()[1].number(), 2.5);
    EXPECT_EQ(doc.find("b")->find("s")->str(), "hi\n\"x\"");
    EXPECT_TRUE(doc.find("b")->find("t")->boolean());
    EXPECT_TRUE(doc.find("b")->find("n")->isNull());

    JsonValue again;
    ASSERT_TRUE(parseJson(doc.dump(), again, &err)) << err;
    EXPECT_TRUE(again == doc);
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue v;
    EXPECT_FALSE(parseJson("", v));
    EXPECT_FALSE(parseJson("{", v));
    EXPECT_FALSE(parseJson("[1,]", v));
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", v));
    EXPECT_FALSE(parseJson("'single'", v));
    EXPECT_FALSE(parseJson("{\"a\" 1}", v));
}

TEST(Json, RejectsOutOfRangeNumbers)
{
    // A literal that overflows a double would parse to +-inf, which the
    // writer can only emit as null; it is rejected with its offset.
    for (const char* text : {R"({"x": 1e999})", R"({"x": -1e999})",
                             R"({"x": 2e308})"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(text, v, &err)) << text;
        EXPECT_EQ(err, "number out of range at byte 6") << text;
    }
    // Underflow and the largest finite double stay accepted and
    // round-trip.
    for (const char* text : {"1e-999", "-1e-400", "4.9e-324",
                             "1.7976931348623157e308"}) {
        JsonValue v;
        ASSERT_TRUE(parseJson(text, v)) << text;
        JsonValue again;
        ASSERT_TRUE(parseJson(v.dump(), again)) << text;
        EXPECT_TRUE(again == v) << text;
    }
}

TEST(Json, NumberFormatterIsLossless)
{
    for (double v : {0.0, 1.0, -17.0, 0.125, 1e-9, 123456789.25,
                     9007199254740991.0}) {
        JsonValue parsed;
        ASSERT_TRUE(parseJson(jsonNumber(v), parsed));
        EXPECT_EQ(parsed.number(), v) << jsonNumber(v);
    }
}

// ------------------------------------------------------------ registry

TEST(Registry, SameNameReturnsSameMetric)
{
    Counter& a = counter("test.obs.same_name");
    Counter& b = counter("test.obs.same_name");
    EXPECT_EQ(&a, &b);
}

TEST(Registry, ConcurrentCounterHammeringSumsExactly)
{
    Counter& c = counter("test.obs.hammer");
    c.reset();
    constexpr int kThreads = 8;
    constexpr std::uint64_t kIncrements = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kIncrements; ++i)
                c.add(1);
        });
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kIncrements);
}

TEST(Registry, GaugeMaxIsMonotone)
{
    Gauge& g = gauge("test.obs.gauge_max");
    g.reset();
    g.max(5);
    g.max(3);
    EXPECT_EQ(g.value(), 5);
    g.max(9);
    EXPECT_EQ(g.value(), 9);

    std::vector<std::thread> threads;
    for (int t = 1; t <= 8; ++t)
        threads.emplace_back([&g, t] {
            for (int i = 0; i < 1000; ++i)
                g.max(t * 1000 + i);
        });
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(g.value(), 8999);
}

TEST(Registry, HistogramMergesShardsCorrectly)
{
    Histogram& h = histogram("test.obs.hist_merge");
    h.reset();
    // 8 threads each record the same set of values; shards must merge
    // to exactly 8x the single-thread bucket counts.
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h] {
            for (int i = 0; i < 100; ++i) {
                h.record(1);   // bucket 0
                h.record(2);   // bucket 1
                h.record(3);   // bucket 1
                h.record(700); // bucket 9
            }
        });
    for (std::thread& t : threads)
        t.join();
    const support::Log2Histogram snap = h.snapshot();
    EXPECT_EQ(h.totalSamples(), kThreads * 400u);
    EXPECT_EQ(snap.totalSamples(), kThreads * 400u);
    EXPECT_EQ(snap.bucket(0), kThreads * 100u);
    EXPECT_EQ(snap.bucket(1), kThreads * 200u);
    EXPECT_EQ(snap.bucket(9), kThreads * 100u);
}

TEST(Registry, SnapshotCarriesRegisteredNames)
{
    counter("test.obs.snap_counter").add(7);
    gauge("test.obs.snap_gauge").set(-3);
    histogram("test.obs.snap_hist").record(16);
    const Snapshot snap = Registry::instance().snapshot();
    auto has = [](const auto& vec, const char* name) {
        for (const auto& [n, v] : vec)
            if (n == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has(snap.counters, "test.obs.snap_counter"));
    EXPECT_TRUE(has(snap.gauges, "test.obs.snap_gauge"));
    EXPECT_TRUE(has(snap.histograms, "test.obs.snap_hist"));
}

TEST(Registry, NullCounterStaysZero)
{
    NullCounter c;
    c.add(41);
    c.add();
    EXPECT_EQ(c.value(), 0u);
}

// ------------------------------------------------------------- tracing

/** Find the first event with the given name, or nullptr. */
const JsonValue*
findEvent(const JsonValue& doc, const std::string& name)
{
    for (const JsonValue& e : doc.find("traceEvents")->array())
        if (e.find("name") != nullptr && e.find("name")->str() == name)
            return &e;
    return nullptr;
}

TEST(Tracing, SpansAreFreeWhenInactive)
{
    ASSERT_FALSE(tracingActive());
    {
        Span span("test.inactive", "test");
    }
    startTracing();
    const std::string json = stopTracingToString();
    JsonValue doc;
    ASSERT_TRUE(parseJson(json, doc));
    EXPECT_EQ(findEvent(doc, "test.inactive"), nullptr);
}

TEST(Tracing, NestedSpansEmitOrderedCompleteEvents)
{
    startTracing();
    {
        Span outer("test.outer", "test");
        {
            Span inner("test.inner", "test");
        }
        {
            Span second("test.second", "test");
        }
    }
    const std::string json = stopTracingToString();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
    ASSERT_TRUE(validateChromeTrace(doc, &err)) << err;

    const JsonValue* outer = findEvent(doc, "test.outer");
    const JsonValue* inner = findEvent(doc, "test.inner");
    const JsonValue* second = findEvent(doc, "test.second");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(second, nullptr);

    // Nesting: the outer span contains both children in time, and all
    // three ran on the same thread.
    const double ots = outer->find("ts")->number();
    const double odur = outer->find("dur")->number();
    const double its = inner->find("ts")->number();
    const double idur = inner->find("dur")->number();
    const double sts = second->find("ts")->number();
    EXPECT_LE(ots, its);
    EXPECT_GE(ots + odur, its + idur);
    EXPECT_LE(its + idur, sts); // inner closed before second opened
    EXPECT_EQ(outer->find("tid")->number(),
              inner->find("tid")->number());
    EXPECT_EQ(outer->find("tid")->number(),
              second->find("tid")->number());
}

TEST(Tracing, EventsMatchChromeTraceSchemaGolden)
{
    startTracing();
    {
        Span span("test.golden", "test");
    }
    const std::string json = stopTracingToString();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;

    // Golden schema: exactly the keys Perfetto/chrome://tracing expect
    // on a complete event, with the right types.
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("traceEvents"), nullptr);
    ASSERT_TRUE(doc.find("traceEvents")->isArray());
    const JsonValue* ev = findEvent(doc, "test.golden");
    ASSERT_NE(ev, nullptr);
    for (const char* key : {"name", "cat", "ph", "pid", "tid", "ts",
                            "dur"})
        ASSERT_NE(ev->find(key), nullptr) << "missing key " << key;
    EXPECT_EQ(ev->find("ph")->str(), "X");
    EXPECT_EQ(ev->find("cat")->str(), "test");
    EXPECT_TRUE(ev->find("pid")->isNumber());
    EXPECT_TRUE(ev->find("tid")->isNumber());
    EXPECT_GE(ev->find("ts")->number(), 0.0);
    EXPECT_GE(ev->find("dur")->number(), 0.0);
    ASSERT_TRUE(validateChromeTrace(doc, &err)) << err;
}

TEST(Tracing, ValidatorRejectsBrokenDocuments)
{
    std::string err;
    auto parse = [](const char* text) {
        JsonValue v;
        EXPECT_TRUE(parseJson(text, v));
        return v;
    };
    // Not an object / missing traceEvents.
    EXPECT_FALSE(validateChromeTrace(parse("[]"), &err));
    EXPECT_FALSE(validateChromeTrace(parse("{}"), &err));
    // X event without dur.
    EXPECT_FALSE(validateChromeTrace(
        parse(R"({"traceEvents":[{"name":"a","cat":"c","ph":"X",)"
              R"("pid":1,"tid":1,"ts":0}]})"),
        &err));
    // Unbalanced B without E.
    EXPECT_FALSE(validateChromeTrace(
        parse(R"({"traceEvents":[{"name":"a","cat":"c","ph":"B",)"
              R"("pid":1,"tid":1,"ts":0}]})"),
        &err));
    // Balanced B/E is fine.
    EXPECT_TRUE(validateChromeTrace(
        parse(R"({"traceEvents":[)"
              R"({"name":"a","cat":"c","ph":"B","pid":1,"tid":1,"ts":0},)"
              R"({"name":"a","cat":"c","ph":"E","pid":1,"tid":1,"ts":5})"
              R"(]})"),
        &err))
        << err;
    // Counter events: args object with numeric series required.
    EXPECT_FALSE(validateChromeTrace(
        parse(R"({"traceEvents":[{"name":"a","cat":"c","ph":"C",)"
              R"("pid":1,"tid":0,"ts":0}]})"),
        &err));
    EXPECT_FALSE(validateChromeTrace(
        parse(R"({"traceEvents":[{"name":"a","cat":"c","ph":"C",)"
              R"("pid":1,"tid":0,"ts":0,"args":{}}]})"),
        &err));
    EXPECT_FALSE(validateChromeTrace(
        parse(R"({"traceEvents":[{"name":"a","cat":"c","ph":"C",)"
              R"("pid":1,"tid":0,"ts":0,"args":{"v":"nope"}}]})"),
        &err));
    EXPECT_TRUE(validateChromeTrace(
        parse(R"({"traceEvents":[{"name":"a","cat":"c","ph":"C",)"
              R"("pid":1,"tid":0,"ts":0,"args":{"value":3.5}}]})"),
        &err))
        << err;
}

TEST(Tracing, ConcurrentSpansAllSurviveToTheTrace)
{
    startTracing();
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                Span span("test.concurrent", "test");
            }
        });
    for (std::thread& t : threads)
        t.join();
    const std::string json = stopTracingToString();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
    ASSERT_TRUE(validateChromeTrace(doc, &err)) << err;
    int found = 0;
    for (const JsonValue& e : doc.find("traceEvents")->array())
        found += e.find("name")->str() == "test.concurrent";
    EXPECT_EQ(found, kThreads * kSpansPerThread);
}

TEST(Tracing, InternNameDeduplicatesAndStaysStable)
{
    const char* a = internName("test.dynamic.name");
    const char* b = internName(std::string("test.dynamic") + ".name");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "test.dynamic.name");
}

// ------------------------------------------------------------ manifest

/** A manifest with every basic section, one valid BENCH artifact and
 *  one broken one. */
Manifest
sampleManifest()
{
    Manifest m;
    m.binary = "unit_test";
    m.args = {"--alpha", "7"};
    m.seed = 42;
    m.threads = 4;
    m.info.emplace_back("key", "value");
    m.phases.push_back({"phase_one", 1.5, 1.25});
    m.artifacts.push_back({"BENCH_x.json", R"({"bench":"x","n":1})"});
    m.artifacts.push_back({"broken.json", "not json"});
    return m;
}

TEST(Manifest, RendersAllSectionsAsValidJson)
{
    counter("test.obs.manifest_counter").add(3);
    const Manifest m = sampleManifest();

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(renderManifest(m), doc, &err)) << err;
    EXPECT_EQ(doc.find("spikesim_manifest")->number(), 1.0);
    EXPECT_EQ(doc.find("binary")->str(), "unit_test");
    EXPECT_EQ(doc.find("args")->array().size(), 2u);
    EXPECT_EQ(doc.find("seed")->number(), 42.0);
    EXPECT_EQ(doc.find("threads")->number(), 4.0);
    EXPECT_EQ(doc.find("info")->find("key")->str(), "value");

    const JsonValue& phase = doc.find("phases")->array().at(0);
    EXPECT_EQ(phase.find("name")->str(), "phase_one");
    EXPECT_DOUBLE_EQ(phase.find("wall_s")->number(), 1.5);
    EXPECT_DOUBLE_EQ(phase.find("cpu_s")->number(), 1.25);

    // A valid artifact embeds verbatim; a broken one degrades to null
    // rather than corrupting the manifest.
    const JsonValue* good = doc.find("artifacts")->find("BENCH_x.json");
    ASSERT_NE(good, nullptr);
    EXPECT_EQ(good->find("bench")->str(), "x");
    const JsonValue* bad = doc.find("artifacts")->find("broken.json");
    ASSERT_NE(bad, nullptr);
    EXPECT_TRUE(bad->isNull());

    // The final registry snapshot rides along.
    const JsonValue* counters = doc.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("test.obs.manifest_counter"), nullptr);
    EXPECT_GE(counters->find("test.obs.manifest_counter")->number(),
              3.0);
}

TEST(Manifest, TimelineAndSloSectionsEmbedOrDegrade)
{
    sketch("test.obs.manifest_sketch").record(1000);
    Manifest m;
    m.binary = "unit_test";
    m.timelines.push_back(
        R"({"name":"tl","total_windows":2,"series":{"x":[1,2]}})");
    m.timelines.push_back("definitely not json");
    m.slos.push_back(
        R"({"name":"latency","verdict":"ok","attainment":0.995})");

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(renderManifest(m), doc, &err)) << err;

    const JsonValue* timelines = doc.find("timeline");
    ASSERT_NE(timelines, nullptr);
    ASSERT_TRUE(timelines->isArray());
    ASSERT_EQ(timelines->array().size(), 2u);
    EXPECT_EQ(timelines->array()[0].find("name")->str(), "tl");
    // Malformed sections degrade to null like artifacts.
    EXPECT_TRUE(timelines->array()[1].isNull());

    const JsonValue* slos = doc.find("slo");
    ASSERT_NE(slos, nullptr);
    ASSERT_TRUE(slos->isArray());
    ASSERT_EQ(slos->array().size(), 1u);
    EXPECT_EQ(slos->array()[0].find("verdict")->str(), "ok");

    // Sketch metrics ride in the snapshot with quantile summaries.
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue* sketches = metrics->find("sketches");
    ASSERT_NE(sketches, nullptr);
    const JsonValue* s = sketches->find("test.obs.manifest_sketch");
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->find("count")->number(), 1.0);
    for (const char* key : {"sum", "min", "max", "p50", "p90", "p99",
                            "p999", "relative_error"})
        ASSERT_NE(s->find(key), nullptr) << "missing key " << key;
}

TEST(Manifest, PhaseClockRecordsWallTime)
{
    Manifest m;
    {
        PhaseClock clock(m, "timed_phase");
        std::atomic<std::uint64_t> spin{0};
        for (int i = 0; i < 200000; ++i)
            spin.fetch_add(1, std::memory_order_relaxed);
    }
    ASSERT_EQ(m.phases.size(), 1u);
    EXPECT_EQ(m.phases[0].name, "timed_phase");
    EXPECT_GE(m.phases[0].wall_s, 0.0);
    EXPECT_GE(m.phases[0].cpu_s, 0.0);
}

// ----------------------------------------------------------- JSON fuzz

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Apply one random byte-level mutation: flip a bit, truncate,
 *  duplicate a span, or insert a byte or a JSON-ish token. */
void
mutate(std::string& text, support::Pcg32& rng)
{
    static const char* const kTokens[] = {
        "e999", "E+400", "-", "0", "9", ".", "e", "\"", "\\", "\\u",
        "\\ud800", "{", "}", "[", "]", ",", ":", "null", "true", " ",
    };
    const auto at = [&](std::size_t bound) {
        return static_cast<std::size_t>(
            rng.nextBounded(static_cast<std::uint32_t>(bound)));
    };
    switch (rng.nextBounded(4)) {
    case 0: // flip
        if (!text.empty())
            text[at(text.size())] ^=
                static_cast<char>(1u << rng.nextBounded(8));
        break;
    case 1: // truncate
        text.resize(at(text.size() + 1));
        break;
    case 2: { // duplicate a span somewhere else
        if (text.empty())
            break;
        const std::size_t from = at(text.size());
        const std::size_t len = 1 + at(std::min<std::size_t>(
                                        16, text.size() - from));
        const std::string span = text.substr(from, len);
        text.insert(at(text.size() + 1), span);
        break;
    }
    default: { // insert
        const std::size_t pos = at(text.size() + 1);
        if (rng.nextBool(0.5))
            text.insert(pos, 1, static_cast<char>(rng.nextBounded(256)));
        else
            text.insert(pos, kTokens[at(std::size(kTokens))]);
        break;
    }
    }
}

/**
 * Seeded mutation fuzz of the JSON parser over the documents the tests
 * already build (the sample manifest, its BENCH artifact, the
 * round-trip document) and the bench_compare fixtures. The parser must
 * always return; an accepted document must survive the writer and
 * re-parse to an equal value; a rejected one must say where.
 */
TEST(JsonFuzz, MutatedDocumentsRoundTripOrFailCleanly)
{
    const std::vector<std::string> seeds = {
        renderManifest(sampleManifest()),
        R"({"bench":"x","n":1})",
        R"({"a":[1,2.5,-3],"b":{"s":"hi\n\"x\"","t":true,"n":null},)"
        R"("big":9007199254740992})",
        readFile(SPIKESIM_TEST_DATA_DIR "/bench_compare_baseline.json"),
        readFile(SPIKESIM_TEST_DATA_DIR "/bench_compare_regressed.json"),
    };
    support::Pcg32 rng(20261017);
    std::size_t accepted = 0;
    for (int iter = 0; iter < 6000; ++iter) {
        std::string text = seeds[iter % seeds.size()];
        const int edits = 1 + static_cast<int>(rng.nextBounded(4));
        for (int e = 0; e < edits; ++e)
            mutate(text, rng);

        JsonValue v;
        std::string err;
        if (!parseJson(text, v, &err)) {
            EXPECT_NE(err.find(" at byte "), std::string::npos)
                << "iteration " << iter << ": " << err;
            continue;
        }
        ++accepted;
        const std::string dumped = v.dump();
        JsonValue again;
        std::string again_err;
        ASSERT_TRUE(parseJson(dumped, again, &again_err))
            << "iteration " << iter << ": " << again_err << "\n"
            << text;
        ASSERT_TRUE(again == v)
            << "iteration " << iter << " does not round-trip:\n"
            << text << "\n-> " << dumped;
    }
    // The mutations must leave a useful share of documents valid, or
    // the round-trip half of the property goes untested.
    EXPECT_GT(accepted, 300u);
}

} // namespace
} // namespace spikesim::obs
