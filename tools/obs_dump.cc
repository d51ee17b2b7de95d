/**
 * @file
 * obs_dump — inspect the observability layer's JSON artifacts.
 *
 * usage: obs_dump MANIFEST.json
 *        obs_dump --check-trace TRACE.json
 *        obs_dump --check-bench BENCH.json
 *
 * The default mode pretty-prints a run manifest (written by a bench's
 * `--manifest-out`): binary, arguments, seed, thread count, per-phase
 * wall/cpu time, embedded BENCH artifacts, and the final metrics
 * snapshot. `--check-trace` validates a Chrome trace-event file
 * (written by `--trace-out`) against the schema Perfetto expects —
 * traceEvents array, string name/cat, numeric pid/tid/ts, complete "X"
 * events with dur >= 0 or balanced "B"/"E" pairs — and additionally
 * round-trips the document through the JSON writer to prove the
 * parse/serialize pair is lossless. `--check-bench` validates a bench
 * artifact against the schema its "bench" field names: for
 * "layout_search" every scalar metric, the objective-weight /
 * page-geometry / region-map sub-objects, and the re-rank curve and
 * sweep grid arrays; for "serving" the platform and service-time
 * summaries, the SLO spec, and every load point's base/opt latency +
 * SLO-verdict blocks (multi-tenant section included when present);
 * for "replay", "cachesim", "trace_io", and "obs" every headline
 * timing, speedup, and differential field the micro-benches emit. All
 * checking modes exit non-zero on any violation, so ctest can use them
 * as per-artifact schema gates.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/tracing.hh"
#include "support/panic.hh"

using namespace spikesim;

namespace {

[[noreturn]] void
usage(const std::string& complaint)
{
    support::fatal(complaint +
                   "\nusage: obs_dump MANIFEST.json\n"
                   "       obs_dump --check-trace TRACE.json\n"
                   "       obs_dump --check-bench BENCH.json");
}

std::string
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        support::fatal("cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    if (!is && !is.eof())
        support::fatal("error reading " + path);
    return buf.str();
}

obs::JsonValue
parseFile(const std::string& path)
{
    const std::string text = readFile(path);
    obs::JsonValue doc;
    std::string err;
    if (!obs::parseJson(text, doc, &err))
        support::fatal(path + " is not valid JSON: " + err);
    return doc;
}

/** Validate + round-trip one Chrome trace file; 0 on success. */
int
checkTrace(const std::string& path)
{
    const std::string text = readFile(path);
    obs::JsonValue doc;
    std::string err;
    if (!obs::parseJson(text, doc, &err)) {
        std::cerr << "obs_dump: " << path << " is not valid JSON: "
                  << err << "\n";
        return 1;
    }
    if (!obs::validateChromeTrace(doc, &err)) {
        std::cerr << "obs_dump: " << path
                  << " violates the Chrome trace-event schema: " << err
                  << "\n";
        return 1;
    }
    // Round-trip: our writer and parser must agree on the document.
    obs::JsonValue again;
    if (!obs::parseJson(doc.dump(), again, &err)) {
        std::cerr << "obs_dump: round-trip re-parse failed: " << err
                  << "\n";
        return 1;
    }
    if (!(again == doc)) {
        std::cerr << "obs_dump: round-trip changed the document\n";
        return 1;
    }
    const auto* events = doc.find("traceEvents");
    std::cout << "ok: " << path << " (" << events->array().size()
              << " events, schema valid, round-trip exact)\n";
    return 0;
}

/** Shared state for one bench-artifact validation pass: collects every
 *  violation (not just the first) so a failing run is fixable in one
 *  pass. */
struct BenchChecker
{
    const std::string& path;
    const obs::JsonValue& doc;
    int bad = 0;

    void
    fail(const std::string& what)
    {
        std::cerr << "obs_dump: " << path << ": " << what << "\n";
        ++bad;
    }

    void
    number(const obs::JsonValue& obj, const std::string& where,
           const char* key)
    {
        const obs::JsonValue* v = obj.find(key);
        if (v == nullptr)
            fail(where + " is missing \"" + key + "\"");
        else if (!v->isNumber())
            fail(where + " \"" + key + "\" is not a number");
    }

    void
    boolean(const obs::JsonValue& obj, const std::string& where,
            const char* key)
    {
        const obs::JsonValue* v = obj.find(key);
        if (v == nullptr)
            fail(where + " is missing \"" + key + "\"");
        else if (!v->isBool())
            fail(where + " \"" + key + "\" is not a boolean");
    }

    void
    string(const obs::JsonValue& obj, const std::string& where,
           const char* key)
    {
        const obs::JsonValue* v = obj.find(key);
        if (v == nullptr || !v->isString())
            fail(where + " \"" + key + "\" is not a string");
    }

    /** Sub-object of `parent` whose fields are all numbers. */
    const obs::JsonValue*
    object(const obs::JsonValue& parent, const std::string& where,
           const char* key, std::initializer_list<const char*> fields)
    {
        const obs::JsonValue* v = parent.find(key);
        if (v == nullptr || !v->isObject()) {
            fail(where + " \"" + key + "\" is not an object");
            return nullptr;
        }
        for (const char* f : fields)
            number(*v, where + " \"" + key + "\"", f);
        return v;
    }

    const obs::JsonValue*
    array(const char* key)
    {
        const obs::JsonValue* v = doc.find(key);
        if (v == nullptr || !v->isArray()) {
            fail(std::string("\"") + key + "\" is not an array");
            return nullptr;
        }
        return v;
    }
};

/** Field checks specific to BENCH_layout_search.json. */
void
checkLayoutSearch(BenchChecker& c)
{
    const obs::JsonValue& doc = c.doc;
    const auto fail = [&](const std::string& what) { c.fail(what); };
    const auto number = [&](const obs::JsonValue& obj,
                            const std::string& where, const char* key) {
        c.number(obj, where, key);
    };
    for (const char* key :
         {"seed", "profile_txns", "trace_txns", "epochs", "batch",
          "proxy_evals", "sim_evals", "sim_cache_hits",
          "seed_exttsp_score", "best_exttsp_score", "greedy_all_misses",
          "searched_misses", "greedy_all_itlb4k", "searched_itlb4k",
          "greedy_all_itlb2m", "searched_itlb2m", "seed_objective",
          "best_objective"})
        number(doc, "top level", key);
    const auto object = [&](const char* key,
                            std::initializer_list<const char*> fields) {
        c.object(doc, "top level", key, fields);
    };
    object("rerank_config", {"size_bytes", "line_bytes", "assoc"});
    object("objective_weights", {"icache", "itlb4k", "itlb2m"});
    object("page_geometry", {"region_page_bytes", "itlb_entries"});
    object("region_map", {"num_regions", "num_hot", "hot_segments",
                          "cold_segments", "hot_bytes", "cold_bytes"});
    const auto array = [&](const char* key) { return c.array(key); };
    if (const obs::JsonValue* curve = array("rerank_curve"))
        for (std::size_t i = 0; i < curve->array().size(); ++i) {
            const obs::JsonValue& p = curve->array()[i];
            const std::string where =
                "rerank_curve[" + std::to_string(i) + "]";
            if (!p.isObject()) {
                fail(where + " is not an object");
                continue;
            }
            for (const char* key :
                 {"epoch", "misses", "itlb4k", "objective"})
                number(p, where, key);
        }
    if (const obs::JsonValue* eb = array("epoch_best_exttsp"))
        for (std::size_t i = 0; i < eb->array().size(); ++i)
            if (!eb->array()[i].isNumber())
                fail("epoch_best_exttsp[" + std::to_string(i) +
                     "] is not a number");
    if (const obs::JsonValue* grid = array("grid")) {
        if (grid->array().empty())
            fail("\"grid\" is empty");
        for (std::size_t i = 0; i < grid->array().size(); ++i) {
            const obs::JsonValue& p = grid->array()[i];
            const std::string where = "grid[" + std::to_string(i) + "]";
            if (!p.isObject()) {
                fail(where + " is not an object");
                continue;
            }
            for (const char* key :
                 {"size_kb", "line_b", "base", "greedy_all", "searched"})
                number(p, where, key);
        }
    }
}

/** Field checks specific to BENCH_serving.json (the open-loop serving
 *  bench: layout -> service time -> tail latency). */
void
checkServing(BenchChecker& c)
{
    const obs::JsonValue& doc = c.doc;
    for (const char* key :
         {"seed", "profile_txns", "trace_txns", "requests", "sessions",
          "shards", "queue_bound", "tenants"})
        c.number(doc, "top level", key);
    const obs::JsonValue* workload = doc.find("workload");
    if (workload == nullptr || !workload->isString())
        c.fail("\"workload\" is not a string");
    const obs::JsonValue* platform = c.object(
        doc, "top level", "platform", {"clock_ghz"});
    if (platform != nullptr) {
        const obs::JsonValue* name = platform->find("name");
        if (name == nullptr || !name->isString())
            c.fail("\"platform\" \"name\" is not a string");
    }
    if (const obs::JsonValue* service =
            c.object(doc, "top level", "service", {"requests"})) {
        for (const char* layout : {"base", "opt"})
            c.object(*service, "\"service\"", layout,
                     {"mean_cycles", "p50_cycles", "p99_cycles"});
    }
    c.object(doc, "top level", "slo_spec",
             {"target", "threshold_cycles", "threshold_us", "windows"});
    const auto layoutRun = [&](const obs::JsonValue& parent,
                               const std::string& where,
                               const char* key) {
        const obs::JsonValue* run = c.object(
            parent, where, key,
            {"completed", "dropped", "offered_tps", "sustained_tps",
             "mean_us", "p50_us", "p90_us", "p99_us", "p999_us",
             "max_us", "utilization", "max_queue_depth"});
        if (run == nullptr)
            return;
        const std::string rwhere = where + " \"" + key + "\"";
        const obs::JsonValue* slo = c.object(
            *run, rwhere, "slo",
            {"total", "bad", "attainment", "budget_burn",
             "max_fast_burn", "max_slow_burn", "fast_alert_windows",
             "slow_alert_windows"});
        if (slo != nullptr) {
            c.boolean(*slo, rwhere + " \"slo\"", "met");
            c.string(*slo, rwhere + " \"slo\"", "verdict");
        }
    };
    if (const obs::JsonValue* loads = c.array("loads")) {
        if (loads->array().empty())
            c.fail("\"loads\" is empty");
        for (std::size_t i = 0; i < loads->array().size(); ++i) {
            const obs::JsonValue& p = loads->array()[i];
            const std::string where =
                "loads[" + std::to_string(i) + "]";
            if (!p.isObject()) {
                c.fail(where + " is not an object");
                continue;
            }
            for (const char* key :
                 {"rho", "offered", "horizon_cycles",
                  "p99_improvement_pct"})
                c.number(p, where, key);
            const obs::JsonValue* arrival = p.find("arrival");
            if (arrival == nullptr || !arrival->isString())
                c.fail(where + " \"arrival\" is not a string");
            layoutRun(p, where, "base");
            layoutRun(p, where, "opt");
        }
    }
    // Optional: present only when the bench ran with --tenants > 1.
    if (const obs::JsonValue* mt = doc.find("multi_tenant")) {
        if (!mt->isObject()) {
            c.fail("\"multi_tenant\" is not an object");
        } else {
            for (const char* key :
                 {"tenants", "rho", "service_inflation_base_pct",
                  "service_inflation_opt_pct"})
                c.number(*mt, "\"multi_tenant\"", key);
            layoutRun(*mt, "\"multi_tenant\"", "base");
            layoutRun(*mt, "\"multi_tenant\"", "opt");
        }
    }
}

/** Field checks specific to BENCH_replay.json (the replay
 *  micro-bench): the headline, the fig04 grid on the LRU-stack sweep
 *  with and without interference tracking, and the per-family
 *  columns. */
void
checkReplay(BenchChecker& c)
{
    const obs::JsonValue& doc = c.doc;
    for (const char* key :
         {"trace_events", "trace_cpus", "oracle_seconds",
          "soa_scalar_seconds", "soa_scalar_resolve_seconds",
          "soa_scalar_replay_seconds", "pooled_seconds",
          "pooled_threads", "soa_scalar_vs_oracle",
          "pooled_vs_soa_scalar", "end_to_end_speedup",
          "resolve_seconds", "icache_grid_configs",
          "icache_grid_interference_seconds",
          "icache_grid_sweep_seconds", "family_icache_seconds",
          "family_threec_seconds", "family_streambuf_seconds",
          "family_itlb_seconds"})
        c.number(doc, "top level", key);
    c.string(doc, "top level", "simd_kernel");
    c.string(doc, "top level", "simd_kernel_reason");
    c.boolean(doc, "top level", "differential_ok");
}

/** Field checks specific to BENCH_cachesim.json. */
void
checkCachesim(BenchChecker& c)
{
    const obs::JsonValue& doc = c.doc;
    for (const char* key :
         {"trace_events", "configs", "line_accesses",
          "per_config_seconds", "per_config_accesses_per_sec",
          "sweep_seconds", "sweep_accesses_per_sec", "sweep_speedup",
          "jobs_serial_seconds", "jobs_parallel_seconds",
          "parallel_threads", "parallel_speedup"})
        c.number(doc, "top level", key);
    c.boolean(doc, "top level", "differential_ok");
}

/** Field checks specific to BENCH_trace_io.json. */
void
checkTraceIo(BenchChecker& c)
{
    const obs::JsonValue& doc = c.doc;
    for (const char* key :
         {"profile_txns", "trace_txns", "trace_events",
          "raw_trace_bytes", "corpus_file_bytes",
          "trace_compression_ratio", "generate_seconds", "save_seconds",
          "load_image_build_seconds", "load_decode_seconds",
          "load_total_seconds", "load_speedup_vs_regeneration"})
        c.number(doc, "top level", key);
    c.boolean(doc, "top level", "speedup_bar_10x_met");
    c.boolean(doc, "top level", "differential_ok");
}

/** Field checks specific to BENCH_obs.json (registry overhead). */
void
checkObs(BenchChecker& c)
{
    const obs::JsonValue& doc = c.doc;
    for (const char* key :
         {"refs", "counter_add_ns", "null_counter_add_ns",
          "gauge_max_ns", "histogram_record_ns", "span_inactive_ns",
          "span_active_ns", "replay_loop_bare_seconds",
          "replay_loop_live_counter_seconds",
          "replay_loop_null_counter_seconds",
          "live_counter_overhead_percent",
          "null_counter_overhead_percent"})
        c.number(doc, "top level", key);
}

/** Schema gate for BENCH_*.json artifacts, dispatching on the "bench"
 *  field; 0 on success. */
int
checkBench(const std::string& path)
{
    const std::string text = readFile(path);
    obs::JsonValue doc;
    std::string err;
    if (!obs::parseJson(text, doc, &err)) {
        std::cerr << "obs_dump: " << path << " is not valid JSON: "
                  << err << "\n";
        return 1;
    }
    if (!doc.isObject()) {
        std::cerr << "obs_dump: " << path
                  << ": top level is not an object\n";
        return 1;
    }
    BenchChecker c{path, doc};
    const obs::JsonValue* bench = doc.find("bench");
    const std::string kind =
        bench != nullptr && bench->isString() ? bench->str() : "";
    std::string detail;
    if (kind == "layout_search") {
        checkLayoutSearch(c);
        if (const obs::JsonValue* grid = doc.find("grid");
            grid != nullptr && grid->isArray())
            detail = std::to_string(grid->array().size()) +
                     " grid points";
    } else if (kind == "serving") {
        checkServing(c);
        if (const obs::JsonValue* loads = doc.find("loads");
            loads != nullptr && loads->isArray())
            detail = std::to_string(loads->array().size()) +
                     " load points";
    } else if (kind == "replay") {
        checkReplay(c);
        if (const obs::JsonValue* ev = doc.find("trace_events");
            ev != nullptr && ev->isNumber())
            detail = obs::jsonNumber(ev->number()) + " trace events";
    } else if (kind == "cachesim") {
        checkCachesim(c);
        if (const obs::JsonValue* n = doc.find("configs");
            n != nullptr && n->isNumber())
            detail = obs::jsonNumber(n->number()) + " configs";
    } else if (kind == "trace_io") {
        checkTraceIo(c);
        if (const obs::JsonValue* n = doc.find("trace_events");
            n != nullptr && n->isNumber())
            detail = obs::jsonNumber(n->number()) + " trace events";
    } else if (kind == "obs") {
        checkObs(c);
        if (const obs::JsonValue* n = doc.find("refs");
            n != nullptr && n->isNumber())
            detail = obs::jsonNumber(n->number()) + " refs";
    } else {
        c.fail("\"bench\" is not a recognized bench name "
               "(layout_search, serving, replay, cachesim, trace_io, "
               "obs)");
    }
    // Round-trip: the artifact must survive our writer/parser pair.
    obs::JsonValue again;
    if (!obs::parseJson(doc.dump(), again, &err) || !(again == doc))
        c.fail("round-trip through the JSON writer changed the document");
    if (c.bad != 0)
        return 1;
    std::cout << "ok: " << path << " (" << kind
              << " bench schema valid, " << detail
              << ", round-trip exact)\n";
    return 0;
}

void
printMetricsSection(const obs::JsonValue& metrics)
{
    if (const auto* counters = metrics.find("counters");
        counters != nullptr && counters->isObject() &&
        !counters->members().empty()) {
        std::cout << "counters:\n";
        for (const auto& [name, v] : counters->members())
            std::cout << "  " << name << " = " << obs::jsonNumber(
                             v.isNumber() ? v.number() : 0.0)
                      << "\n";
    }
    if (const auto* gauges = metrics.find("gauges");
        gauges != nullptr && gauges->isObject() &&
        !gauges->members().empty()) {
        std::cout << "gauges:\n";
        for (const auto& [name, v] : gauges->members())
            std::cout << "  " << name << " = " << obs::jsonNumber(
                             v.isNumber() ? v.number() : 0.0)
                      << "\n";
    }
    if (const auto* hists = metrics.find("histograms");
        hists != nullptr && hists->isObject() &&
        !hists->members().empty()) {
        std::cout << "histograms:\n";
        for (const auto& [name, h] : hists->members()) {
            const auto* total = h.find("total");
            const auto* mean = h.find("mean");
            std::cout << "  " << name;
            if (total != nullptr && total->isNumber())
                std::cout << ": " << obs::jsonNumber(total->number())
                          << " samples";
            if (mean != nullptr && mean->isNumber())
                std::cout << ", mean " << obs::jsonNumber(mean->number());
            std::cout << "\n";
        }
    }
    if (const auto* sketches = metrics.find("sketches");
        sketches != nullptr && sketches->isObject() &&
        !sketches->members().empty()) {
        std::cout << "sketches:\n";
        for (const auto& [name, s] : sketches->members()) {
            if (!s.isObject())
                continue;
            std::cout << "  " << name;
            if (const auto* count = s.find("count");
                count != nullptr && count->isNumber())
                std::cout << ": " << obs::jsonNumber(count->number())
                          << " samples";
            for (const char* q : {"p50", "p99", "p999"})
                if (const auto* v = s.find(q);
                    v != nullptr && v->isNumber())
                    std::cout << ", " << q << " "
                              << obs::jsonNumber(v->number());
            std::cout << "\n";
        }
    }
}

/** Pretty-print one run manifest; 0 on success. */
int
dumpManifest(const std::string& path)
{
    const obs::JsonValue doc = parseFile(path);
    if (!doc.isObject() || doc.find("spikesim_manifest") == nullptr)
        support::fatal(path + " is not a spikesim run manifest "
                              "(missing \"spikesim_manifest\")");

    if (const auto* binary = doc.find("binary"))
        std::cout << "binary:  " << binary->str() << "\n";
    if (const auto* args = doc.find("args"); args && args->isArray()) {
        std::cout << "args:   ";
        for (const obs::JsonValue& a : args->array())
            std::cout << " " << a.str();
        std::cout << "\n";
    }
    if (const auto* seed = doc.find("seed"); seed && seed->isNumber())
        std::cout << "seed:    " << obs::jsonNumber(seed->number())
                  << "\n";
    if (const auto* threads = doc.find("threads");
        threads && threads->isNumber())
        std::cout << "threads: " << obs::jsonNumber(threads->number())
                  << "\n";
    if (const auto* info = doc.find("info");
        info && info->isObject() && !info->members().empty()) {
        std::cout << "info:\n";
        for (const auto& [k, v] : info->members())
            std::cout << "  " << k << " = "
                      << (v.isString() ? v.str() : v.dump()) << "\n";
    }
    if (const auto* phases = doc.find("phases");
        phases && phases->isArray() && !phases->array().empty()) {
        std::cout << "phases:\n";
        for (const obs::JsonValue& p : phases->array()) {
            const auto* name = p.find("name");
            const auto* wall = p.find("wall_s");
            const auto* cpu = p.find("cpu_s");
            std::printf("  %-24s wall %9.3f s   cpu %9.3f s\n",
                        name != nullptr ? name->str().c_str() : "?",
                        wall != nullptr ? wall->number() : 0.0,
                        cpu != nullptr ? cpu->number() : 0.0);
        }
    }
    if (const auto* artifacts = doc.find("artifacts");
        artifacts && artifacts->isObject() &&
        !artifacts->members().empty()) {
        std::cout << "artifacts:\n";
        for (const auto& [name, v] : artifacts->members())
            std::cout << "  " << name << " (" << v.dump().size()
                      << " bytes)\n";
    }
    if (const auto* timelines = doc.find("timeline");
        timelines && timelines->isArray() &&
        !timelines->array().empty()) {
        std::cout << "timelines:\n";
        for (const obs::JsonValue& t : timelines->array()) {
            if (!t.isObject())
                continue;
            const auto* name = t.find("name");
            const auto* total = t.find("total_windows");
            std::cout << "  "
                      << (name != nullptr && name->isString()
                              ? name->str()
                              : std::string("?"));
            if (total != nullptr && total->isNumber())
                std::cout << " (" << obs::jsonNumber(total->number())
                          << " windows)";
            std::cout << "\n";
        }
    }
    if (const auto* slos = doc.find("slo");
        slos && slos->isArray() && !slos->array().empty()) {
        std::cout << "slo verdicts:\n";
        for (const obs::JsonValue& s : slos->array()) {
            if (!s.isObject())
                continue;
            const auto* name = s.find("name");
            const auto* verdict = s.find("verdict");
            const auto* attainment = s.find("attainment");
            std::cout << "  "
                      << (name != nullptr && name->isString()
                              ? name->str()
                              : std::string("?"))
                      << ": "
                      << (verdict != nullptr && verdict->isString()
                              ? verdict->str()
                              : std::string("?"));
            if (attainment != nullptr && attainment->isNumber())
                std::cout << " (attainment "
                          << obs::jsonNumber(attainment->number())
                          << ")";
            std::cout << "\n";
        }
    }
    if (const auto* metrics = doc.find("metrics");
        metrics && metrics->isObject())
        printMetricsSection(*metrics);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    bool check_trace = false;
    bool check_bench = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check-trace")
            check_trace = true;
        else if (arg == "--check-bench")
            check_bench = true;
        else if (arg.size() > 1 && arg[0] == '-')
            usage("unknown option '" + arg + "'");
        else if (path.empty())
            path = arg;
        else
            usage("too many arguments");
    }
    if (path.empty())
        usage("missing input file");
    if (check_trace && check_bench)
        usage("--check-trace and --check-bench are exclusive");
    if (check_trace)
        return checkTrace(path);
    if (check_bench)
        return checkBench(path);
    return dumpManifest(path);
}
