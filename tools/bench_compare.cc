/**
 * @file
 * Cross-run regression gate for the BENCH_*.json artifacts and run
 * manifests: load a baseline and a candidate document (or two
 * directories of them), align every leaf value by its dotted JSON
 * path — array rows are keyed by their identifying members (load
 * points by rho+arrival, cache grids by geometry, rerank curves by
 * epoch, SLO verdicts by name), not by position — and apply a
 * per-metric noise-aware threshold: configuration fields must match
 * exactly, wall-clock timings get a wide band, deterministic simulated
 * metrics a tight one, and each band knows which direction is worse
 * (p99 regressing up is a violation; improving is not). Exits 0 when
 * the candidate holds the line, 1 on any regression, 2 on usage or I/O
 * errors — the shape ctest and CI gates want.
 *
 * usage: bench_compare [--tolerance PCT] [--list] BASELINE CANDIDATE
 *
 *   --tolerance PCT  scale every non-exact band so the default 5%%
 *                    tier becomes PCT (wall-clock tiers scale
 *                    proportionally)
 *   --list           print every compared path, not just violations
 *
 * BASELINE and CANDIDATE are bench artifacts (a "bench" field), run
 * manifests ("spikesim_manifest"; seed/threads and the embedded
 * artifacts are gated, info/phases/metrics are informational), or
 * directories (aligned by file name; every baseline *.json must have a
 * candidate partner).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"

using spikesim::obs::JsonValue;
using spikesim::obs::jsonNumber;
using spikesim::obs::parseJson;

namespace {

enum class Direction
{
    Info,         ///< never gated; shown under --list only
    Exact,        ///< must match exactly (config, counts, verdicts)
    LowerBetter,  ///< regression = candidate above the band
    HigherBetter, ///< regression = candidate below the band
    Symmetric,    ///< regression = candidate outside the band
};

/** One threshold rule: first glob match against the dotted path wins;
 *  `*` crosses dots. rel is a fraction of |baseline|, abs_slack an
 *  absolute floor (covers zero baselines). */
struct Rule
{
    const char* pattern;
    Direction dir;
    double rel = 0.0;
    double abs_slack = 0.0;
};

/**
 * The ordered rule table. Tiers: configuration and anything seeded is
 * exact (these benches are byte-identical per seed, so same-seed
 * reruns must agree bit for bit); wall-clock timings get 35% — they
 * share machines with other tests; derived simulated metrics
 * (latencies, rates, burn) get 5% with direction; everything numeric
 * defaults to a symmetric 5%.
 */
constexpr Rule kRules[] = {
    // Identity / environment: informational, never gated.
    {"args*", Direction::Info},
    {"binary", Direction::Info},
    {"*simd_kernel*", Direction::Info},
    {"*perf.*", Direction::Info},
    {"phases*", Direction::Info},
    {"*reason*", Direction::Info},
    {"platform*", Direction::Info},
    {"*platform.name", Direction::Info},
    {"*utilization", Direction::Info},
    {"*parallel_threads", Direction::Info},
    {"*trace_cpus", Direction::Info},

    // Configuration and per-seed-deterministic identity: exact.
    {"bench", Direction::Exact},
    {"*workload", Direction::Exact},
    {"*arrival", Direction::Exact},
    {"*verdict", Direction::Exact},
    {"*met", Direction::Exact},
    {"seed", Direction::Exact},
    {"threads", Direction::Exact},
    {"*_txns", Direction::Exact},
    {"*requests", Direction::Exact},
    {"*sessions", Direction::Exact},
    {"*shards", Direction::Exact},
    {"*queue_bound", Direction::Exact},
    {"*tenants", Direction::Exact},
    {"*trace_events", Direction::Exact},
    {"*configs", Direction::Exact},
    {"*line_accesses", Direction::Exact},
    {"*epochs", Direction::Exact},
    {"*batch", Direction::Exact},
    {"*differential_ok", Direction::Exact},
    {"*_available", Direction::Exact},
    {"*speedup_bar_10x_met", Direction::Exact},
    {"*offered", Direction::Exact},
    {"*horizon_cycles", Direction::Exact},
    {"*_bytes", Direction::Exact},
    {"*clock_ghz", Direction::Exact},
    {"*threshold*", Direction::Exact},
    {"*target", Direction::Exact},
    {"*.rho", Direction::Exact},
    {"rho", Direction::Exact},
    {"*alert_windows", Direction::LowerBetter, 0.05, 2.0},
    {"*windows", Direction::Exact},

    // Wall-clock measurements: wide bands, directional.
    {"*_seconds", Direction::LowerBetter, 0.35, 0.05},
    {"*_ns", Direction::LowerBetter, 0.35, 50.0},
    {"*_per_sec", Direction::HigherBetter, 0.35, 0.0},
    {"*overhead_percent", Direction::LowerBetter, 0.35, 2.0},

    // Deterministic simulated metrics: tight directional bands.
    {"*_us", Direction::LowerBetter, 0.05, 0.5},
    {"*_cycles", Direction::LowerBetter, 0.05, 0.0},
    {"*misses*", Direction::LowerBetter, 0.05, 0.0},
    {"*_mpki", Direction::LowerBetter, 0.05, 0.01},
    {"*dropped", Direction::LowerBetter, 0.05, 10.0},
    {"*inflation*", Direction::LowerBetter, 0.05, 0.5},
    {"*_burn", Direction::LowerBetter, 0.05, 0.05},
    {"*max_queue_depth", Direction::LowerBetter, 0.05, 4.0},
    {"*_tps", Direction::HigherBetter, 0.05, 0.0},
    {"*improvement*", Direction::HigherBetter, 0.05, 1.0},
    {"*speedup*", Direction::HigherBetter, 0.05, 0.0},
    {"*completed", Direction::HigherBetter, 0.05, 0.0},
    {"*attainment", Direction::HigherBetter, 0.01, 0.005},
    {"*_ratio", Direction::HigherBetter, 0.10, 0.0},

    // Everything else numeric: symmetric 5%.
    {"*", Direction::Symmetric, 0.05, 1e-9},
};

/** Classic glob where `*` matches any run of characters (dots too). */
bool
globMatch(const char* p, const char* s)
{
    while (*p != '\0') {
        if (*p == '*') {
            ++p;
            if (*p == '\0')
                return true;
            for (; *s != '\0'; ++s)
                if (globMatch(p, s))
                    return true;
            return false;
        }
        if (*s == '\0' || *s != *p)
            return false;
        ++p;
        ++s;
    }
    return *s == '\0';
}

const Rule&
ruleFor(const std::string& path)
{
    for (const Rule& r : kRules)
        if (globMatch(r.pattern, path.c_str()))
            return r;
    return kRules[sizeof(kRules) / sizeof(kRules[0]) - 1];
}

/** One flattened leaf: dotted path -> scalar value. */
struct Leaf
{
    std::string path;
    const JsonValue* value;
};

/** Identifying members for key-aligned array rows, by array name. */
std::vector<const char*>
alignKeys(const std::string& array_name)
{
    if (array_name == "loads")
        return {"rho", "arrival"};
    if (array_name == "grid")
        return {"size_kb", "line_b"};
    if (array_name == "rerank_curve")
        return {"epoch"};
    if (array_name == "slo")
        return {"name"};
    return {};
}

std::string
scalarText(const JsonValue& v)
{
    switch (v.kind()) {
    case JsonValue::Kind::Null:
        return "null";
    case JsonValue::Kind::Bool:
        return v.boolean() ? "true" : "false";
    case JsonValue::Kind::Number:
        return jsonNumber(v.number());
    case JsonValue::Kind::String:
        return v.str();
    default:
        return v.dump();
    }
}

void
flatten(const JsonValue& v, const std::string& path,
        const std::string& leaf_name, std::vector<Leaf>& out)
{
    if (v.isObject()) {
        for (const auto& [key, member] : v.members())
            flatten(member, path.empty() ? key : path + "." + key, key,
                    out);
        return;
    }
    if (v.isArray()) {
        const std::vector<const char*> keys = alignKeys(leaf_name);
        for (std::size_t i = 0; i < v.array().size(); ++i) {
            const JsonValue& row = v.array()[i];
            std::string tag;
            if (!keys.empty() && row.isObject()) {
                for (const char* k : keys) {
                    const JsonValue* kv = row.find(k);
                    if (kv == nullptr)
                        continue;
                    if (!tag.empty())
                        tag += ',';
                    tag += std::string(k) + "=" + scalarText(*kv);
                }
            }
            if (tag.empty())
                tag = std::to_string(i);
            flatten(row, path + "[" + tag + "]", leaf_name, out);
        }
        return;
    }
    out.push_back({path, &v});
}

struct CompareStats
{
    std::size_t compared = 0;
    std::size_t violations = 0;
    bool list = false;
    double scale = 1.0; ///< --tolerance PCT / 5
};

void
violation(CompareStats& st, const std::string& path,
          const std::string& what)
{
    ++st.violations;
    std::cout << "REGRESSION " << path << ": " << what << "\n";
}

void
compareNumbers(CompareStats& st, const std::string& path, const Rule& r,
               double base, double cand)
{
    const double rel = r.rel * st.scale;
    const double slack = r.abs_slack * st.scale;
    const double band = std::max(std::abs(base) * rel, slack);
    const double delta = cand - base;
    const auto pct = [&](double d) {
        return base != 0.0
                   ? jsonNumber(d / std::abs(base) * 100.0) + "%"
                   : jsonNumber(d) + " abs";
    };
    bool ok = true;
    switch (r.dir) {
    case Direction::Exact:
        ok = base == cand;
        break;
    case Direction::LowerBetter:
        ok = cand <= base + band;
        break;
    case Direction::HigherBetter:
        ok = cand >= base - band;
        break;
    case Direction::Symmetric:
        ok = std::abs(delta) <= band;
        break;
    case Direction::Info:
        break;
    }
    if (!ok) {
        if (r.dir == Direction::Exact)
            violation(st, path,
                      "expected exactly " + jsonNumber(base) + ", got " +
                          jsonNumber(cand));
        else
            violation(st, path,
                      "baseline " + jsonNumber(base) + " candidate " +
                          jsonNumber(cand) + " (" + pct(delta) +
                          ", allowed band " + pct(band) + ")");
    } else if (st.list) {
        std::cout << "ok         " << path << ": " << jsonNumber(base)
                  << " -> " << jsonNumber(cand) << "\n";
    }
}

void
compareDocs(CompareStats& st, const std::string& label,
            const JsonValue& base, const JsonValue& cand);

/** Reduce a manifest to the subtree the gate covers: seed, threads,
 *  and the embedded artifacts. info/phases/metrics stay informational
 *  (they carry wall-clock and host-specific material). */
JsonValue
manifestGated(const JsonValue& doc)
{
    JsonValue out(JsonValue::Kind::Object);
    for (const char* key : {"seed", "threads", "artifacts"})
        if (const JsonValue* v = doc.find(key))
            out.members().emplace_back(key, *v);
    return out;
}

void
compareDocs(CompareStats& st, const std::string& label,
            const JsonValue& base, const JsonValue& cand)
{
    const bool manifest = base.find("spikesim_manifest") != nullptr;
    const JsonValue gated_base = manifest ? manifestGated(base) : base;
    const JsonValue gated_cand = manifest ? manifestGated(cand) : cand;

    std::vector<Leaf> base_leaves;
    std::vector<Leaf> cand_leaves;
    flatten(gated_base, "", "", base_leaves);
    flatten(gated_cand, "", "", cand_leaves);

    for (const Leaf& bl : base_leaves) {
        const std::string path =
            label.empty() ? bl.path : label + ":" + bl.path;
        const Rule& rule = ruleFor(bl.path);
        if (rule.dir == Direction::Info) {
            if (st.list)
                std::cout << "info       " << path << ": "
                          << scalarText(*bl.value) << "\n";
            continue;
        }
        ++st.compared;
        const auto it = std::find_if(
            cand_leaves.begin(), cand_leaves.end(),
            [&](const Leaf& cl) { return cl.path == bl.path; });
        if (it == cand_leaves.end()) {
            violation(st, path, "missing from candidate");
            continue;
        }
        const JsonValue& bv = *bl.value;
        const JsonValue& cv = *it->value;
        if (bv.isNumber() && cv.isNumber()) {
            compareNumbers(st, path, rule, bv.number(), cv.number());
        } else if (bv == cv) {
            if (st.list)
                std::cout << "ok         " << path << ": "
                          << scalarText(bv) << "\n";
        } else {
            violation(st, path,
                      "expected " + scalarText(bv) + ", got " +
                          scalarText(cv));
        }
    }
}

bool
loadDoc(const std::string& path, JsonValue& out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::cerr << "bench_compare: cannot read " << path << "\n";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string err;
    if (!parseJson(buf.str(), out, &err)) {
        std::cerr << "bench_compare: " << path << " is not valid JSON: "
                  << err << "\n";
        return false;
    }
    return true;
}

[[noreturn]] void
usage(const std::string& complaint)
{
    std::cerr << "bench_compare: " << complaint
              << "\nusage: bench_compare [--tolerance PCT] [--list]"
                 " BASELINE CANDIDATE\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    CompareStats st;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            st.list = true;
        } else if (arg == "--tolerance") {
            if (i + 1 >= argc)
                usage("--tolerance needs a percentage");
            char* end = nullptr;
            const double pct = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || pct <= 0.0)
                usage(std::string("--tolerance must be a positive "
                                  "percentage, got '") +
                      argv[i] + "'");
            st.scale = pct / 5.0;
        } else if (arg.rfind("--", 0) == 0) {
            usage("unknown option '" + arg + "'");
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2)
        usage("expected exactly BASELINE and CANDIDATE");
    const std::string& base_path = positional[0];
    const std::string& cand_path = positional[1];

    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, std::string>> pairs;
    std::vector<std::string> labels;
    const bool base_dir = fs::is_directory(base_path);
    const bool cand_dir = fs::is_directory(cand_path);
    if (base_dir != cand_dir)
        usage("BASELINE and CANDIDATE must both be files or both be "
              "directories");
    if (base_dir) {
        std::vector<std::string> names;
        for (const auto& e : fs::directory_iterator(base_path))
            if (e.is_regular_file() &&
                e.path().extension() == ".json")
                names.push_back(e.path().filename().string());
        std::sort(names.begin(), names.end());
        if (names.empty())
            usage("no *.json files in " + base_path);
        for (const std::string& n : names) {
            pairs.emplace_back((fs::path(base_path) / n).string(),
                               (fs::path(cand_path) / n).string());
            labels.push_back(n);
        }
    } else {
        pairs.emplace_back(base_path, cand_path);
        labels.emplace_back("");
    }

    for (std::size_t i = 0; i < pairs.size(); ++i) {
        JsonValue base;
        JsonValue cand;
        if (!fs::exists(pairs[i].second)) {
            std::cout << "REGRESSION " << labels[i]
                      << ": candidate file missing ("
                      << pairs[i].second << ")\n";
            ++st.violations;
            continue;
        }
        if (!loadDoc(pairs[i].first, base) ||
            !loadDoc(pairs[i].second, cand))
            return 2;
        compareDocs(st, labels[i], base, cand);
    }

    std::cout << "bench_compare: " << st.compared << " values compared, "
              << st.violations
              << (st.violations == 1 ? " regression\n" : " regressions\n");
    return st.violations == 0 ? 0 : 1;
}
