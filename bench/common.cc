#include "bench/common.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/corpus.hh"
#include "sim/sweep.hh"
#include "support/panic.hh"

namespace spikesim::bench {

namespace {

/** runWorkload's usage line for `argv0`. */
std::string
usageLine(const char* argv0)
{
    return std::string("usage: ") + argv0 +
           " [--corpus DIR] [--threads N] [--seed N]"
           " [--trace-out FILE]"
           " [--manifest-out FILE] [--timeline-out FILE]"
           " [--progress SECS]"
           " [profile_txns] [trace_txns]";
}

[[noreturn]] void
usage(const char* argv0, const std::string& complaint)
{
    support::fatal(complaint + "\n" + usageLine(argv0));
}

/** parseTxnCount with runWorkload's usage line. */
std::uint64_t
parseCount(const char* argv0, const std::string& arg, const char* what)
{
    return parseTxnCount(arg, what, usageLine(argv0));
}

bool
envFlagSet(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::string(v) != "0";
}

/** Strict thread-count parse: 0 (serial oracle) .. 4096. */
int
parseThreads(const char* argv0, const std::string& arg)
{
    const std::uint64_t v = parseCount(argv0, arg, "thread count");
    if (v > 4096)
        usage(argv0, "thread count is out of range: '" + arg + "'");
    return static_cast<int>(v);
}

/** Strict positive-seconds parse for `--progress`. */
double
parseSeconds(const char* argv0, const std::string& arg)
{
    if (arg.empty())
        usage(argv0, "--progress needs a period in seconds");
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(arg.c_str(), &end);
    if (errno == ERANGE || end != arg.c_str() + arg.size() ||
        !std::isfinite(v) || v <= 0.0)
        usage(argv0, "--progress period must be a positive number of "
                     "seconds, got '" + arg + "'");
    return v;
}

/** A flag value that must be a non-empty file path. */
std::string
parsePath(const char* argv0, const std::string& arg, const char* flag)
{
    if (arg.empty())
        usage(argv0, std::string(flag) + " needs a file path");
    return arg;
}

/** Format a double with fixed precision for manifest info fields. */
std::string
fmtRate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

} // namespace

std::uint64_t
parseTxnCount(const std::string& arg, const char* what,
              const std::string& usage_line)
{
    const auto fail = [&](const std::string& complaint) {
        support::fatal(usage_line.empty() ? complaint
                                          : complaint + "\n" + usage_line);
    };
    if (arg.empty())
        fail(std::string(what) + " is empty");
    if (arg[0] == '-' || arg[0] == '+')
        fail(std::string(what) + " must be a non-negative integer, got '" +
             arg + "'");
    for (char c : arg)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            fail(std::string(what) + " is not a number: '" + arg + "'");
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(arg.c_str(), &end, 10);
    if (errno == ERANGE || end != arg.c_str() + arg.size())
        fail(std::string(what) + " is out of range: '" + arg + "'");
    return v;
}

ObsOptions
obsOptionsFromEnv()
{
    ObsOptions o;
    if (const char* v = std::getenv("SPIKESIM_TRACE_OUT");
        v != nullptr && *v != '\0')
        o.trace_out = v;
    if (const char* v = std::getenv("SPIKESIM_MANIFEST_OUT");
        v != nullptr && *v != '\0')
        o.manifest_out = v;
    if (const char* v = std::getenv("SPIKESIM_TIMELINE_OUT");
        v != nullptr && *v != '\0')
        o.timeline_out = v;
    if (const char* v = std::getenv("SPIKESIM_PROGRESS");
        v != nullptr && *v != '\0')
        o.progress_s = parseSeconds("SPIKESIM_PROGRESS", v);
    return o;
}

ObsRun::ObsRun(ObsOptions opts, int argc, char** argv)
    : opts_(std::move(opts)),
      perf_(std::make_unique<obs::PerfCounters>())
{
    if (argc > 0)
        manifest_.binary = argv[0];
    for (int i = 1; i < argc; ++i)
        manifest_.args.emplace_back(argv[i]);
    if (!opts_.trace_out.empty())
        obs::startTracing();
    // Start hardware counters before any worker pool exists: the fds
    // are inherit-enabled, so threads spawned from here on are counted.
    perf_->start();
    if (opts_.progress_s > 0.0)
        progress_ = std::make_unique<obs::ProgressMeter>(opts_.progress_s,
                                                         std::cerr);
}

ObsRun::~ObsRun()
{
    finish();
}

void
ObsRun::addArtifact(std::string name, std::string json)
{
    manifest_.artifacts.push_back(
        {std::move(name), std::move(json)});
}

void
ObsRun::addArtifactFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::cerr << "[obs] warning: cannot read artifact " << path
                  << "; not embedded in the manifest\n";
        return;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    addArtifact(std::filesystem::path(path).filename().string(),
                buf.str());
}

void
ObsRun::addTimeline(const obs::Timeline& tl)
{
    timelines_.push_back(tl);
    manifest_.timelines.push_back(tl.renderSection());
}

void
ObsRun::addSloVerdict(const obs::SloSpec& spec, const obs::SloVerdict& v)
{
    manifest_.slos.push_back(obs::renderSloVerdict(spec, v));
}

void
ObsRun::finish()
{
    if (finished_)
        return;
    finished_ = true;
    progress_.reset(); // join the heartbeat before flushing anything

    // Hardware self-profile: fold the run's counters into the registry
    // (perf.* gauges land in the manifest's metrics snapshot too) and
    // the manifest's info block. Unavailable perf records the reason
    // and nothing else — the run is never degraded by it.
    {
        obs::Span span("perf.sample", "obs");
        perf_->stop();
        const obs::PerfSample s = perf_->sample();
        manifest_.info.emplace_back("perf.available",
                                    s.available ? "1" : "0");
        if (!perf_->available())
            manifest_.info.emplace_back("perf.reason", perf_->reason());
        const auto count = [&](const char* name,
                               const obs::PerfSample::Value& v) {
            if (!v.ok)
                return;
            const auto n = static_cast<std::int64_t>(std::llround(
                v.count));
            obs::gauge(name).set(n);
            manifest_.info.emplace_back(name, std::to_string(n));
        };
        count("perf.cycles", s.cycles);
        count("perf.instructions", s.instructions);
        count("perf.branches", s.branches);
        count("perf.branch_misses", s.branch_misses);
        count("perf.stalled_cycles_frontend", s.stalled_frontend);
        count("perf.l1i_misses", s.l1i_misses);
        count("perf.l1d_misses", s.l1d_misses);
        count("perf.itlb_misses", s.itlb_misses);
        if (s.available) {
            manifest_.info.emplace_back("perf.ipc", fmtRate(s.ipc()));
            manifest_.info.emplace_back("perf.branch_miss_pct",
                                        fmtRate(s.branchMissPct()));
            manifest_.info.emplace_back("perf.l1i_mpki",
                                        fmtRate(s.l1iMpki()));
            manifest_.info.emplace_back("perf.l1d_mpki",
                                        fmtRate(s.l1dMpki()));
            manifest_.info.emplace_back("perf.itlb_mpki",
                                        fmtRate(s.itlbMpki()));
            manifest_.info.emplace_back(
                "perf.frontend_bound_pct",
                fmtRate(s.frontendBoundPct()));
        }
    }

    if (!opts_.trace_out.empty()) {
        obs::stopTracing(opts_.trace_out);
        std::cerr << "[obs] wrote trace to " << opts_.trace_out << "\n";
    }
    if (!opts_.timeline_out.empty()) {
        obs::writeTimelineTrace(timelines_, opts_.timeline_out);
        std::cerr << "[obs] wrote timeline trace ("
                  << timelines_.size() << " timelines) to "
                  << opts_.timeline_out << "\n";
    }
    if (!opts_.manifest_out.empty()) {
        obs::writeManifest(manifest_, opts_.manifest_out);
        std::cerr << "[obs] wrote manifest to " << opts_.manifest_out
                  << "\n";
    }
}

int
threadsFromEnv()
{
    const char* v = std::getenv("SPIKESIM_THREADS");
    if (v == nullptr || *v == '\0')
        return support::ThreadPool::defaultThreads();
    return parseThreads("SPIKESIM_THREADS", v);
}

std::uint64_t
seedFromEnv(std::uint64_t fallback)
{
    const char* v = std::getenv("SPIKESIM_SEED");
    if (v == nullptr || *v == '\0')
        return fallback;
    return parseCount("SPIKESIM_SEED", v, "seed");
}

Workload
runWorkload(int argc, char** argv, std::uint64_t profile_txns,
            std::uint64_t trace_txns)
{
    std::string corpus_dir;
    if (const char* env = std::getenv("SPIKESIM_CORPUS_DIR"))
        corpus_dir = env;

    int threads = -1; // unset: SPIKESIM_THREADS, then hardware
    bool seed_set = false;
    std::uint64_t seed = kDefaultSeed;
    ObsOptions oopts = obsOptionsFromEnv(); // flags below win

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corpus") {
            if (i + 1 >= argc)
                usage(argv[0], "--corpus needs a directory argument");
            corpus_dir = argv[++i];
        } else if (arg.rfind("--corpus=", 0) == 0) {
            corpus_dir = arg.substr(9);
        } else if (arg == "--trace-out") {
            if (i + 1 >= argc)
                usage(argv[0], "--trace-out needs a file path");
            oopts.trace_out =
                parsePath(argv[0], argv[++i], "--trace-out");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            oopts.trace_out =
                parsePath(argv[0], arg.substr(12), "--trace-out");
        } else if (arg == "--manifest-out") {
            if (i + 1 >= argc)
                usage(argv[0], "--manifest-out needs a file path");
            oopts.manifest_out =
                parsePath(argv[0], argv[++i], "--manifest-out");
        } else if (arg.rfind("--manifest-out=", 0) == 0) {
            oopts.manifest_out =
                parsePath(argv[0], arg.substr(15), "--manifest-out");
        } else if (arg == "--timeline-out") {
            if (i + 1 >= argc)
                usage(argv[0], "--timeline-out needs a file path");
            oopts.timeline_out =
                parsePath(argv[0], argv[++i], "--timeline-out");
        } else if (arg.rfind("--timeline-out=", 0) == 0) {
            oopts.timeline_out =
                parsePath(argv[0], arg.substr(15), "--timeline-out");
        } else if (arg == "--progress") {
            if (i + 1 >= argc)
                usage(argv[0], "--progress needs a period in seconds");
            oopts.progress_s = parseSeconds(argv[0], argv[++i]);
        } else if (arg.rfind("--progress=", 0) == 0) {
            oopts.progress_s = parseSeconds(argv[0], arg.substr(11));
        } else if (arg == "--threads") {
            if (i + 1 >= argc)
                usage(argv[0], "--threads needs a count argument");
            threads = parseThreads(argv[0], argv[++i]);
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = parseThreads(argv[0], arg.substr(10));
        } else if (arg == "--seed") {
            if (i + 1 >= argc)
                usage(argv[0], "--seed needs a value argument");
            seed = parseCount(argv[0], argv[++i], "seed");
            seed_set = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = parseCount(argv[0], arg.substr(7), "seed");
            seed_set = true;
        } else if (arg.size() > 1 && arg[0] == '-' &&
                   !std::isdigit(static_cast<unsigned char>(arg[1]))) {
            usage(argv[0], "unknown option '" + arg + "'");
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() > 2)
        usage(argv[0], "too many arguments");
    if (positional.size() > 0)
        profile_txns =
            parseCount(argv[0], positional[0], "profile_txns");
    if (positional.size() > 1)
        trace_txns = parseCount(argv[0], positional[1], "trace_txns");

    sim::CorpusParams params;
    params.profile_txns = profile_txns;
    params.trace_txns = trace_txns;

    Workload w;
    if (oopts.active())
        w.obs_run = std::make_unique<ObsRun>(std::move(oopts), argc,
                                             argv);

    sim::GeneratedWorkload g;
    {
        std::optional<obs::PhaseClock> phase;
        if (w.obs_run)
            phase.emplace(w.obs_run->manifest(), "workload");
        if (corpus_dir.empty()) {
            g = sim::generateWorkload(params, &std::cerr);
        } else {
            g = sim::loadOrCapture(params, corpus_dir, &std::cerr);
            if (envFlagSet("SPIKESIM_CORPUS_VERIFY"))
                sim::verifyCorpusAgainstFresh(params, *g.profiles, g.buf,
                                              &std::cerr);
        }
    }

    w.system = std::move(g.system);
    w.profiles = std::move(g.profiles);
    w.buf = std::move(g.buf);
    w.profile_txns = profile_txns;
    w.trace_txns = trace_txns;
    w.db_ready = g.db_ready;
    w.threads = threads >= 0 ? threads : threadsFromEnv();
    w.seed = seed_set ? seed : seedFromEnv();
    if (w.threads > 0)
        w.worker_pool =
            std::make_unique<support::ThreadPool>(w.threads);

    if (w.obs_run) {
        obs::Manifest& m = w.obs_run->manifest();
        m.seed = w.seed;
        m.threads = static_cast<std::size_t>(w.threads);
        m.info.emplace_back("profile_txns",
                            std::to_string(profile_txns));
        m.info.emplace_back("trace_txns", std::to_string(trace_txns));
        if (!corpus_dir.empty())
            m.info.emplace_back("corpus_dir", corpus_dir);
    }
    return w;
}

const sim::ResolvedTraceSoA&
BenchReplay::resolved(sim::StreamFilter filter, bool include_data)
{
    const auto key =
        std::make_pair(static_cast<int>(filter), include_data);
    auto it = resolved_.find(key);
    if (it == resolved_.end())
        it = resolved_
                 .emplace(key, rep_.resolveSoA(filter, include_data))
                 .first;
    return it->second;
}

sim::SweepSpec
sweepSpecFor(std::span<const mem::CacheConfig> configs)
{
    sim::SweepSpec spec;
    spec.assocs.clear();
    const auto add = [](std::vector<std::uint32_t>& dim, std::uint32_t v) {
        if (std::find(dim.begin(), dim.end(), v) == dim.end())
            dim.push_back(v);
    };
    for (const mem::CacheConfig& config : configs) {
        add(spec.size_bytes, config.size_bytes);
        add(spec.line_bytes, config.line_bytes);
        add(spec.assocs, config.assoc);
    }
    return spec;
}

ICacheCounts
BenchReplay::icache(const mem::CacheConfig& config,
                    sim::StreamFilter filter)
{
    return icacheColumn({&config, 1}, filter)[0];
}

std::vector<ICacheCounts>
BenchReplay::icacheColumn(std::span<const mem::CacheConfig> configs,
                          sim::StreamFilter filter)
{
    std::vector<ICacheCounts> out;
    out.reserve(configs.size());
    if (!parallel_) {
        for (const mem::CacheConfig& config : configs) {
            const sim::ICacheReplayResult r = rep_.icache(config, filter);
            out.push_back({r.accesses, r.misses});
        }
        return out;
    }
    if (configs.empty())
        return out;

    // One walk prices every cell of the grid the column spans.
    const sim::SweepJob job{&rep_.app(), rep_.kernel(), filter,
                            sweepSpecFor(configs), ""};
    const sim::SweepResult sweep =
        sim::runSweepJobs(rep_.trace(), {job}, pool_)[0];
    for (const mem::CacheConfig& config : configs)
        out.push_back({sweep.accesses(config.line_bytes),
                       sweep.misses(config)});
    return out;
}

sim::ICacheReplayResult
BenchReplay::icacheInterference(const mem::CacheConfig& config,
                                sim::StreamFilter filter)
{
    if (!parallel_)
        return rep_.icache(config, filter);
    return sim::replayICache(resolved(filter, false), {&config, 1},
                             sim::SimdMode::Auto, pool_)[0];
}

mem::ThreeCStats
BenchReplay::threeCs(const mem::CacheConfig& config,
                     sim::StreamFilter filter)
{
    if (!parallel_)
        return rep_.threeCs(config, filter);
    return sim::replayThreeCs(resolved(filter, false), {&config, 1},
                              sim::SimdMode::Auto, pool_)[0];
}

std::vector<mem::ThreeCStats>
BenchReplay::threeCsColumn(std::span<const mem::CacheConfig> configs,
                           sim::StreamFilter filter)
{
    if (!parallel_) {
        std::vector<mem::ThreeCStats> out;
        out.reserve(configs.size());
        for (const mem::CacheConfig& config : configs)
            out.push_back(rep_.threeCs(config, filter));
        return out;
    }
    return sim::replayThreeCs(resolved(filter, false), configs,
                              sim::SimdMode::Auto, pool_);
}

mem::StreamBufferStats
BenchReplay::streamBuffer(const mem::CacheConfig& config, int num_buffers,
                          sim::StreamFilter filter)
{
    if (!parallel_)
        return rep_.streamBuffer(config, num_buffers, filter);
    return sim::replayStreamBuffer(resolved(filter, false), {&config, 1},
                                   num_buffers, sim::SimdMode::Auto,
                                   pool_)[0];
}

sim::WordStats
BenchReplay::instrumented(const mem::CacheConfig& config,
                          sim::StreamFilter filter, bool flush_at_end)
{
    if (!parallel_)
        return rep_.instrumented(config, filter, flush_at_end);
    return sim::replayInstrumented(resolved(filter, false), {&config, 1},
                                   flush_at_end, pool_)[0];
}

sim::ITlbReplayResult
BenchReplay::itlb(const sim::ITlbSpec& spec, sim::StreamFilter filter)
{
    return itlbColumn({&spec, 1}, filter)[0];
}

std::vector<sim::ITlbReplayResult>
BenchReplay::itlbColumn(std::span<const sim::ITlbSpec> specs,
                        sim::StreamFilter filter)
{
    if (!parallel_) {
        std::vector<sim::ITlbReplayResult> out;
        out.reserve(specs.size());
        for (const sim::ITlbSpec& spec : specs)
            out.push_back(rep_.itlb(spec, filter));
        return out;
    }
    return sim::replayITlb(resolved(filter, false), specs,
                           sim::SimdMode::Auto, pool_);
}

sim::HierarchyReplayResult
BenchReplay::hierarchy(const mem::HierarchyConfig& config,
                       bool include_data, bool model_coherence)
{
    if (!parallel_)
        return rep_.hierarchy(config, include_data, model_coherence);
    return sim::replayHierarchy(
        resolved(sim::StreamFilter::Combined, include_data), {&config, 1},
        model_coherence, pool_)[0];
}

std::vector<sim::HierarchyReplayResult>
BenchReplay::hierarchyColumn(std::span<const mem::HierarchyConfig> configs,
                             bool include_data, bool model_coherence)
{
    if (!parallel_) {
        std::vector<sim::HierarchyReplayResult> out;
        out.reserve(configs.size());
        for (const mem::HierarchyConfig& config : configs)
            out.push_back(
                rep_.hierarchy(config, include_data, model_coherence));
        return out;
    }
    return sim::replayHierarchy(
        resolved(sim::StreamFilter::Combined, include_data), configs,
        model_coherence, pool_);
}

metrics::SequenceStats
BenchReplay::sequence(sim::StreamFilter filter)
{
    if (!parallel_) {
        // The scalar oracle takes one image and the layout that maps
        // it; Combined has no oracle form (two layouts, one stream).
        SPIKESIM_ASSERT(filter != sim::StreamFilter::Combined,
                        "sequence() needs a single-image filter");
        return filter == sim::StreamFilter::AppOnly
                   ? metrics::sequenceLengths(rep_.trace(), rep_.app(),
                                              trace::ImageId::App)
                   : metrics::sequenceLengths(rep_.trace(),
                                              *rep_.kernel(),
                                              trace::ImageId::Kernel);
    }
    return sim::replaySequence(resolved(filter, false), pool_);
}

std::uint64_t
BenchReplay::dynamicInstrs(sim::StreamFilter filter)
{
    if (!parallel_)
        return rep_.dynamicInstrs(filter);
    return resolved(filter, false).instrs;
}

void
banner(const std::string& figure, const std::string& what)
{
    std::cout << "=== " << figure << ": " << what << " ===\n"
              << "(Ramirez et al., ISCA 2001 -- spikesim reproduction)\n\n";
}

void
paperVsMeasured(const std::string& metric, const std::string& paper,
                const std::string& measured)
{
    std::cout << "  " << metric << "\n    paper:    " << paper
              << "\n    measured: " << measured << "\n";
}

} // namespace spikesim::bench
