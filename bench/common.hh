#ifndef SPIKESIM_BENCH_COMMON_HH
#define SPIKESIM_BENCH_COMMON_HH

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/pipeline.hh"
#include "metrics/sequence.hh"
#include "obs/manifest.hh"
#include "obs/perf.hh"
#include "obs/slo.hh"
#include "obs/timeline.hh"
#include "obs/tracing.hh"
#include "sim/engine.hh"
#include "sim/replay.hh"
#include "sim/system.hh"
#include "support/table.hh"
#include "support/threadpool.hh"
#include "trace/trace.hh"

/**
 * @file
 * Shared harness for the figure-reproduction benchmarks: runs the OLTP
 * workload once (profile run + measured trace run, mirroring the
 * paper's Pixie profiling followed by SimOS trace collection) and hands
 * each bench the pieces it needs. Workload size is overridable from the
 * command line: `<bench> [--corpus DIR] [profile_txns] [trace_txns]`.
 *
 * When a corpus directory is given (the `--corpus` flag or the
 * SPIKESIM_CORPUS_DIR environment variable), runWorkload() consults the
 * persistent trace/profile cache (sim/corpus.hh): a fingerprint hit
 * skips database load, warmup, profiling, and tracing entirely and the
 * bench starts at replay speed; a miss generates the workload and saves
 * it for every subsequent bench of the sweep. Setting
 * SPIKESIM_CORPUS_VERIFY=1 additionally regenerates the workload from
 * scratch and fatal()s unless the loaded artifacts are bit-identical.
 *
 * Replay threading is shared across every bench the same way: the
 * `--threads N` flag (or the SPIKESIM_THREADS environment variable)
 * sizes one support::ThreadPool owned by the Workload, used by both the
 * sweep executor (sim/sweep.hh) and the parallel replay engine
 * (sim/engine.hh), both via BenchReplay below. `--threads 0` disables
 * the pool entirely and BenchReplay falls back to the scalar
 * per-config Replayer walks — the differential oracle path, so
 * `--threads 0` versus `--threads N` is a byte-identical A/B of every
 * table. The default is the hardware concurrency.
 *
 * When any observability switch is active, ObsRun also opens hardware
 * perf counters (obs/perf.hh) over the whole run and folds cycles,
 * instructions, IPC, branch-miss %, L1I/L1D/iTLB MPKI and the
 * front-end-bound estimate into the registry (perf.* gauges) and the
 * run manifest. Hosts where perf_event_open is forbidden record
 * perf.available = 0 and run on unaffected.
 */

namespace spikesim::bench {

/**
 * Resolved observability switches. All default off, so a run without
 * them is byte-identical to a build without the obs layer: no trace
 * collection, no heartbeat, no manifest, nothing extra on stdout.
 */
struct ObsOptions
{
    std::string trace_out;    ///< Chrome trace JSON path ("" = off)
    std::string manifest_out; ///< run manifest JSON path ("" = off)
    /// Flight recorder counter-trace JSON path ("" = off). A separate
    /// document from trace_out: span timestamps are wall time, the
    /// timeline's are the workload's own (e.g. virtual simulated)
    /// axis, and the two must not share a time axis.
    std::string timeline_out;
    double progress_s = 0.0;  ///< heartbeat period in seconds (0 = off)

    bool
    active() const
    {
        return !trace_out.empty() || !manifest_out.empty() ||
               !timeline_out.empty() || progress_s > 0.0;
    }
};

/**
 * Observability switches from the environment: SPIKESIM_TRACE_OUT,
 * SPIKESIM_MANIFEST_OUT, SPIKESIM_TIMELINE_OUT, SPIKESIM_PROGRESS
 * (seconds). The only route into the google-benchmark binaries, whose
 * argv belongs to the benchmark library; runWorkload() additionally
 * accepts `--trace-out`, `--manifest-out`, `--timeline-out`, and
 * `--progress` flags, which win over the environment.
 */
ObsOptions obsOptionsFromEnv();

/**
 * RAII driver for one observed run: starts trace collection and the
 * progress heartbeat on construction, and on finish() (or destruction)
 * stops the heartbeat, flushes the Chrome trace, and writes the run
 * manifest with a final registry snapshot. All obs status lines go to
 * stderr — stdout stays byte-identical with the switches off.
 * runWorkload() hangs one off the Workload; google-benchmark mains
 * construct their own from obsOptionsFromEnv().
 */
class ObsRun
{
  public:
    ObsRun(ObsOptions opts, int argc, char** argv);
    ~ObsRun();

    ObsRun(const ObsRun&) = delete;
    ObsRun& operator=(const ObsRun&) = delete;

    obs::Manifest& manifest() { return manifest_; }
    const ObsOptions& options() const { return opts_; }

    /** Embed a produced artifact (verbatim JSON) in the manifest. */
    void addArtifact(std::string name, std::string json);

    /**
     * Read a just-written BENCH_*.json file and embed it in the
     * manifest under its basename. Missing/unreadable files warn on
     * stderr rather than failing the bench.
     */
    void addArtifactFile(const std::string& path);

    /**
     * Record one flight recorder timeline: its windows section goes
     * into the manifest's "timeline" array, and (when `--timeline-out`
     * is set) its series become counter events in the timeline trace
     * written by finish().
     */
    void addTimeline(const obs::Timeline& tl);

    /** Record one SLO verdict in the manifest's "slo" array. */
    void addSloVerdict(const obs::SloSpec& spec,
                       const obs::SloVerdict& v);

    /** Stop the heartbeat, flush trace + timeline + manifest. */
    void finish();

    /** The run's hardware counters (never null; may be inert). */
    obs::PerfCounters& perf() { return *perf_; }

  private:
    ObsOptions opts_;
    obs::Manifest manifest_;
    std::vector<obs::Timeline> timelines_;
    std::unique_ptr<obs::PerfCounters> perf_;
    std::unique_ptr<obs::ProgressMeter> progress_;
    bool finished_ = false;
};

/** Everything a figure bench needs. */
struct Workload
{
    /** Observed-run driver, or null when no obs switch is set. First
     *  member on purpose: destroyed last, after the worker pool has
     *  drained, so the trace flush sees every span. */
    std::unique_ptr<ObsRun> obs_run;
    std::unique_ptr<sim::System> system;
    std::optional<sim::System::Profiles> profiles;
    trace::TraceBuffer buf;
    std::uint64_t profile_txns = 0;
    std::uint64_t trace_txns = 0;
    bool db_ready = false; ///< system->setup() has run
    int threads = 0;       ///< resolved --threads / SPIKESIM_THREADS
    /** Resolved `--seed` / SPIKESIM_SEED (kDefaultSeed when unset);
     *  the one RNG seed every randomized bench derives from. */
    std::uint64_t seed = 1;
    /** Shared worker pool, or null when threads == 0 (serial oracle
     *  path). Sized once by runWorkload so sweep and replay share it. */
    std::unique_ptr<support::ThreadPool> worker_pool;

    support::ThreadPool* pool() const { return worker_pool.get(); }
    ObsRun* obs() const { return obs_run.get(); }

    /**
     * Register a BENCH_*.json file this bench just wrote with the run
     * manifest (no-op when no `--manifest-out`/ObsRun is active).
     */
    void
    recordArtifact(const std::string& path) const
    {
        if (obs_run)
            obs_run->addArtifactFile(path);
    }

    /**
     * Load the database if it is not loaded yet. A corpus hit skips
     * database setup (replaying the trace never touches it); benches
     * that run additional transactions call this first. Note the
     * database then starts fresh rather than in its post-trace state —
     * same as a fresh run's warmup-start.
     */
    void
    ensureDb()
    {
        if (db_ready)
            return;
        system->setup();
        db_ready = true;
    }

    const program::Program& appProg() const { return system->appProg(); }
    const program::Program&
    kernelProg() const
    {
        return system->kernelProg();
    }
    const profile::Profile& appProfile() const { return profiles->app; }
    const profile::Profile&
    kernelProfile() const
    {
        return profiles->kernel;
    }

    /** Build an application layout for the given combination. */
    core::Layout
    appLayout(core::OptCombo combo) const
    {
        core::PipelineOptions opts;
        opts.combo = combo;
        opts.text_base = system->config().app_text_base;
        return core::buildLayout(appProg(), profiles->app, opts);
    }

    /** Kernel baseline layout (the unoptimized kernel binary). */
    core::Layout
    kernelLayout() const
    {
        return core::baselineLayout(kernelProg(),
                                    system->config().kernel_text_base);
    }

    /** Kernel layout optimized with the full pipeline. */
    core::Layout
    kernelOptimizedLayout() const
    {
        core::PipelineOptions opts;
        opts.combo = core::OptCombo::All;
        opts.text_base = system->config().kernel_text_base;
        return core::buildLayout(kernelProg(), profiles->kernel, opts);
    }
};

/** Plain i-cache counts of one configuration. */
struct ICacheCounts
{
    std::uint64_t accesses = 0; ///< line fetches
    std::uint64_t misses = 0;
};

/**
 * Replay dispatcher for the figure benches: one trace + layout pair,
 * replayed either by the scalar per-config Replayer walks (no pool —
 * the oracle) or by the production paths over one resolved trace per
 * (filter, data) key (sim/soa.hh), built once and cached: i-cache
 * misses, the interference matrix included, and standalone-iTLB
 * misses from the LRU-stack sweep over its block stream
 * (sim/sweep.hh); every other family from the SoA kernels of
 * sim/engine.hh. All paths produce bit-identical results, so every
 * bench table is byte-identical across `--threads` settings; a column
 * of configurations is priced by one fused walk.
 */
class BenchReplay
{
  public:
    /** Uses the workload's shared pool (null pool = oracle path). */
    BenchReplay(const Workload& w, const core::Layout& app,
                const core::Layout* kernel = nullptr)
        : BenchReplay(w.buf, app, kernel, w.pool())
    {
    }

    /** For benches that build their own trace/pool (ablations). */
    BenchReplay(const trace::TraceBuffer& buf, const core::Layout& app,
                const core::Layout* kernel, support::ThreadPool* pool)
        : rep_(buf, app, kernel), pool_(pool), parallel_(pool != nullptr)
    {
    }

    /** The replayer stores references; temporaries would dangle. */
    BenchReplay(const Workload&, core::Layout&&,
                const core::Layout* = nullptr) = delete;

    const sim::Replayer& replayer() const { return rep_; }

    ICacheCounts icache(const mem::CacheConfig& config,
                        sim::StreamFilter filter);
    /** One sweep job pricing a whole column of configurations. */
    std::vector<ICacheCounts>
    icacheColumn(std::span<const mem::CacheConfig> configs,
                 sim::StreamFilter filter);
    /** Misses split by stream and by victim owner (Figure 13): one
     *  sweep job with interference tracking. */
    sim::ICacheReplayResult
    icacheInterference(const mem::CacheConfig& config,
                       sim::StreamFilter filter);

    mem::ThreeCStats threeCs(const mem::CacheConfig& config,
                             sim::StreamFilter filter);
    std::vector<mem::ThreeCStats>
    threeCsColumn(std::span<const mem::CacheConfig> configs,
                  sim::StreamFilter filter);

    mem::StreamBufferStats streamBuffer(const mem::CacheConfig& config,
                                        int num_buffers,
                                        sim::StreamFilter filter);

    sim::WordStats instrumented(const mem::CacheConfig& config,
                                sim::StreamFilter filter,
                                bool flush_at_end = false);

    sim::ITlbReplayResult itlb(const sim::ITlbSpec& spec,
                               sim::StreamFilter filter);
    /** One sweep job pricing a column of iTLB geometries — the shared
     *  path for every bench reporting standalone-iTLB columns (fig14,
     *  placement/layout-search ablations). */
    std::vector<sim::ITlbReplayResult>
    itlbColumn(std::span<const sim::ITlbSpec> specs,
               sim::StreamFilter filter);

    sim::HierarchyReplayResult
    hierarchy(const mem::HierarchyConfig& config, bool include_data = true,
              bool model_coherence = false);
    std::vector<sim::HierarchyReplayResult>
    hierarchyColumn(std::span<const mem::HierarchyConfig> configs,
                    bool include_data = true,
                    bool model_coherence = false);

    /** Figure 8 run lengths for one image's stream (AppOnly or
     *  KernelOnly; the scalar oracle has no combined mode). */
    metrics::SequenceStats sequence(sim::StreamFilter filter);

    std::uint64_t dynamicInstrs(sim::StreamFilter filter);

  private:
    const sim::ResolvedTraceSoA& resolved(sim::StreamFilter filter,
                                          bool include_data);

    sim::Replayer rep_;
    support::ThreadPool* pool_;
    bool parallel_;
    std::map<std::pair<int, bool>, sim::ResolvedTraceSoA> resolved_;
};

/**
 * Run the standard workload: build the system, load the database, warm
 * up, profile `profile_txns`, then record a `trace_txns` trace — or
 * load all of it from a corpus cache hit (see the file comment).
 * Malformed command-line arguments (negative, non-numeric, or
 * out-of-range transaction counts, unknown flags, missing or empty
 * flag values) are rejected with fatal() instead of being silently
 * misparsed.
 *
 * Observability flags (all optional, stdout-neutral): `--trace-out
 * FILE` collects a Chrome trace-event JSON of the whole run,
 * `--manifest-out FILE` writes the run manifest, `--timeline-out FILE`
 * writes the flight recorder counter trace (benches that build
 * timelines), `--progress SECS` prints a counter heartbeat to stderr
 * every SECS seconds. Environment fallbacks: SPIKESIM_TRACE_OUT,
 * SPIKESIM_MANIFEST_OUT, SPIKESIM_TIMELINE_OUT, SPIKESIM_PROGRESS.
 */
Workload runWorkload(int argc, char** argv,
                     std::uint64_t profile_txns = 800,
                     std::uint64_t trace_txns = 500);

/**
 * Strict parse of a non-negative decimal count (transaction counts,
 * seeds, thread counts) from the command line or the environment: a
 * sign, any non-digit, an empty string, or a value past 2^64-1 is a
 * fatal error naming `what` (e.g. "trace_txns is not a number: '30x'"),
 * followed by `usage_line` when it is non-empty.
 */
std::uint64_t parseTxnCount(const std::string& arg, const char* what,
                            const std::string& usage_line = "");

/**
 * Thread count from SPIKESIM_THREADS, or the hardware concurrency when
 * unset. For benches with their own argument parsing; runWorkload
 * additionally accepts `--threads N` (the flag wins over the
 * environment). 0 means serial oracle path.
 */
int threadsFromEnv();

/** The seed every randomized bench uses when nothing overrides it. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/**
 * RNG seed from SPIKESIM_SEED, or `fallback` when unset. The shared
 * convention for every randomized bench: figure-style benches get the
 * resolved value in Workload::seed (runWorkload additionally accepts
 * `--seed N`, which wins over the environment); google-benchmark
 * binaries, which own their argv, call this directly. Distinct
 * randomized sites within one binary derive their streams via
 * support::Pcg32's (seed, sequence) pairs rather than ad-hoc per-site
 * seed constants.
 */
std::uint64_t seedFromEnv(std::uint64_t fallback = kDefaultSeed);

/** Print the bench banner. */
void banner(const std::string& figure, const std::string& what);

/** Print a PAPER vs MEASURED comparison line. */
void paperVsMeasured(const std::string& metric, const std::string& paper,
                     const std::string& measured);

} // namespace spikesim::bench

#endif // SPIKESIM_BENCH_COMMON_HH
