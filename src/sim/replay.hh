#ifndef SPIKESIM_SIM_REPLAY_HH
#define SPIKESIM_SIM_REPLAY_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/layout.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/instrumented.hh"
#include "mem/streambuf.hh"
#include "mem/threec.hh"
#include "support/histogram.hh"
#include "trace/trace.hh"

/**
 * @file
 * Trace replay under a code layout: turns the recorded block trace into
 * fetch-address streams and feeds per-CPU cache simulators. This is the
 * paper's methodology — record the instruction trace once, then replay
 * it against many cache configurations and binaries (layouts).
 */

namespace spikesim::sim {

/** Which instruction streams to replay. */
enum class StreamFilter {
    AppOnly,
    KernelOnly,
    Combined,
};

/** True when `filter` replays block events of `image` (never Data). */
inline bool
wantImage(StreamFilter filter, trace::ImageId image)
{
    switch (filter) {
      case StreamFilter::AppOnly:
        return image == trace::ImageId::App;
      case StreamFilter::KernelOnly:
        return image == trace::ImageId::Kernel;
      case StreamFilter::Combined:
        return image == trace::ImageId::App ||
               image == trace::ImageId::Kernel;
    }
    return false;
}

/** Flag bits on a ResolvedRef. */
inline constexpr std::uint8_t kRefRunBreak = 1;

/**
 * One trace event resolved through a layout: the byte range its block
 * occupies, the CPU that fetched it, and which stream owns it.
 * Resolving the trace once and replaying the flat vector is what lets
 * one pass feed many cache configurations. The instruction count of a
 * block ref is bytes / program::kInstrBytes (layouts place blocks at
 * blockSize * kInstrBytes bytes, so the two are locked together).
 * kRefRunBreak marks refs where another image's block event took this
 * CPU's fetch unit since the previous ref — a filtered-out kernel
 * entry breaks a sequential run even when the addresses abut.
 */
struct ResolvedRef
{
    std::uint64_t addr = 0;
    std::uint32_t bytes = 0;
    std::uint8_t cpu = 0;
    mem::Owner owner = mem::Owner::App; ///< App/Kernel text, or Data
    std::uint8_t flags = 0;
};

/** One data reference, kept in global trace order: the coherence model
 *  (Replayer::hierarchy with model_coherence) depends on the cross-CPU
 *  interleaving of data events, unlike every cache simulator. */
struct ResolvedDataRef
{
    std::uint64_t addr = 0; ///< byte address of the referenced word
    std::uint8_t cpu = 0;
};

/**
 * A trace pre-resolved through one (app, kernel) layout pair,
 * partitioned by CPU. Every cache simulator's state is per-CPU, so a
 * replay of cpuRefs(c) on its own thread is bit-identical to the
 * interleaved scalar walk — the parallel replay engine (sim/engine.hh)
 * rests on exactly this. When resolved with include_data, each CPU's
 * slice also carries that CPU's data refs (owner == Data) interleaved
 * in trace order, because a CPU's private L2 sees its instruction and
 * data streams in exactly that order; data_refs additionally keeps the
 * global data-event order for the coherence pass.
 */
struct ResolvedTrace
{
    /** Refs grouped by CPU; within one CPU's slice, trace order. */
    std::vector<ResolvedRef> refs;
    /** Partition offsets: CPU c owns [cpu_begin[c], cpu_begin[c+1]). */
    std::vector<std::size_t> cpu_begin;
    /** Data references in global trace order (include_data only). */
    std::vector<ResolvedDataRef> data_refs;
    int num_cpus = 1;
    /** Filtered block events, including zero-sized blocks. */
    std::uint64_t instr_events = 0;
    /** Dynamic instructions: sum of block sizes over filtered events
     *  (what Replayer::dynamicInstrs walks the raw trace for). */
    std::uint64_t instrs = 0;

    std::span<const ResolvedRef>
    cpuRefs(int cpu) const
    {
        if (cpu < 0 || cpu + 1 >= static_cast<int>(cpu_begin.size()))
            return {};
        const std::size_t b = cpu_begin[static_cast<std::size_t>(cpu)];
        const std::size_t e =
            cpu_begin[static_cast<std::size_t>(cpu) + 1];
        return std::span<const ResolvedRef>(refs).subspan(b, e - b);
    }
};

/** Column form of ResolvedTrace; defined in sim/soa.hh. */
struct ResolvedTraceSoA;

/**
 * A cache-geometry sweep: the cross product of sizes x line sizes x
 * associativities. Every combination must be a valid CacheConfig.
 */
struct SweepSpec
{
    std::vector<std::uint32_t> size_bytes;
    std::vector<std::uint32_t> line_bytes;
    std::vector<std::uint32_t> assocs{1};

    /** Empty when every combination is consistent, else a complaint. */
    std::string check() const;

    /** Number of (size, line, assoc) combinations. */
    std::size_t
    numConfigs() const
    {
        return size_bytes.size() * line_bytes.size() * assocs.size();
    }
};

/**
 * Hit/miss counts for every configuration of a SweepSpec, produced by
 * the single-pass stack-distance engine. Counts are aggregated over
 * CPUs (each CPU simulates its own cache, as in Replayer::icache).
 */
class SweepResult
{
  public:
    SweepResult() = default;
    explicit SweepResult(SweepSpec spec);

    const SweepSpec& spec() const { return spec_; }

    /** Line fetches for the given line size (size/assoc-independent). */
    std::uint64_t accesses(std::uint32_t line_bytes) const;

    std::uint64_t misses(std::uint32_t size_bytes,
                         std::uint32_t line_bytes,
                         std::uint32_t assoc) const;

    std::uint64_t
    misses(const mem::CacheConfig& config) const
    {
        return misses(config.size_bytes, config.line_bytes, config.assoc);
    }

    std::uint64_t
    hits(std::uint32_t size_bytes, std::uint32_t line_bytes,
         std::uint32_t assoc) const
    {
        return accesses(line_bytes) -
               misses(size_bytes, line_bytes, assoc);
    }

  private:
    /** The sweep engine (sim/sweep.cc) stores its folded counts. */
    friend struct SweepFold;

    std::size_t lineIndex(std::uint32_t line_bytes) const;
    std::size_t index(std::size_t si, std::size_t li,
                      std::size_t ai) const;

    SweepSpec spec_;
    std::vector<std::uint64_t> accesses_; ///< per line-size index
    std::vector<std::uint64_t> misses_;   ///< [li][si][ai], line-major
    // Dimension-value -> index maps, built once by the constructor so
    // the accessors (called per table cell by the benches) don't
    // re-scan the spec vectors on every lookup.
    std::unordered_map<std::uint32_t, std::size_t> size_index_;
    std::unordered_map<std::uint32_t, std::size_t> line_index_;
    std::unordered_map<std::uint32_t, std::size_t> assoc_index_;
};

/** App/kernel interference matrix (Figure 13). */
struct InterferenceMatrix
{
    /**
     * counts[m][v]: misses by stream m (0 = app, 1 = kernel) that
     * displaced a line owned by v (0 = app, 1 = kernel, 2 = cold fill).
     */
    std::uint64_t counts[2][3] = {{0, 0, 0}, {0, 0, 0}};

    std::uint64_t
    missesBy(int m) const
    {
        return counts[m][0] + counts[m][1] + counts[m][2];
    }
};

/** Result of a line-granular instruction cache replay. */
struct ICacheReplayResult
{
    std::uint64_t accesses = 0; ///< line fetches
    std::uint64_t misses = 0;
    std::uint64_t app_misses = 0;
    std::uint64_t kernel_misses = 0;
    InterferenceMatrix interference;
};

/** Result of a word-granular instrumented replay (Figures 9-11). */
struct WordStats
{
    support::Histogram words_used;
    support::Histogram word_reuse;
    support::Log2Histogram lifetimes;
    double unused_word_fraction = 0.0;
    std::uint64_t misses = 0;

    WordStats() : words_used(65), word_reuse(16), lifetimes(32) {}
};

/**
 * Geometry of a standalone iTLB replay (the TLB rows of Figure 14
 * without simulating the caches around it). One TLB access is made per
 * fetched line of `fetch_bytes`, matching how MemoryHierarchy consults
 * its iTLB once per L1I line fetch — with fetch_bytes equal to the
 * hierarchy's L1I line size the miss counts coincide.
 */
struct ITlbSpec
{
    std::uint32_t entries = 64;
    std::uint32_t page_bytes = 8 * 1024;
    std::uint32_t fetch_bytes = 64;
};

/**
 * Result of a standalone iTLB replay (summed over per-CPU TLBs):
 * accesses are line-granular TLB lookups. The shared access/miss shape
 * directly — an iTLB has no refinement beyond hit or miss.
 */
using ITlbReplayResult = support::AccessStats;

/** Full-hierarchy replay result (Figures 14-15). */
struct HierarchyReplayResult
{
    mem::HierarchyStats total;
    std::vector<mem::HierarchyStats> per_cpu;
    std::uint64_t instrs = 0; ///< dynamic instructions replayed
    /** Fetch discontinuities (taken control transfers): each costs a
     *  fetch bubble on an in-order front end. */
    std::uint64_t fetch_breaks = 0;
};

/** Replays one recorded trace under layouts and cache configs. */
class Replayer
{
  public:
    /**
     * @param trace recorded block/data events.
     * @param app_layout layout of the application image.
     * @param kernel_layout layout of the kernel image (may be null when
     *        only the application stream will be replayed).
     */
    Replayer(const trace::TraceBuffer& trace,
             const core::Layout& app_layout,
             const core::Layout* kernel_layout = nullptr);

    /** The replayer stores references; temporaries would dangle. */
    Replayer(const trace::TraceBuffer&, core::Layout&&,
             const core::Layout* = nullptr) = delete;
    Replayer(trace::TraceBuffer&&, const core::Layout&,
             const core::Layout* = nullptr) = delete;

    /** Number of CPUs observed in the trace. */
    int numCpus() const { return num_cpus_; }

    const trace::TraceBuffer& trace() const { return trace_; }
    const core::Layout& app() const { return app_; }
    /** May be null (application-only replays). */
    const core::Layout* kernel() const { return kernel_; }

    /** Line-granular replay against per-CPU instruction caches. */
    ICacheReplayResult icache(const mem::CacheConfig& config,
                              StreamFilter filter) const;

    /**
     * Resolve the filtered trace through the layouts once: every block
     * event becomes a flat (addr, bytes, cpu, owner) record, grouped
     * by CPU (see ResolvedTrace). Zero-sized blocks are dropped from
     * the refs but still counted in instr_events/instrs. Data events
     * are dropped unless `include_data` is set, in which case they
     * appear both in the per-CPU slices (owner == Data) and in
     * data_refs in global order.
     */
    ResolvedTrace resolve(StreamFilter filter,
                          bool include_data = false) const;

    /**
     * Resolve straight into the column (SoA) form consumed by the
     * kernel replay paths, skipping the AoS intermediate and its
     * transpose. Field-for-field identical to toSoA(resolve(...)) —
     * the fuzz in tests/replay_parallel_test.cc pins that — with every
     * column and data_refs sized exactly from the first counting pass
     * (no growth reallocation). resolve() remains the differential
     * oracle.
     */
    ResolvedTraceSoA resolveSoA(StreamFilter filter,
                                bool include_data = false) const;

    /**
     * Single-pass cache sweep: runSweepJobs (sim/sweep.hh) on this
     * replayer's layouts, serially. One walk of the filtered block
     * stream prices every configuration of the spec. Miss counts are
     * bit-identical to running icache() once per configuration, at a
     * fraction of the cost; only the owner/interference attribution
     * is unavailable (use the per-config path for Figure 13 style
     * studies).
     */
    SweepResult icacheSweep(const SweepSpec& spec,
                            StreamFilter filter) const;

    /** Word-granular instrumented replay (histograms merged over
     *  CPUs). */
    WordStats instrumented(const mem::CacheConfig& config,
                           StreamFilter filter,
                           bool flush_at_end = false) const;

    /** Replay against per-CPU stream-buffered instruction caches. */
    mem::StreamBufferStats streamBuffer(const mem::CacheConfig& config,
                                        int num_buffers,
                                        StreamFilter filter) const;

    /** Replay with three-C (compulsory/capacity/conflict) miss
     *  classification, merged over CPUs. */
    mem::ThreeCStats threeCs(const mem::CacheConfig& config,
                             StreamFilter filter) const;

    /** Standalone iTLB replay against per-CPU TLBs (line-granular
     *  lookups at spec.fetch_bytes). */
    ITlbReplayResult itlb(const ITlbSpec& spec,
                          StreamFilter filter) const;

    /**
     * Full hierarchy replay: instruction lines + data lines through
     * L1s and the unified L2 (always the combined stream). With
     * `model_coherence` set, data lines touched by multiple CPUs incur
     * communication misses (TPC-B's hot branch/teller rows migrate
     * between processors) -- the effect that dilutes layout gains on
     * multiprocessors in the paper's section 5.
     */
    HierarchyReplayResult hierarchy(const mem::HierarchyConfig& config,
                                    bool include_data = true,
                                    bool model_coherence = false) const;

    /** Dynamic instructions in the trace for the given filter (under
     *  the replayer's layouts, including materialized branches). */
    std::uint64_t dynamicInstrs(StreamFilter filter) const;

  private:
    /** Per-CPU ref counts (and data-event total) for one (filter,
     *  include_data) key — the sizing product of resolveSoA's counting
     *  pass. A pure function of the immutable trace and layouts, so it
     *  is computed once and memoized: benches and multi-family suites
     *  resolve the same stream repeatedly, and the counting walk is
     *  ~15% of the resolve phase. */
    struct ResolveCounts
    {
        std::vector<std::size_t> count;
        std::size_t n_data = 0;
    };

    const ResolveCounts& countsFor(StreamFilter filter,
                                   bool include_data) const;

    const trace::TraceBuffer& trace_;
    const core::Layout& app_;
    const core::Layout* kernel_;
    int num_cpus_ = 1;
    mutable std::mutex counts_mu_;
    /** Memo slots indexed filter * 2 + include_data. */
    mutable std::array<std::optional<ResolveCounts>, 6> counts_memo_;
};

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_REPLAY_HH
