#ifndef SPIKESIM_SIM_REPLAY_HH
#define SPIKESIM_SIM_REPLAY_HH

#include <cstdint>
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
 *
 * Replayer's per-config walks are the scalar oracle of every simulator
 * family: each family has this one oracle and one production path, the
 * SoA kernels of sim/engine.hh over a Replayer::resolveSoA trace, except
 * that i-cache misses (the interference matrix included) and
 * standalone-iTLB misses come from the sweep (sim/sweep.hh; SweepSpec
 * carries both, and sim::replayICache and sim::replayITlb are sweep
 * jobs). All the production paths walk one trace form, the
 * layout-independent BlockStream of sim/soa.hh, gathering addresses
 * from the layouts' block tables. Tests bit-compare every production
 * path against these walks.
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

/** The resolved trace Replayer::resolveSoA produces; defined in
 *  sim/soa.hh. */
struct ResolvedTraceSoA;

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

/**
 * A sweep: a cache-geometry grid, the cross product of sizes x line
 * sizes x associativities, plus standalone iTLBs priced by the same
 * walk. Every grid combination must be a valid CacheConfig. The grid
 * may be empty (no sizes and no line sizes) when there are iTLB specs.
 */
struct SweepSpec
{
    std::vector<std::uint32_t> size_bytes;
    std::vector<std::uint32_t> line_bytes;
    std::vector<std::uint32_t> assocs{1};
    /** Standalone iTLBs: entries > 0, power-of-two page and fetch
     *  sizes. */
    std::vector<ITlbSpec> itlb;
    /**
     * Also split every grid cell's misses by the missing stream and
     * the victim line's owner (SweepResult::icache; Figure 13). Costs
     * an owner byte per direct-mapped slot and an owner bit per
     * (LRU-stack entry, associativity) in the walk, so assocs must be
     * at most 64.
     */
    bool interference = false;

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
 * the single-pass stack-distance engine, and one result per iTLB spec.
 * Counts are aggregated over CPUs (each CPU simulates its own cache
 * and iTLB, as in Replayer::icache and Replayer::itlb).
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

    /**
     * One configuration as Replayer::icache counts it: accesses,
     * misses, the app/kernel split and the interference matrix. Needs
     * SweepSpec::interference.
     */
    ICacheReplayResult icache(const mem::CacheConfig& config) const;

    /** One result per SweepSpec::itlb entry, in spec order. */
    const std::vector<ITlbReplayResult>& itlb() const { return itlb_; }

  private:
    /** The sweep engine (sim/sweep.cc) stores its folded counts. */
    friend struct SweepFold;

    std::size_t lineIndex(std::uint32_t line_bytes) const;
    std::size_t index(std::size_t si, std::size_t li,
                      std::size_t ai) const;
    /** index() of a configuration; dies when it is not in the grid. */
    std::size_t cell(std::uint32_t size_bytes, std::uint32_t line_bytes,
                     std::uint32_t assoc) const;

    SweepSpec spec_;
    std::vector<std::uint64_t> accesses_; ///< per line-size index
    std::vector<std::uint64_t> misses_;   ///< [li][si][ai], line-major
    /** Per configuration, like misses_ (SweepSpec::interference). */
    std::vector<InterferenceMatrix> interference_;
    std::vector<ITlbReplayResult> itlb_;  ///< per iTLB spec
    // Dimension-value -> index maps, built once by the constructor so
    // the accessors (called per table cell by the benches) don't
    // re-scan the spec vectors on every lookup.
    std::unordered_map<std::uint32_t, std::size_t> size_index_;
    std::unordered_map<std::uint32_t, std::size_t> line_index_;
    std::unordered_map<std::uint32_t, std::size_t> assoc_index_;
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
     * The filtered trace in the form the production replay paths
     * consume (sim/engine.hh): buildBlockStream(trace, filter,
     * include_data) bound to this replayer's layouts' block tables
     * (see ResolvedTraceSoA; the layouts must outlive the result).
     * Zero-sized blocks stay in the stream, which is layout-
     * independent; size() leaves them out and instr_events counts
     * them, as the kernels and the oracle do.
     */
    ResolvedTraceSoA resolveSoA(StreamFilter filter,
                                bool include_data = false) const;

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
    const trace::TraceBuffer& trace_;
    const core::Layout& app_;
    const core::Layout* kernel_;
    int num_cpus_ = 1;
};

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_REPLAY_HH
