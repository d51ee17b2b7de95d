#ifndef SPIKESIM_SIM_ENGINE_HH
#define SPIKESIM_SIM_ENGINE_HH

#include <span>
#include <vector>

#include "metrics/sequence.hh"
#include "sim/kernels.hh"
#include "sim/replay.hh"
#include "sim/soa.hh"
#include "support/threadpool.hh"

/**
 * @file
 * The production replay path: replays one CPU-partitioned
 * ResolvedTraceSoA (Replayer::resolveSoA) against many cache
 * configurations in a single fused walk per simulator family, sharded
 * across a thread pool by CPU. Every family has exactly one oracle —
 * the scalar per-config Replayer walk — and this one production path;
 * tests/replay_parallel_test.cc bit-compares the two.
 *
 * Two structural facts make every result bit-identical to the oracle:
 *
 *  - Fusion: simulators for different configurations share no state,
 *    so one walk over the refs can feed all cache sizes of a Figure 12
 *    style column instead of re-walking (and re-resolving) per config.
 *
 *  - Partitioning: every simulator instance is per-CPU (each simulated
 *    processor has private caches, TLB, stream buffers, fetch unit),
 *    so replaying CPU c's refs on their own thread and merging per-CPU
 *    stats at the barrier commutes exactly with the interleaved scalar
 *    walk. Counters and histogram buckets merge as integer sums;
 *    histogram means stay bit-identical because the accumulated sums
 *    are integer-valued doubles (exact below 2^53); the one non-
 *    trivially-ordered float — instrumented's unused_word_fraction —
 *    is merged in CPU order with the oracle's exact operation
 *    sequence.
 *
 * The single exception is the hierarchy coherence map (data_owner):
 * line-migration counting depends on the *global* order of data events
 * across CPUs. It is also independent of all cache state, so it runs
 * as its own sharded pass per configuration over
 * ResolvedTraceSoA::data_refs, which preserves that global order.
 *
 * Every family but the sequence analysis runs through one driver
 * (engine.cc): each (CPU, config-chunk) cell runs the family's kernel
 * from sim/kernels_detail.hh on a detail::Shard, the cells' outputs
 * are kept per (config, CPU), and each config's result is merged from
 * its per-CPU partials in CPU order. An empty config span returns an
 * empty vector and runs no shard. Every family has one scalar kernel.
 * The i-cache, three-C, iTLB and stream-buffer entry points keep a
 * SimdMode parameter for source compatibility (sim/kernels.hh) and
 * ignore it.
 *
 * Plain i-cache miss grids do not come through here: the LRU-stack
 * sweep (sim/sweep.hh) prices them from the layout-independent block
 * stream. replayICache serves what the sweep does not count, the
 * app/kernel split and Figure 13's interference matrix.
 */

namespace spikesim::sim {

/** Line-granular i-cache replay with interference attribution, one
 *  result per config (Figure 13). */
std::vector<ICacheReplayResult>
replayICache(const ResolvedTraceSoA& soa,
             std::span<const mem::CacheConfig> configs,
             SimdMode mode = SimdMode::Auto,
             support::ThreadPool* pool = nullptr);

/** Three-C miss classification per config. */
std::vector<mem::ThreeCStats>
replayThreeCs(const ResolvedTraceSoA& soa,
              std::span<const mem::CacheConfig> configs,
              SimdMode mode = SimdMode::Auto,
              support::ThreadPool* pool = nullptr);

/** Stream-buffered i-cache replay per config. */
std::vector<mem::StreamBufferStats>
replayStreamBuffer(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   int num_buffers, SimdMode mode = SimdMode::Auto,
                   support::ThreadPool* pool = nullptr);

/** Word-granular instrumented replay per config (Figures 9-11). */
std::vector<WordStats>
replayInstrumented(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   bool flush_at_end = false,
                   support::ThreadPool* pool = nullptr);

/** Standalone iTLB replay per spec (Figure 14's TLB rows). */
std::vector<ITlbReplayResult>
replayITlb(const ResolvedTraceSoA& soa, std::span<const ITlbSpec> specs,
           SimdMode mode = SimdMode::Auto,
           support::ThreadPool* pool = nullptr);

/**
 * Full-hierarchy replay per config. Data lines are replayed when the
 * trace was resolved with include_data (each CPU's slice interleaves
 * its data refs with its instruction refs in trace order — a CPU's
 * private L2 sees exactly that stream). With model_coherence, the
 * communication-miss count runs as a separate per-config pass over the
 * global-order data_refs (see the file comment).
 */
std::vector<HierarchyReplayResult>
replayHierarchy(const ResolvedTraceSoA& soa,
                std::span<const mem::HierarchyConfig> configs,
                bool model_coherence = false,
                support::ThreadPool* pool = nullptr);

/**
 * Sequential-run-length analysis (Figure 8) from a resolved trace:
 * kRefRunBreak flags carry the filtered-out-image run breaks the raw
 * stream would have shown, and instr_events/instrs supply the dynamic
 * block-size mean. Bit-identical to metrics::sequenceLengths on the
 * raw trace for the matching single-image filter.
 */
metrics::SequenceStats
replaySequence(const ResolvedTraceSoA& soa,
               support::ThreadPool* pool = nullptr);

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_ENGINE_HH
