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
 * Unified parallel replay engine: replays one CPU-partitioned
 * ResolvedTrace (Replayer::resolve) against many cache configurations
 * in a single fused walk, sharded across a thread pool by CPU.
 *
 * Two structural facts make every result bit-identical to the scalar
 * per-config Replayer walks (which remain as differential oracles, see
 * tests/replay_parallel_test.cc):
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
 * ResolvedTrace::data_refs, which preserves that global order.
 */

namespace spikesim::sim {

/** Line-granular i-cache replay with interference attribution, one
 *  result per config (Figures 12/13 columns). */
std::vector<ICacheReplayResult>
replayICache(const ResolvedTrace& trace,
             std::span<const mem::CacheConfig> configs,
             support::ThreadPool* pool = nullptr);

/** Three-C miss classification per config. */
std::vector<mem::ThreeCStats>
replayThreeCs(const ResolvedTrace& trace,
              std::span<const mem::CacheConfig> configs,
              support::ThreadPool* pool = nullptr);

/** Stream-buffered i-cache replay per config. */
std::vector<mem::StreamBufferStats>
replayStreamBuffer(const ResolvedTrace& trace,
                   std::span<const mem::CacheConfig> configs,
                   int num_buffers, support::ThreadPool* pool = nullptr);

/** Word-granular instrumented replay per config (Figures 9-11). */
std::vector<WordStats>
replayInstrumented(const ResolvedTrace& trace,
                   std::span<const mem::CacheConfig> configs,
                   bool flush_at_end = false,
                   support::ThreadPool* pool = nullptr);

/** Standalone iTLB replay per spec (Figure 14's TLB rows). */
std::vector<ITlbReplayResult>
replayITlb(const ResolvedTrace& trace, std::span<const ITlbSpec> specs,
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
replayHierarchy(const ResolvedTrace& trace,
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
replaySequence(const ResolvedTrace& trace,
               support::ThreadPool* pool = nullptr);

/**
 * SoA overloads: the same seven replays over a column-major
 * ResolvedTraceSoA (sim/soa.hh). Results are bit-identical to the AoS
 * overloads — the per-CPU record sequences are the same values in the
 * same order, only the storage layout differs. Every family but the
 * sequence analysis routes through the throughput kernels of
 * sim/kernels.hh. The i-cache, three-C, iTLB and stream-buffer
 * families accept a SimdMode (the iTLB kernel is FA-LRU-bound and runs
 * the same scalar walk under every mode); the instrumented and
 * hierarchy kernels are scalar-only.
 */

std::vector<ICacheReplayResult>
replayICache(const ResolvedTraceSoA& soa,
             std::span<const mem::CacheConfig> configs,
             SimdMode mode = SimdMode::Auto,
             support::ThreadPool* pool = nullptr);

std::vector<mem::ThreeCStats>
replayThreeCs(const ResolvedTraceSoA& soa,
              std::span<const mem::CacheConfig> configs,
              SimdMode mode = SimdMode::Auto,
              support::ThreadPool* pool = nullptr);

std::vector<mem::StreamBufferStats>
replayStreamBuffer(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   int num_buffers, SimdMode mode = SimdMode::Auto,
                   support::ThreadPool* pool = nullptr);

std::vector<WordStats>
replayInstrumented(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   bool flush_at_end = false,
                   support::ThreadPool* pool = nullptr);

std::vector<ITlbReplayResult>
replayITlb(const ResolvedTraceSoA& soa, std::span<const ITlbSpec> specs,
           SimdMode mode = SimdMode::Auto,
           support::ThreadPool* pool = nullptr);

std::vector<HierarchyReplayResult>
replayHierarchy(const ResolvedTraceSoA& soa,
                std::span<const mem::HierarchyConfig> configs,
                bool model_coherence = false,
                support::ThreadPool* pool = nullptr);

metrics::SequenceStats
replaySequence(const ResolvedTraceSoA& soa,
               support::ThreadPool* pool = nullptr);

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_ENGINE_HH
