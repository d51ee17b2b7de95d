#ifndef SPIKESIM_SIM_SWEEP_HH
#define SPIKESIM_SIM_SWEEP_HH

#include <span>
#include <string>
#include <vector>

#include "sim/replay.hh"
#include "sim/soa.hh"
#include "support/threadpool.hh"

/**
 * @file
 * The sweep engine: prices every (size x line x assoc) i-cache
 * configuration and every standalone iTLB of many jobs -- (layout
 * pair, stream filter, spec) -- over one shared read-only TraceBuffer.
 * The trace is reduced once per distinct filter to a layout-
 * independent BlockStream (sim/soa.hh, 4 bytes per ref). Each (job,
 * CPU) pair is then one task: it walks that CPU's block ids once,
 * gathers each ref's (addr, bytes) from the job's block tables, skips
 * data refs and zero-size blocks, and drives every line size's pass
 * from that walk (direct-mapped tag tables with the repeat-line and
 * fewest-set fast paths, or per-set LRU stacks when any assoc > 1),
 * then every iTLB fetch-granularity group (detail::ITlbGroup). Integer
 * counts are folded in CPU order, so results are identical at any pool
 * width and with no pool.
 *
 * With SweepSpec::interference the walk also keeps who filled each
 * line (an owner byte per direct-mapped slot, an owner bit per LRU
 * stack entry and associativity), so every miss knows its victim and
 * each cell carries Figure 13's app/kernel interference matrix.
 *
 * This is the one production walk for i-cache misses and for
 * standalone-iTLB misses: the figure benches' grids, the layout
 * search's re-rank (one job per candidate, on the search's own stream),
 * sim::replayICache (interference included) and sim::replayITlb all
 * run through it.
 */

namespace spikesim::sim {

/** One sweep to run: a layout pair, a stream filter, and a spec. */
struct SweepJob
{
    /** Application layout; must outlive the executor call. */
    const core::Layout* app_layout = nullptr;
    /** Kernel layout; may be null when the filter never selects
     *  kernel events. */
    const core::Layout* kernel_layout = nullptr;
    StreamFilter filter = StreamFilter::AppOnly;
    SweepSpec spec;
    /** Free-form tag for reporting (e.g. the layout combo name). */
    std::string label;
};

/**
 * Run every job's sweep over the trace. With a pool, the block-stream
 * builds and the (job, CPU) walks run on the workers; with `pool`
 * null everything runs serially on the caller. Results are returned
 * in job order and are identical either way.
 */
std::vector<SweepResult> runSweepJobs(const trace::TraceBuffer& trace,
                                      const std::vector<SweepJob>& jobs,
                                      support::ThreadPool* pool = nullptr);

/**
 * Run one sweep over a block stream the caller already holds, through
 * the block tables of one layout pair (imageTables; the layouts must
 * outlive the call). Same walk, fold and counters as runSweepJobs; the
 * stream may carry data refs, which the walk skips.
 */
SweepResult sweepStream(const BlockStream& stream, const BlockTables& app,
                        const BlockTables& kernel, const SweepSpec& spec,
                        support::ThreadPool* pool = nullptr);

/**
 * Cover a config column with sweep specs: every spec's size x line x
 * assoc grid is valid, and configs[k] is a cell of
 * specs[spec_of[k]]. A column whose distinct sizes, line sizes and
 * assocs form one valid grid (every column the benches price) gets one
 * spec; configs are added greedily to the first spec they keep valid.
 */
std::vector<SweepSpec> sweepSpecsFor(
    std::span<const mem::CacheConfig> configs,
    std::vector<std::size_t>& spec_of);

/**
 * Price a config column over a block stream: one sweepStream() job per
 * spec of sweepSpecsFor(configs), result k for configs[k]. With
 * `interference` the app/kernel split and the interference matrix are
 * filled too (SweepSpec::interference); without, only accesses and
 * misses. An empty column runs no job.
 */
std::vector<ICacheReplayResult>
sweepColumn(const BlockStream& stream, const BlockTables& app,
            const BlockTables& kernel,
            std::span<const mem::CacheConfig> configs, bool interference,
            support::ThreadPool* pool = nullptr);

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_SWEEP_HH
