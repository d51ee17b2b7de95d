#ifndef SPIKESIM_SIM_SWEEP_HH
#define SPIKESIM_SIM_SWEEP_HH

#include <string>
#include <vector>

#include "sim/replay.hh"
#include "support/threadpool.hh"

/**
 * @file
 * The i-cache sweep engine: prices every (size x line x assoc)
 * configuration of many jobs -- (layout pair, stream filter, spec) --
 * over one shared read-only TraceBuffer. The trace is reduced once per
 * distinct filter to a layout-independent BlockStream (sim/soa.hh, 4
 * bytes per ref). Each (job, CPU) pair is then one task: it walks that
 * CPU's block ids once, gathers each ref's (addr, bytes) from the
 * job's block tables, skips zero-size blocks, and drives every line
 * size's pass from that walk (direct-mapped tag tables with the
 * repeat-line and fewest-set fast paths, or per-set LRU stacks when
 * any assoc > 1). Integer counts are folded in CPU order, so results
 * are identical at any pool width and with no pool.
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

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_SWEEP_HH
