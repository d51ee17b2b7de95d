#ifndef SPIKESIM_SIM_PRICE_HH
#define SPIKESIM_SIM_PRICE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/layout.hh"
#include "mem/cache.hh"
#include "sim/replay.hh"
#include "sim/soa.hh"
#include "trace/trace.hh"

/**
 * @file
 * Layout-parametric ground truth: price many candidate layouts of one
 * image against one recorded trace. The trace is reduced once to a
 * BlockStream (sim/soa.hh), which holds no addresses, so no per-layout
 * resolve is needed. Each candidate is then priced in one fused walk
 * per CPU: i-cache misses on one configuration plus standalone-iTLB
 * misses per ITlbSpec. The results equal Replayer::icache and
 * Replayer::itlb on the same layouts; tests/price_test.cc fuzzes that
 * claim. opt::searchLayout prices every re-rank candidate this way.
 */

namespace spikesim::sim {

/** Reduce the filtered trace to its per-CPU block-id stream (two
 *  passes: count, then fill an exactly sized column). */
BlockStream buildBlockStream(const trace::TraceBuffer& trace,
                             StreamFilter filter);

/** One layout's price: totals summed over the per-CPU caches/TLBs. */
struct LayoutPrice
{
    /** Line fetches and misses, as ICacheReplayResult counts them. */
    support::AccessStats icache;
    /** One result per ITlbSpec, in spec order. */
    std::vector<ITlbReplayResult> itlb;
};

/**
 * Price one (app, kernel) layout pair on a block stream. `kernel` may
 * be null when the stream has no kernel refs. Per CPU this is
 * Replayer::icache(config) and Replayer::itlb(spec) for every spec at
 * once, with no resolved trace in between.
 */
LayoutPrice priceLayout(const BlockStream& stream,
                        const core::Layout& app,
                        const core::Layout* kernel,
                        const mem::CacheConfig& config,
                        std::span<const ITlbSpec> specs);

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_PRICE_HH
