#include "opt/exttsp.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "support/panic.hh"

namespace spikesim::opt {

using program::BasicBlock;
using program::BlockLocalId;
using program::FlowEdge;
using program::GlobalBlockId;
using program::kInstrBytes;
using program::kInvalidId;
using program::ProcId;
using program::Procedure;

double
extTspEdgeScore(std::uint64_t src_end, std::uint64_t dst_addr,
                std::uint64_t count, const ExtTspParams& params)
{
    if (count == 0)
        return 0.0;
    const double w = static_cast<double>(count);
    double k = 0.0;
    if (dst_addr == src_end) {
        k = params.fallthrough_weight;
    } else if (dst_addr > src_end) {
        const std::uint64_t d = dst_addr - src_end;
        if (d < params.forward_window_bytes)
            k = params.forward_weight *
                (1.0 - static_cast<double>(d) /
                           static_cast<double>(params.forward_window_bytes));
    } else {
        const std::uint64_t d = src_end - dst_addr;
        if (d < params.backward_window_bytes)
            k = params.backward_weight *
                (1.0 -
                 static_cast<double>(d) /
                     static_cast<double>(params.backward_window_bytes));
    }
    // Co-residency: the next sequential byte and the target byte share
    // one i-cache line, so taking this transfer cannot fetch a new line.
    if (params.coline_weight > 0.0 &&
        src_end / params.line_bytes == dst_addr / params.line_bytes)
        k += params.coline_weight;
    // Distance-bucketed gap penalty: the decay windows above are blind
    // past ~1KB, so long transfers are charged by the power-of-two
    // bucket their gap lands in, saturating at huge-page scale.
    if (params.gap_weight > 0.0) {
        const std::uint64_t d =
            dst_addr > src_end ? dst_addr - src_end : src_end - dst_addr;
        if (d >= params.gap_start_bytes) {
            const int bucket = std::min<int>(
                std::bit_width(d / params.gap_start_bytes), 12);
            k -= params.gap_weight * (static_cast<double>(bucket) / 12.0);
        }
    }
    // Page co-residency: a transfer inside one 4KB page can never take
    // a base-page iTLB miss; inside one 2MB region it stays within a
    // single huge-page mapping.
    if (params.page4k_weight > 0.0 &&
        src_end / params.page4k_bytes == dst_addr / params.page4k_bytes)
        k += params.page4k_weight;
    if (params.page2m_weight > 0.0 &&
        src_end / params.page2m_bytes == dst_addr / params.page2m_bytes)
        k += params.page2m_weight;
    // iTLB proxy: executions crossing a page boundary are charged.
    if (params.itlb_weight > 0.0 &&
        src_end / params.itlb_page_bytes != dst_addr / params.itlb_page_bytes)
        k -= params.itlb_weight;
    return w * k;
}

namespace {

/**
 * Layout-adjusted sizes for one procedure laid out alone in `order`
 * (core::adjustedSize, as in core::Layout pass 1, but local: every
 * block's neighbour is the next order entry, packed tight).
 */
std::vector<std::uint32_t>
localAdjustedSizes(const Procedure& proc,
                   const std::vector<BlockLocalId>& order)
{
    const std::vector<core::BlockSuccs> succs = core::blockSuccessors(proc);
    std::vector<std::uint32_t> size(proc.blocks.size(), 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const BlockLocalId b = order[i];
        const BlockLocalId next =
            i + 1 < order.size() ? order[i + 1] : kInvalidId;
        size[b] = core::adjustedSize(proc.blocks[b], succs[b], next);
    }
    return size;
}

} // namespace

double
extTspScore(const core::Layout& layout, const profile::Profile& profile,
            const ExtTspParams& params)
{
    const program::Program& prog = layout.prog();
    double total = 0.0;
    // Flow edges in fixed program order (proc id, then edge index) so
    // the floating-point sum is bit-reproducible for equal layouts.
    for (ProcId p = 0; p < prog.numProcs(); ++p) {
        const Procedure& proc = prog.proc(p);
        for (const FlowEdge& e : proc.edges) {
            const GlobalBlockId from = prog.globalBlockId(p, e.from);
            const GlobalBlockId to = prog.globalBlockId(p, e.to);
            const std::uint64_t w = profile.edgeCount(from, to);
            if (w == 0)
                continue;
            total += extTspEdgeScore(layout.blockAddr(from) +
                                         layout.blockBytes(from),
                                     layout.blockAddr(to), w, params);
        }
    }
    if (params.include_calls) {
        // Call edges: caller block -> callee entry. profile.calls()
        // iterates a hash map, so sort into a canonical order first.
        auto calls = profile.calls();
        std::sort(calls.begin(), calls.end());
        for (const auto& [caller_block, callee, w] : calls) {
            const GlobalBlockId entry = prog.globalBlockId(callee, 0);
            total += extTspEdgeScore(layout.blockAddr(caller_block) +
                                         layout.blockBytes(caller_block),
                                     layout.blockAddr(entry), w, params);
        }
    }
    return total;
}

ExtTspScorer::ExtTspScorer(const program::Program& prog,
                           const profile::Profile& profile,
                           const ExtTspParams& params,
                           const core::AssignOptions& aopts)
    : prog_(prog),
      params_(params),
      text_base_(aopts.text_base),
      align_(aopts.segment_align),
      tight_(aopts.segment_align <= kInstrBytes),
      succs_(core::blockSuccessors(prog))
{
    SPIKESIM_ASSERT(aopts.segment_align >= kInstrBytes &&
                        (aopts.segment_align &
                         (aopts.segment_align - 1)) == 0,
                    "segment alignment must be a power of two >= 4");
    SPIKESIM_ASSERT(aopts.cfa_bytes == 0,
                    "the ExtTSP scorer does not model a CFA");
    proc_base_.reserve(prog.numProcs());
    for (ProcId p = 0; p < prog.numProcs(); ++p)
        proc_base_.push_back(prog.globalBlockId(p, 0));
    // The oracle's edge order: non-zero flow edges by (proc id, edge
    // index), then every call edge in sorted order.
    for (ProcId p = 0; p < prog.numProcs(); ++p)
        for (const FlowEdge& e : prog.proc(p).edges) {
            const GlobalBlockId from = proc_base_[p] + e.from;
            const GlobalBlockId to = proc_base_[p] + e.to;
            const std::uint64_t w = profile.edgeCount(from, to);
            if (w != 0)
                edges_.push_back({from, to, w});
        }
    if (params.include_calls) {
        auto calls = profile.calls();
        std::sort(calls.begin(), calls.end());
        for (const auto& [caller_block, callee, w] : calls)
            edges_.push_back({caller_block, proc_base_[callee], w});
    }
}

double
ExtTspScorer::score(const std::vector<core::CodeSegment>& segments) const
{
    // Per-thread scratch, fully rewritten by every call: start address
    // and one-past-end byte of each block, by global id.
    thread_local std::vector<std::uint64_t> addr, end;
    addr.resize(succs_.size());
    end.resize(succs_.size());

    // One pass in placement order. A block's adjusted size depends on
    // the block placed after it, so each block is closed (sized, its
    // end recorded, the cursor advanced) when its successor is seen.
    std::uint64_t cur = text_base_;
    std::size_t placed = 0;
    GlobalBlockId prev = kInvalidId;
    const BasicBlock* prev_blk = nullptr;
    const auto close = [&](GlobalBlockId next) {
        cur += static_cast<std::uint64_t>(
                   core::adjustedSize(*prev_blk, succs_[prev], next)) *
               kInstrBytes;
        end[prev] = cur;
    };
    for (const core::CodeSegment& seg : segments) {
        SPIKESIM_ASSERT(!seg.blocks.empty(), "empty code segment");
        const Procedure& proc = prog_.proc(seg.proc);
        const GlobalBlockId base = proc_base_[seg.proc];
        // Across a segment boundary the next block is adjacent only
        // under tight packing (no padding can intervene).
        if (prev_blk != nullptr)
            close(tight_ ? base + seg.blocks.front() : kInvalidId);
        cur = (cur + align_ - 1) & ~(std::uint64_t{align_} - 1);
        for (std::size_t i = 0; i < seg.blocks.size(); ++i) {
            const GlobalBlockId g = base + seg.blocks[i];
            if (i > 0)
                close(g);
            addr[g] = cur;
            prev = g;
            prev_blk = &proc.blocks[seg.blocks[i]];
        }
        placed += seg.blocks.size();
    }
    SPIKESIM_ASSERT(placed == succs_.size(),
                    "candidate covers " << placed << " of "
                                        << succs_.size() << " blocks");
    if (prev_blk != nullptr)
        close(kInvalidId);

    double total = 0.0;
    for (const Edge& e : edges_)
        total += extTspEdgeScore(end[e.from], addr[e.to], e.count,
                                 params_);
    return total;
}

double
extTspITlbCost(const core::Layout& layout,
               const profile::Profile& profile,
               const ExtTspParams& params)
{
    const program::Program& prog = layout.prog();
    const std::uint64_t page = params.itlb_page_bytes;
    std::uint64_t total = 0;
    auto crossings = [&](GlobalBlockId from, GlobalBlockId to,
                         std::uint64_t w) {
        const std::uint64_t src_end =
            layout.blockAddr(from) + layout.blockBytes(from);
        const std::uint64_t dst = layout.blockAddr(to);
        if (src_end / page != dst / page)
            total += w;
    };
    // Same fixed edge order as extTspScore, integer accumulation.
    for (ProcId p = 0; p < prog.numProcs(); ++p) {
        const Procedure& proc = prog.proc(p);
        for (const FlowEdge& e : proc.edges) {
            const GlobalBlockId from = prog.globalBlockId(p, e.from);
            const GlobalBlockId to = prog.globalBlockId(p, e.to);
            const std::uint64_t w = profile.edgeCount(from, to);
            if (w != 0)
                crossings(from, to, w);
        }
    }
    if (params.include_calls) {
        auto calls = profile.calls();
        std::sort(calls.begin(), calls.end());
        for (const auto& [caller_block, callee, w] : calls)
            if (w != 0)
                crossings(caller_block, prog.globalBlockId(callee, 0),
                          w);
    }
    return static_cast<double>(total);
}

double
extTspOrderScore(const program::Program& prog, ProcId proc,
                 const profile::Profile& profile,
                 const std::vector<BlockLocalId>& order,
                 const ExtTspParams& params)
{
    const Procedure& p = prog.proc(proc);
    SPIKESIM_ASSERT(order.size() == p.blocks.size(),
                    "order must cover the procedure");
    const std::vector<std::uint32_t> size = localAdjustedSizes(p, order);
    std::vector<std::uint64_t> addr(p.blocks.size(), 0);
    std::uint64_t cur = 0;
    for (BlockLocalId b : order) {
        addr[b] = cur;
        cur += static_cast<std::uint64_t>(size[b]) * kInstrBytes;
    }
    double total = 0.0;
    for (const FlowEdge& e : p.edges) {
        const std::uint64_t w =
            profile.edgeCount(prog.globalBlockId(proc, e.from),
                              prog.globalBlockId(proc, e.to));
        if (w == 0)
            continue;
        total += extTspEdgeScore(
            addr[e.from] +
                static_cast<std::uint64_t>(size[e.from]) * kInstrBytes,
            addr[e.to], w, params);
    }
    return total;
}

ExhaustiveBest
bestOrderExhaustive(const program::Program& prog, ProcId proc,
                    const profile::Profile& profile,
                    const ExtTspParams& params)
{
    const Procedure& p = prog.proc(proc);
    const std::size_t n = p.blocks.size();
    SPIKESIM_ASSERT(n >= 1 && n <= 9,
                    "exhaustive oracle is for tiny CFGs (<= 9 blocks), "
                    "got " << n);
    // Entry stays first: no layout pipeline ever moves a procedure's
    // entry block, so the oracle searches the same space.
    std::vector<BlockLocalId> rest;
    for (BlockLocalId b = 1; b < n; ++b)
        rest.push_back(b);

    ExhaustiveBest best;
    std::vector<BlockLocalId> order(n);
    order[0] = 0;
    do {
        std::copy(rest.begin(), rest.end(), order.begin() + 1);
        const double s = extTspOrderScore(prog, proc, profile, order,
                                          params);
        ++best.permutations;
        if (best.order.empty() || s > best.score) {
            best.score = s;
            best.order = order;
        }
    } while (std::next_permutation(rest.begin(), rest.end()));
    return best;
}

} // namespace spikesim::opt
