#include "core/layout.hh"

#include <algorithm>
#include <numeric>

#include "support/panic.hh"

namespace spikesim::core {

using program::BasicBlock;
using program::BlockLocalId;
using program::EdgeKind;
using program::FlowEdge;
using program::GlobalBlockId;
using program::kInstrBytes;
using program::kInvalidId;
using program::ProcId;
using program::Procedure;
using program::Terminator;

namespace {

/** Fill `out` (indexed by local id) with `proc`'s successors, shifted
 *  into the id space starting at `base`. */
void
fillSuccessors(const Procedure& proc, std::uint32_t base, BlockSuccs* out)
{
    for (const FlowEdge& e : proc.edges) {
        const std::uint32_t to = base + e.to;
        switch (e.kind) {
          case EdgeKind::FallThrough: out[e.from].fall = to; break;
          case EdgeKind::CondTaken: out[e.from].taken = to; break;
          case EdgeKind::UncondTarget: out[e.from].uncond = to; break;
          case EdgeKind::IndirectTarget: break;
        }
    }
}

std::uint64_t
alignUp(std::uint64_t v, std::uint64_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

std::vector<BlockSuccs>
blockSuccessors(const program::Program& prog)
{
    std::vector<BlockSuccs> succs(prog.numBlocks());
    for (ProcId p = 0; p < prog.numProcs(); ++p) {
        const GlobalBlockId base = prog.globalBlockId(p, 0);
        fillSuccessors(prog.proc(p), base, succs.data() + base);
    }
    return succs;
}

std::vector<BlockSuccs>
blockSuccessors(const program::Procedure& proc)
{
    std::vector<BlockSuccs> succs(proc.blocks.size());
    fillSuccessors(proc, 0, succs.data());
    return succs;
}

Layout::Layout(const program::Program& prog,
               std::vector<CodeSegment> segments, const AssignOptions& opts,
               const std::vector<bool>& hot_flags)
    : prog_(&prog),
      segments_(std::move(segments)),
      addr_(prog.numBlocks(), 0),
      size_(prog.numBlocks(), 0),
      text_base_(opts.text_base)
{
    SPIKESIM_ASSERT(opts.segment_align >= kInstrBytes &&
                        (opts.segment_align & (opts.segment_align - 1)) == 0,
                    "segment alignment must be a power of two >= 4");
    SPIKESIM_ASSERT(hot_flags.empty() ||
                        hot_flags.size() == segments_.size(),
                    "hot flag vector must parallel the segment list");

    // Flatten the segment order into a global linear block order, and
    // remember each block's segment.
    std::vector<GlobalBlockId> order;
    order.reserve(prog.numBlocks());
    std::vector<std::uint32_t> seg_of(prog.numBlocks(), 0);
    for (std::size_t s = 0; s < segments_.size(); ++s) {
        const CodeSegment& seg = segments_[s];
        SPIKESIM_ASSERT(!seg.blocks.empty(), "empty code segment");
        for (BlockLocalId b : seg.blocks) {
            GlobalBlockId g = prog.globalBlockId(seg.proc, b);
            order.push_back(g);
            seg_of[g] = static_cast<std::uint32_t>(s);
        }
    }
    SPIKESIM_ASSERT(order.size() == prog.numBlocks(),
                    "layout covers " << order.size() << " of "
                                     << prog.numBlocks() << " blocks");

    // Pass 1: layout-adjusted sizes. Adjacent means "next in the linear
    // order" and either same segment or pack-tight alignment (no padding
    // can intervene).
    const std::vector<BlockSuccs> succs = blockSuccessors(prog);
    const bool tight = opts.segment_align <= kInstrBytes &&
                       opts.cfa_bytes == 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        GlobalBlockId g = order[i];
        const BasicBlock& blk = prog.block(g);
        GlobalBlockId next = kInvalidId;
        if (i + 1 < order.size() &&
            (tight || seg_of[order[i + 1]] == seg_of[g]))
            next = order[i + 1];
        size_[g] = adjustedSize(blk, succs[g], next);
        materialized_ += size_[g] > blk.sizeInstrs ? 1 : 0;
        deleted_ += size_[g] < blk.sizeInstrs ? 1 : 0;
    }

    // Pass 2: addresses. In CFA mode hot segments are confined to the
    // first cfa_bytes of every cfa_cache_bytes-sized row and cold
    // segments to the remainder; otherwise a single cursor walks the
    // segments in order with alignment padding between them.
    if (opts.cfa_bytes > 0) {
        SPIKESIM_ASSERT(opts.cfa_cache_bytes > opts.cfa_bytes,
                        "CFA area must be smaller than the cache");
        const std::uint64_t row = opts.cfa_cache_bytes;
        const std::uint64_t hot_sz = opts.cfa_bytes;
        // One cursor per stream. `cur` is where the stream's next
        // segment may start; `end` is one past the last byte it placed.
        struct Stream
        {
            std::uint64_t win_off;
            std::uint64_t win_len;
            std::uint64_t cur;
            std::uint64_t end;
        };
        Stream hot_s{0, hot_sz, text_base_, text_base_};
        Stream cold_s{hot_sz, row - hot_sz, text_base_ + hot_sz,
                      text_base_};
        // First address at or after `a` inside one of s's windows.
        const auto windowAt = [&](const Stream& s, std::uint64_t a) {
            const std::uint64_t r = (a - text_base_) / row;
            const std::uint64_t off = (a - text_base_) % row;
            if (off < s.win_off)
                return text_base_ + r * row + s.win_off;
            if (off < s.win_off + s.win_len)
                return a;
            return text_base_ + (r + 1) * row + s.win_off;
        };
        auto place = [&](const CodeSegment& seg, bool hot) {
            Stream& s = hot ? hot_s : cold_s;
            Stream& other = hot ? cold_s : hot_s;
            std::uint64_t bytes = 0;
            for (BlockLocalId b : seg.blocks)
                bytes += static_cast<std::uint64_t>(
                             size_[prog.globalBlockId(seg.proc, b)]) *
                         kInstrBytes;
            // Jump to the next window if the segment does not fit the
            // remainder of this one. A segment that can never fit a
            // window is placed anyway and spills into the other
            // stream's rows -- this is how oversized traces defeat the
            // CFA, per the paper -- but only past everything the other
            // stream has placed, and the other stream then resumes
            // past the spill, so no byte is handed out twice.
            std::uint64_t start = windowAt(s, s.cur);
            const std::uint64_t in_win = (start - text_base_) % row -
                                         s.win_off;
            if (bytes > s.win_len - in_win) {
                if (bytes <= s.win_len)
                    start = windowAt(s, start + (s.win_len - in_win));
                else if (other.end > start)
                    start = windowAt(s, other.end);
            }
            padding_bytes_ += start - s.cur;
            std::uint64_t cur = start;
            for (BlockLocalId b : seg.blocks) {
                GlobalBlockId g = prog.globalBlockId(seg.proc, b);
                addr_[g] = cur;
                cur += static_cast<std::uint64_t>(size_[g]) * kInstrBytes;
            }
            s.cur = cur;
            s.end = std::max(s.end, cur);
            if (bytes > s.win_len)
                other.cur = std::max(other.cur, cur);
        };
        for (std::size_t s = 0; s < segments_.size(); ++s) {
            bool hot = !hot_flags.empty() && hot_flags[s];
            place(segments_[s], hot);
        }
        text_limit_ = std::max(hot_s.cur, cold_s.cur);
    } else {
        std::uint64_t cur = text_base_;
        for (const CodeSegment& seg : segments_) {
            std::uint64_t aligned = alignUp(cur, opts.segment_align);
            padding_bytes_ += aligned - cur;
            cur = aligned;
            for (BlockLocalId b : seg.blocks) {
                GlobalBlockId g = prog.globalBlockId(seg.proc, b);
                addr_[g] = cur;
                cur += static_cast<std::uint64_t>(size_[g]) * kInstrBytes;
            }
        }
        text_limit_ = cur;
    }
}

std::uint64_t
Layout::blockAddr(GlobalBlockId g) const
{
    SPIKESIM_ASSERT(g < addr_.size(), "block id out of range");
    return addr_[g];
}

std::uint32_t
Layout::blockSize(GlobalBlockId g) const
{
    SPIKESIM_ASSERT(g < size_.size(), "block id out of range");
    return size_[g];
}

std::uint64_t
Layout::branchesBeyondDisplacement(std::uint64_t limit_bytes) const
{
    const program::Program& prog = *prog_;
    const std::vector<BlockSuccs> succs = blockSuccessors(prog);
    std::uint64_t count = 0;
    auto check = [&](GlobalBlockId from, GlobalBlockId to) {
        if (to == kInvalidId)
            return;
        std::uint64_t src = addr_[from] + blockBytes(from);
        std::uint64_t dst = addr_[to];
        std::uint64_t dist = src > dst ? src - dst : dst - src;
        if (dist > limit_bytes)
            ++count;
    };
    for (GlobalBlockId g = 0; g < prog.numBlocks(); ++g) {
        const BasicBlock& blk = prog.block(g);
        switch (blk.term) {
          case Terminator::CondBranch:
            check(g, succs[g].taken);
            check(g, succs[g].fall);
            break;
          case Terminator::UncondBranch:
            check(g, succs[g].uncond);
            break;
          case Terminator::FallThrough:
          case Terminator::Call:
            check(g, succs[g].fall);
            break;
          case Terminator::IndirectJump:
          case Terminator::Return:
            break;
        }
    }
    return count;
}

std::string
Layout::validate() const
{
    // Every block exactly once is already asserted in the constructor;
    // here check address monotonicity / overlap.
    std::vector<GlobalBlockId> ids(prog_->numBlocks());
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&](GlobalBlockId a, GlobalBlockId b) {
        return addr_[a] < addr_[b];
    });
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
        std::uint64_t end = addr_[ids[i]] + blockBytes(ids[i]);
        if (end > addr_[ids[i + 1]])
            return "blocks overlap: block " + std::to_string(ids[i]) +
                   " ends at " + std::to_string(end) + ", block " +
                   std::to_string(ids[i + 1]) + " starts at " +
                   std::to_string(addr_[ids[i + 1]]);
    }
    if (!ids.empty()) {
        if (addr_[ids.front()] < text_base_)
            return "block below text base";
        if (addr_[ids.back()] + blockBytes(ids.back()) > text_limit_)
            return "block beyond text limit";
    }
    return "";
}

std::vector<CodeSegment>
baselineSegments(const program::Program& prog)
{
    std::vector<CodeSegment> segs;
    segs.reserve(prog.numProcs());
    for (ProcId p = 0; p < prog.numProcs(); ++p) {
        CodeSegment seg;
        seg.proc = p;
        seg.blocks.resize(prog.proc(p).blocks.size());
        std::iota(seg.blocks.begin(), seg.blocks.end(), 0);
        segs.push_back(std::move(seg));
    }
    return segs;
}

Layout
baselineLayout(const program::Program& prog, std::uint64_t text_base)
{
    AssignOptions opts;
    opts.text_base = text_base;
    opts.segment_align = 16;
    return Layout(prog, baselineSegments(prog), opts);
}

} // namespace spikesim::core
