#include "opt/perturb.hh"

#include <algorithm>

#include "support/panic.hh"

namespace spikesim::opt {

using program::BlockLocalId;

const char*
perturbOpName(PerturbOp op)
{
    switch (op) {
      case PerturbOp::SegmentSwap: return "segment_swap";
      case PerturbOp::SegmentMove: return "segment_move";
      case PerturbOp::SegmentReverse: return "segment_reverse";
      case PerturbOp::SegmentRotate: return "segment_rotate";
      case PerturbOp::SplitShift: return "split_shift";
      case PerturbOp::SplitCut: return "split_cut";
      case PerturbOp::BlockSwap: return "block_swap";
      case PerturbOp::RegionIntraMove: return "region_intra_move";
      case PerturbOp::RegionReorder: return "region_reorder";
      case PerturbOp::HotColdShift: return "hot_cold_shift";
    }
    return "?";
}

Candidate
candidateFromLayout(const core::Layout& layout)
{
    return Candidate{layout.segments(), RegionMap{}};
}

core::Layout
materialize(const Candidate& cand, const program::Program& prog,
            const core::AssignOptions& opts)
{
    return core::Layout(prog, cand.segments, opts);
}

std::uint64_t
fingerprint(const Candidate& cand)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a 64 offset basis
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    for (const core::CodeSegment& seg : cand.segments) {
        mix(0x5e65e65e65e65e65ULL); // segment separator
        mix(seg.proc);
        for (BlockLocalId b : seg.blocks)
            mix(b + 1);
    }
    return h;
}

namespace {

/** Bounded rejection sampling keeps draws deterministic and cheap. */
constexpr int kSiteTries = 8;

bool
opSegmentSwap(Candidate& c, support::Pcg32& rng)
{
    const std::size_t n = c.segments.size();
    if (n < 2)
        return false;
    const std::uint32_t i = rng.nextBounded(static_cast<std::uint32_t>(n));
    const std::uint32_t j = rng.nextBounded(static_cast<std::uint32_t>(n));
    if (i == j)
        return false;
    std::swap(c.segments[i], c.segments[j]);
    return true;
}

bool
opSegmentMove(Candidate& c, support::Pcg32& rng)
{
    const std::size_t n = c.segments.size();
    if (n < 2)
        return false;
    const std::uint32_t i = rng.nextBounded(static_cast<std::uint32_t>(n));
    const std::uint32_t j = rng.nextBounded(static_cast<std::uint32_t>(n));
    if (i == j)
        return false;
    core::CodeSegment seg = std::move(c.segments[i]);
    c.segments.erase(c.segments.begin() + i);
    c.segments.insert(c.segments.begin() + j, std::move(seg));
    return true;
}

/** Random run [begin, begin+len) of 2..8 segments. */
bool
pickRun(const Candidate& c, support::Pcg32& rng, std::size_t& begin,
        std::size_t& len)
{
    const std::size_t n = c.segments.size();
    if (n < 2)
        return false;
    len = 2 + rng.nextBounded(
                  static_cast<std::uint32_t>(std::min<std::size_t>(7, n - 1)));
    begin = rng.nextBounded(static_cast<std::uint32_t>(n - len + 1));
    return true;
}

bool
opSegmentReverse(Candidate& c, support::Pcg32& rng)
{
    std::size_t begin = 0, len = 0;
    if (!pickRun(c, rng, begin, len))
        return false;
    std::reverse(c.segments.begin() + begin,
                 c.segments.begin() + begin + len);
    return true;
}

bool
opSegmentRotate(Candidate& c, support::Pcg32& rng)
{
    std::size_t begin = 0, len = 0;
    if (!pickRun(c, rng, begin, len))
        return false;
    const std::uint32_t k =
        1 + rng.nextBounded(static_cast<std::uint32_t>(len - 1));
    std::rotate(c.segments.begin() + begin,
                c.segments.begin() + begin + k,
                c.segments.begin() + begin + len);
    return true;
}

/** Erase segment `i` and (in region mode) its map entry. */
void
eraseSegment(Candidate& c, std::size_t i)
{
    c.segments.erase(c.segments.begin() + i);
    if (!c.regions.empty())
        c.regions.seg_region.erase(c.regions.seg_region.begin() + i);
}

bool
opSplitShift(Candidate& c, support::Pcg32& rng)
{
    const std::size_t n = c.segments.size();
    if (n < 2)
        return false;
    for (int t = 0; t < kSiteTries; ++t) {
        const std::size_t i =
            rng.nextBounded(static_cast<std::uint32_t>(n - 1));
        core::CodeSegment& a = c.segments[i];
        core::CodeSegment& b = c.segments[i + 1];
        if (a.proc != b.proc)
            continue;
        // Region mode: a split point only shifts inside one region.
        if (!c.regions.empty() &&
            c.regions.seg_region[i] != c.regions.seg_region[i + 1])
            continue;
        if (rng.nextBool(0.5)) {
            // Last block of a moves to the front of b.
            b.blocks.insert(b.blocks.begin(), a.blocks.back());
            a.blocks.pop_back();
            if (a.blocks.empty())
                eraseSegment(c, i);
        } else {
            // First block of b moves to the end of a.
            a.blocks.push_back(b.blocks.front());
            b.blocks.erase(b.blocks.begin());
            if (b.blocks.empty())
                eraseSegment(c, i + 1);
        }
        return true;
    }
    return false;
}

bool
opSplitCut(Candidate& c, support::Pcg32& rng)
{
    const std::size_t n = c.segments.size();
    for (int t = 0; t < kSiteTries; ++t) {
        const std::size_t i = rng.nextBounded(static_cast<std::uint32_t>(n));
        core::CodeSegment& seg = c.segments[i];
        if (seg.blocks.size() < 2)
            continue;
        const std::uint32_t cut =
            1 + rng.nextBounded(
                    static_cast<std::uint32_t>(seg.blocks.size() - 1));
        core::CodeSegment tail;
        tail.proc = seg.proc;
        tail.blocks.assign(seg.blocks.begin() + cut, seg.blocks.end());
        seg.blocks.resize(cut);
        c.segments.insert(c.segments.begin() + i + 1, std::move(tail));
        if (!c.regions.empty()) // the tail stays in the cut's region
            c.regions.seg_region.insert(
                c.regions.seg_region.begin() + i + 1,
                c.regions.seg_region[i]);
        return true;
    }
    return false;
}

/** Region run [begin, end) containing segment `i`. */
void
regionRun(const Candidate& c, std::size_t i, std::size_t& begin,
          std::size_t& end)
{
    const auto& reg = c.regions.seg_region;
    const std::uint32_t id = reg[i];
    begin = i;
    while (begin > 0 && reg[begin - 1] == id)
        --begin;
    end = i + 1;
    while (end < reg.size() && reg[end] == id)
        ++end;
}

bool
opRegionIntraMove(Candidate& c, support::Pcg32& rng)
{
    const std::size_t n = c.segments.size();
    for (int t = 0; t < kSiteTries; ++t) {
        const std::size_t i = rng.nextBounded(static_cast<std::uint32_t>(n));
        std::size_t begin = 0, end = 0;
        regionRun(c, i, begin, end);
        if (end - begin < 2)
            continue;
        const std::size_t j =
            begin + rng.nextBounded(static_cast<std::uint32_t>(end - begin));
        if (i == j)
            continue;
        core::CodeSegment seg = std::move(c.segments[i]);
        c.segments.erase(c.segments.begin() + i);
        c.segments.insert(c.segments.begin() + j, std::move(seg));
        return true; // seg_region untouched: same id throughout the run
    }
    return false;
}

bool
opRegionReorder(Candidate& c, support::Pcg32& rng)
{
    const std::size_t n = c.segments.size();
    for (int t = 0; t < kSiteTries; ++t) {
        const std::size_t i = rng.nextBounded(static_cast<std::uint32_t>(n));
        const std::size_t j = rng.nextBounded(static_cast<std::uint32_t>(n));
        const auto& reg = c.regions.seg_region;
        if (reg[i] == reg[j])
            continue;
        // Only reorder regions on the same side of the boundary.
        if ((reg[i] < c.regions.num_hot) != (reg[j] < c.regions.num_hot))
            continue;
        std::size_t ab = 0, ae = 0, bb = 0, be = 0;
        regionRun(c, i, ab, ae);
        regionRun(c, j, bb, be);
        if (ab > bb) {
            std::swap(ab, bb);
            std::swap(ae, be);
        }
        // Rebuild [ab, be) as: run B, middle, run A.
        std::vector<core::CodeSegment> segs;
        std::vector<std::uint32_t> ids;
        segs.reserve(be - ab);
        ids.reserve(be - ab);
        auto take = [&](std::size_t from, std::size_t to) {
            for (std::size_t k = from; k < to; ++k) {
                segs.push_back(std::move(c.segments[k]));
                ids.push_back(reg[k]);
            }
        };
        take(bb, be);
        take(ae, bb);
        take(ab, ae);
        std::move(segs.begin(), segs.end(), c.segments.begin() + ab);
        std::copy(ids.begin(), ids.end(),
                  c.regions.seg_region.begin() + ab);
        return true;
    }
    return false;
}

bool
opHotColdShift(Candidate& c, support::Pcg32& rng)
{
    RegionMap& m = c.regions;
    const std::size_t n = c.segments.size();
    // Boundary: hot-region segments form a prefix.
    std::size_t b = 0;
    while (b < n && m.seg_region[b] < m.num_hot)
        ++b;
    for (int t = 0; t < kSiteTries; ++t) {
        if (rng.nextBool(0.5)) {
            // Hot -> cold: demote the last hot segment (keep >= 1 hot).
            if (b < 2 || m.num_regions <= m.num_hot)
                continue;
            m.seg_region[b - 1] =
                b < n ? m.seg_region[b] : m.num_hot;
            return true;
        }
        // Cold -> hot: promote the first cold segment.
        if (b == n || b == 0)
            continue;
        m.seg_region[b] = m.seg_region[b - 1];
        return true;
    }
    return false;
}

bool
opBlockSwap(Candidate& c, support::Pcg32& rng)
{
    const std::size_t n = c.segments.size();
    for (int t = 0; t < kSiteTries; ++t) {
        const std::size_t i = rng.nextBounded(static_cast<std::uint32_t>(n));
        core::CodeSegment& seg = c.segments[i];
        if (seg.blocks.size() < 2)
            continue;
        const std::uint32_t j = rng.nextBounded(
            static_cast<std::uint32_t>(seg.blocks.size() - 1));
        std::swap(seg.blocks[j], seg.blocks[j + 1]);
        return true;
    }
    return false;
}

/** Region-mode draw set: structure-local edits plus the region ops;
 *  whole-layout segment shuffles would tear regions apart. */
constexpr PerturbOp kRegionOps[] = {
    PerturbOp::SplitShift,      PerturbOp::SplitCut,
    PerturbOp::BlockSwap,       PerturbOp::RegionIntraMove,
    PerturbOp::RegionReorder,   PerturbOp::HotColdShift,
};

} // namespace

RegionMap
buildRegionMap(const program::Program& prog,
               const std::vector<core::CodeSegment>& segments,
               std::size_t num_hot, std::uint64_t page_bytes)
{
    SPIKESIM_ASSERT(num_hot <= segments.size(),
                    "num_hot exceeds the segment count");
    RegionMap map;
    map.seg_region.reserve(segments.size());
    std::uint32_t region = 0;
    std::uint64_t fill = 0;
    for (std::size_t i = 0; i < num_hot; ++i) {
        const program::Procedure& p = prog.proc(segments[i].proc);
        std::uint64_t bytes = 0;
        for (BlockLocalId blk : segments[i].blocks)
            bytes += static_cast<std::uint64_t>(p.blocks[blk].sizeInstrs) *
                     program::kInstrBytes;
        if (fill > 0 && fill + bytes > page_bytes) {
            ++region;
            fill = 0;
        }
        map.seg_region.push_back(region);
        fill += bytes;
    }
    map.num_hot = num_hot == 0 ? 0 : region + 1;
    // One cold region; its id exists even when the tail is empty so
    // HotColdShift can always demote into it.
    for (std::size_t i = num_hot; i < segments.size(); ++i)
        map.seg_region.push_back(map.num_hot);
    map.num_regions = map.num_hot + 1;
    return map;
}

std::string
validateRegions(const Candidate& cand)
{
    const RegionMap& m = cand.regions;
    if (m.empty())
        return "";
    if (m.seg_region.size() != cand.segments.size())
        return "region map size != segment count";
    if (m.num_hot > m.num_regions)
        return "num_hot exceeds num_regions";
    std::vector<bool> closed(m.num_regions, false);
    std::uint32_t last = m.seg_region.front();
    bool seen_cold = last >= m.num_hot;
    for (std::size_t i = 0; i < m.seg_region.size(); ++i) {
        const std::uint32_t id = m.seg_region[i];
        if (id >= m.num_regions)
            return "region id out of range";
        if (i > 0 && id != last) {
            closed[last] = true;
            if (closed[id])
                return "region " + std::to_string(id) +
                       " is not contiguous";
            last = id;
        }
        if (id >= m.num_hot)
            seen_cold = true;
        else if (seen_cold)
            return "hot segment after the hot/cold boundary";
    }
    return "";
}

PerturbOp
perturbOnce(Candidate& cand, support::Pcg32& rng, PerturbCounts* counts)
{
    SPIKESIM_ASSERT(!cand.segments.empty(), "empty candidate");
    PerturbOp op;
    if (cand.regions.empty()) {
        // Flat candidates draw exactly the PR 4 stream: bounded by the
        // flat operator count, so seeds reproduce bit-identically.
        op = static_cast<PerturbOp>(
            rng.nextBounded(static_cast<std::uint32_t>(kNumFlatOps)));
    } else {
        op = kRegionOps[rng.nextBounded(
            static_cast<std::uint32_t>(std::size(kRegionOps)))];
    }
    bool applied = false;
    switch (op) {
      case PerturbOp::SegmentSwap: applied = opSegmentSwap(cand, rng); break;
      case PerturbOp::SegmentMove: applied = opSegmentMove(cand, rng); break;
      case PerturbOp::SegmentReverse:
        applied = opSegmentReverse(cand, rng);
        break;
      case PerturbOp::SegmentRotate:
        applied = opSegmentRotate(cand, rng);
        break;
      case PerturbOp::SplitShift: applied = opSplitShift(cand, rng); break;
      case PerturbOp::SplitCut: applied = opSplitCut(cand, rng); break;
      case PerturbOp::BlockSwap: applied = opBlockSwap(cand, rng); break;
      case PerturbOp::RegionIntraMove:
        applied = opRegionIntraMove(cand, rng);
        break;
      case PerturbOp::RegionReorder:
        applied = opRegionReorder(cand, rng);
        break;
      case PerturbOp::HotColdShift:
        applied = opHotColdShift(cand, rng);
        break;
    }
    if (counts != nullptr) {
        const auto idx = static_cast<std::size_t>(op);
        if (applied)
            ++counts->applied[idx];
        else
            ++counts->noop[idx];
    }
    return op;
}

void
perturb(Candidate& cand, support::Pcg32& rng, int ops,
        PerturbCounts* counts)
{
    for (int i = 0; i < ops; ++i)
        perturbOnce(cand, rng, counts);
}

} // namespace spikesim::opt
