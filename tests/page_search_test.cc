/** @file Tests for the page-aware layout search pieces: hot/cold
 *  partition invariants, region-map preservation under the
 *  region-aware perturbation operators, and a small-program
 *  differential of the ExtTSP iTLB cost term against real iTLB replay
 *  counts. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/chain.hh"
#include "core/split.hh"
#include "opt/exttsp.hh"
#include "opt/hierarchy.hh"
#include "opt/perturb.hh"
#include "profile/profile.hh"
#include "sim/replay.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"
#include "trace/trace.hh"

namespace spikesim::opt {
namespace {

/** Synthetic app image with a profile and a recorded trace. */
struct Workload
{
    synth::SyntheticProgram image;
    profile::Profile prof;
    trace::TraceBuffer buf;

    explicit Workload(std::uint64_t seed = 9)
        : image(synth::buildSyntheticProgram(
              synth::SynthParams::kernelLike(seed))),
          prof(image.prog)
    {
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        trace::TeeSink tee({&rec, &buf});
        synth::CfgWalker w(image.prog, trace::ImageId::App, seed);
        trace::ExecContext ctx;
        for (int i = 0; i < 20; ++i) {
            w.run(image.entry("sys_read"), ctx, tee);
            w.run(image.entry("sched_switch"), ctx, tee);
        }
    }
};

Workload&
shared()
{
    static Workload w;
    return w;
}

/** Chained + fine-grain-split segments for every procedure. */
std::vector<core::CodeSegment>
splitSegments(const Workload& w)
{
    std::vector<core::CodeSegment> segs;
    for (program::ProcId p = 0; p < w.image.prog.numProcs(); ++p) {
        auto order = core::chainBasicBlocks(w.image.prog, p, w.prof);
        for (auto& seg : core::splitFineGrain(w.image.prog, p, order))
            segs.push_back(std::move(seg));
    }
    return segs;
}

/** Multiset of (proc, block) pairs — the invariant every reordering
 *  pass must preserve. */
std::map<std::pair<program::ProcId, program::BlockLocalId>, int>
blockMultiset(const std::vector<core::CodeSegment>& segs)
{
    std::map<std::pair<program::ProcId, program::BlockLocalId>, int> m;
    for (const core::CodeSegment& seg : segs)
        for (program::BlockLocalId b : seg.blocks)
            ++m[{seg.proc, b}];
    return m;
}

std::uint64_t
peakCount(const Workload& w, const core::CodeSegment& seg)
{
    std::uint64_t peak = 0;
    for (program::BlockLocalId b : seg.blocks)
        peak = std::max(peak, w.prof.blockCount(w.image.prog.globalBlockId(
                                  seg.proc, b)));
    return peak;
}

TEST(HotColdPartition, PlacesEverySegmentOnceAndClassifiesByPeak)
{
    Workload& w = shared();
    const std::vector<core::CodeSegment> segs = splitSegments(w);
    const auto before = blockMultiset(segs);

    for (std::uint64_t thr : {std::uint64_t{1}, std::uint64_t{4},
                              std::uint64_t{32}}) {
        const core::HotColdPartition part =
            core::partitionHotCold(w.image.prog, w.prof, segs, thr);
        EXPECT_EQ(part.hot.size() + part.cold.size(), segs.size());
        for (const core::CodeSegment& seg : part.hot)
            EXPECT_GE(peakCount(w, seg), thr);
        for (const core::CodeSegment& seg : part.cold)
            EXPECT_LT(peakCount(w, seg), thr);
        std::vector<core::CodeSegment> all = part.hot;
        all.insert(all.end(), part.cold.begin(), part.cold.end());
        EXPECT_EQ(blockMultiset(all), before);
    }
}

TEST(HotColdPartition, ThresholdOneKeepsEverythingExecutedHot)
{
    Workload& w = shared();
    const std::vector<core::CodeSegment> segs = splitSegments(w);
    const core::HotColdPartition part =
        core::partitionHotCold(w.image.prog, w.prof, segs, 1);
    for (const core::CodeSegment& seg : part.cold)
        EXPECT_EQ(peakCount(w, seg), 0u);
}

TEST(HierarchicalOrder, IsAPermutationWithHotPrefix)
{
    Workload& w = shared();
    const std::vector<core::CodeSegment> segs = splitSegments(w);
    const HierarchyResult hr =
        hierarchicalOrder(w.image.prog, w.prof, segs);
    EXPECT_EQ(hr.segments.size(), segs.size());
    EXPECT_EQ(blockMultiset(hr.segments), blockMultiset(segs));
    // The hot prefix is exactly the hot partition's segments.
    ASSERT_LE(hr.num_hot, hr.segments.size());
    HierarchyParams params;
    for (std::size_t i = 0; i < hr.segments.size(); ++i) {
        const bool hot = peakCount(w, hr.segments[i]) >=
                         params.hot_threshold;
        EXPECT_EQ(hot, i < hr.num_hot) << "segment " << i;
    }
}

TEST(RegionOps, PreserveRegionInvariantsAndBlockMultiset)
{
    Workload& w = shared();
    const core::HotColdPartition part = core::partitionHotCold(
        w.image.prog, w.prof, splitSegments(w), 4);

    Candidate cand;
    cand.segments = part.hot;
    cand.segments.insert(cand.segments.end(), part.cold.begin(),
                         part.cold.end());
    cand.regions = buildRegionMap(w.image.prog, cand.segments,
                                  part.hot.size(), 4096);
    ASSERT_EQ(validateRegions(cand), "");
    const auto before = blockMultiset(cand.segments);

    support::Pcg32 rng(123, 77);
    PerturbCounts counts;
    for (int i = 0; i < 500; ++i) {
        perturbOnce(cand, rng, &counts);
        ASSERT_EQ(validateRegions(cand), "") << "after op " << i;
        ASSERT_EQ(blockMultiset(cand.segments), before)
            << "after op " << i;
    }
    // The region draw set must have exercised the region operators.
    EXPECT_GT(counts.applied[static_cast<std::size_t>(
                  PerturbOp::RegionIntraMove)] +
                  counts.applied[static_cast<std::size_t>(
                      PerturbOp::RegionReorder)] +
                  counts.applied[static_cast<std::size_t>(
                      PerturbOp::HotColdShift)],
              0u);
    // And never drawn a whole-layout (flat-only) operator.
    for (PerturbOp op : {PerturbOp::SegmentSwap, PerturbOp::SegmentMove,
                         PerturbOp::SegmentReverse,
                         PerturbOp::SegmentRotate}) {
        EXPECT_EQ(counts.applied[static_cast<std::size_t>(op)], 0u);
        EXPECT_EQ(counts.noop[static_cast<std::size_t>(op)], 0u);
    }
}

/** The iTLB proxy term must agree directionally with a real iTLB
 *  replay: forcing every segment onto its own 4KB page inflates both
 *  the edge-weighted page-crossing count and the replayed miss count
 *  of a small capacity-starved TLB. */
TEST(ITlbCostDifferential, RanksPackedAbovePageStraddledLayouts)
{
    Workload& w = shared();
    const std::vector<core::CodeSegment> segs = splitSegments(w);

    core::AssignOptions packed;
    packed.segment_align = 4;
    core::AssignOptions straddled;
    straddled.segment_align = 4096;
    const core::Layout tight(w.image.prog, segs, packed);
    const core::Layout loose(w.image.prog, segs, straddled);

    ExtTspParams params;
    const double cost_tight = extTspITlbCost(tight, w.prof, params);
    const double cost_loose = extTspITlbCost(loose, w.prof, params);
    EXPECT_LT(cost_tight, cost_loose);

    const sim::ITlbSpec spec{2, 4096, 128};
    auto misses = [&](const core::Layout& layout) {
        const sim::Replayer rep(w.buf, layout, nullptr);
        return rep.itlb(spec, sim::StreamFilter::AppOnly).misses;
    };
    const std::uint64_t misses_tight = misses(tight);
    const std::uint64_t misses_loose = misses(loose);
    EXPECT_LT(misses_tight, misses_loose);
}

} // namespace
} // namespace spikesim::opt
