/** @file Tests for address assignment and layout-dependent code size. */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/layout.hh"
#include "program/builder.hh"

namespace spikesim::core {
namespace {

using program::BlockLocalId;
using program::EdgeKind;
using program::kInstrBytes;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

/** p0: A(fall)->B(ret); p1: C(uncond->E), D(ret), E(ret). */
Program
sample()
{
    Program p("s");
    {
        ProcedureBuilder b("p0");
        auto a = b.addBlock(2, Terminator::FallThrough);
        auto r = b.addBlock(3, Terminator::Return);
        b.addEdge(a, r, EdgeKind::FallThrough);
        p.addProcedure(b.build());
    }
    {
        ProcedureBuilder b("p1");
        auto c = b.addBlock(1, Terminator::UncondBranch);
        b.addBlock(2, Terminator::Return); // D
        auto e = b.addBlock(2, Terminator::Return);
        b.addEdge(c, e, EdgeKind::UncondTarget);
        p.addProcedure(b.build());
    }
    EXPECT_EQ(p.validate(), "");
    return p;
}

TEST(Layout, BaselineAssignsSequentialAddresses)
{
    Program p = sample();
    Layout l = baselineLayout(p, 0x1000);
    EXPECT_EQ(l.validate(), "");
    EXPECT_EQ(l.blockAddr(0), 0x1000u);
    EXPECT_EQ(l.blockSize(0), 2u); // fall-through successor adjacent
    EXPECT_EQ(l.blockAddr(1), 0x1000u + 2 * kInstrBytes);
    // p1 starts 16-byte aligned after p0 (5 instrs = 20 bytes -> 0x1020).
    EXPECT_EQ(l.blockAddr(2), 0x1020u);
    EXPECT_EQ(l.paddingBytes(), 12u);
}

TEST(Layout, MaterializesBranchWhenFallThroughMoves)
{
    Program p = sample();
    // Reverse p0's blocks: A's successor B is now before it.
    std::vector<CodeSegment> segs;
    segs.push_back({0, {1, 0}});
    segs.push_back({1, {0, 1, 2}});
    AssignOptions opts;
    Layout l(p, segs, opts);
    EXPECT_EQ(l.validate(), "");
    EXPECT_EQ(l.blockSize(0), 3u); // 2 + materialized branch
    EXPECT_EQ(l.branchesMaterialized(), 1u);
}

TEST(Layout, DeletesUncondBranchWhenTargetBecomesAdjacent)
{
    Program p = sample();
    // Order p1 as C,E,D: C's unconditional target E is now adjacent.
    std::vector<CodeSegment> segs;
    segs.push_back({0, {0, 1}});
    segs.push_back({1, {0, 2, 1}});
    AssignOptions opts;
    Layout l(p, segs, opts);
    EXPECT_EQ(l.validate(), "");
    EXPECT_EQ(l.blockSize(p.globalBlockId(1, 0)), 0u); // 1 - deleted
    EXPECT_EQ(l.branchesDeleted(), 1u);
}

TEST(Layout, CondBranchNeedsExtraWhenNeitherSuccessorAdjacent)
{
    Program p("c");
    ProcedureBuilder b("p");
    auto c = b.addBlock(2, Terminator::CondBranch);
    auto t = b.addBlock(1, Terminator::Return);
    auto f = b.addBlock(1, Terminator::Return);
    auto pad = b.addBlock(1, Terminator::Return);
    b.addCond(c, t, f, 0.5);
    (void)pad;
    p.addProcedure(b.build());
    ASSERT_EQ(p.validate(), "");
    // Order: c, pad, t, f -- neither successor follows c.
    std::vector<CodeSegment> segs;
    segs.push_back({0, {0, 3, 1, 2}});
    Layout l(p, segs, {});
    EXPECT_EQ(l.blockSize(0), 3u);
    EXPECT_EQ(l.branchesMaterialized(), 1u);

    // Order: c, t, ... -- the taken side becomes the fall-through
    // (free branch inversion): no extra instruction.
    std::vector<CodeSegment> segs2;
    segs2.push_back({0, {0, 1, 3, 2}});
    Layout l2(p, segs2, {});
    EXPECT_EQ(l2.blockSize(0), 2u);
    EXPECT_EQ(l2.branchesMaterialized(), 0u);
}

TEST(Layout, TightPackingAllowsCrossSegmentFallThrough)
{
    Program p = sample();
    // Split p0's two blocks into separate segments, adjacent, with
    // 4-byte alignment: the fall-through survives (no materialization).
    std::vector<CodeSegment> segs;
    segs.push_back({0, {0}});
    segs.push_back({0, {1}});
    segs.push_back({1, {0, 2, 1}});
    AssignOptions tight;
    tight.segment_align = 4;
    Layout l(p, segs, tight);
    EXPECT_EQ(l.blockSize(0), 2u);
    EXPECT_EQ(l.branchesMaterialized(), 0u);

    // With 16-byte alignment padding may intervene: branch needed.
    AssignOptions padded;
    padded.segment_align = 16;
    Layout l2(p, segs, padded);
    EXPECT_EQ(l2.blockSize(0), 3u);
    EXPECT_EQ(l2.branchesMaterialized(), 1u);
}

TEST(Layout, ValidateCatchesEverything)
{
    Program p = sample();
    Layout l = baselineLayout(p);
    EXPECT_EQ(l.validate(), "");
    EXPECT_GE(l.textLimit(), l.textBase());
    EXPECT_EQ(l.textBytes(),
              l.textLimit() - l.textBase());
}

TEST(Layout, BranchDisplacementAudit)
{
    Program p = sample();
    Layout l = baselineLayout(p);
    // Tiny program: nothing exceeds 1MB reach.
    EXPECT_EQ(l.branchesBeyondDisplacement(), 0u);
    // With a 4-byte limit nearly every branch is out of reach.
    EXPECT_GT(l.branchesBeyondDisplacement(4), 0u);
}

TEST(Layout, CfaConfinesHotSegmentsToReservedRows)
{
    // Build 8 single-block procs; mark half hot; reserve 64 bytes of a
    // 256-byte "cache".
    Program p("cfa");
    for (int i = 0; i < 8; ++i) {
        ProcedureBuilder b("p" + std::to_string(i));
        b.addBlock(8, Terminator::Return); // 32 bytes each
        p.addProcedure(b.build());
    }
    std::vector<CodeSegment> segs;
    std::vector<bool> hot;
    for (std::uint32_t i = 0; i < 8; ++i) {
        segs.push_back({i, {0}});
        hot.push_back(i % 2 == 0);
    }
    AssignOptions opts;
    opts.text_base = 0;
    opts.cfa_bytes = 64;
    opts.cfa_cache_bytes = 256;
    Layout l(p, segs, opts, hot);
    EXPECT_EQ(l.validate(), "");
    for (std::uint32_t i = 0; i < 8; ++i) {
        std::uint64_t addr = l.blockAddr(p.globalBlockId(i, 0));
        std::uint64_t row_off = addr % 256;
        if (i % 2 == 0)
            EXPECT_LT(row_off, 64u) << "hot segment " << i;
        else
            EXPECT_GE(row_off, 64u) << "cold segment " << i;
    }
}

/**
 * CFA placement of single-block procedures of the given sizes (in
 * instructions) into a 256-byte "cache" with a 64-byte reserved area,
 * in list order, hot where flagged.
 */
struct CfaCase
{
    Program prog{"cfa"};
    std::vector<bool> hot;

    CfaCase(const std::vector<std::uint32_t>& instrs,
            const std::vector<bool>& hot_flags)
        : hot(hot_flags)
    {
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            ProcedureBuilder b("p" + std::to_string(i));
            b.addBlock(instrs[i], Terminator::Return);
            prog.addProcedure(b.build());
        }
    }

    Layout
    place() const
    {
        std::vector<CodeSegment> segs;
        for (std::uint32_t i = 0; i < prog.numProcs(); ++i)
            segs.push_back({i, {0}});
        AssignOptions opts;
        opts.text_base = 0;
        opts.cfa_bytes = 64;
        opts.cfa_cache_bytes = 256;
        return Layout(prog, segs, opts, hot);
    }
};

TEST(Layout, CfaNeverHandsOutSpilledBytesTwice)
{
    {
        // The cold cursor lands exactly on a row boundary, where the
        // next row's hot window begins; the second hot segment has
        // already jumped there. The next cold segment must go to the
        // next row's cold window.
        CfaCase c({12, 12, 8, 8, 8, 8, 8, 8, 8},
                  {true, true, false, false, false, false, false, false,
                   false});
        const Layout l = c.place();
        EXPECT_EQ(l.validate(), "");
        EXPECT_EQ(l.blockAddr(1), 256u);
        EXPECT_EQ(l.blockAddr(8), 256u + 64u);
    }
    {
        // An oversized hot segment spills over the cold window; cold
        // code resumes past the spill, and the next hot segment takes
        // the next row's reserved area.
        CfaCase c({24, 8, 8}, {true, false, true});
        const Layout l = c.place();
        EXPECT_EQ(l.validate(), "");
        EXPECT_EQ(l.blockAddr(0), 0u);
        EXPECT_EQ(l.blockAddr(1), 96u);
        EXPECT_EQ(l.blockAddr(2), 256u);
    }
    {
        // Cold code already sits where the oversized hot segment would
        // spill, so the spill starts at the next reserved area past it.
        CfaCase c({8, 24, 8}, {false, true, false});
        const Layout l = c.place();
        EXPECT_EQ(l.validate(), "");
        EXPECT_EQ(l.blockAddr(0), 64u);
        EXPECT_EQ(l.blockAddr(1), 256u);
        EXPECT_EQ(l.blockAddr(2), 256u + 96u);
    }
}

TEST(Layout, ZeroPaddingWithInstructionAlignment)
{
    Program p = sample();
    AssignOptions opts;
    opts.segment_align = 4;
    Layout l(p, baselineSegments(p), opts);
    EXPECT_EQ(l.paddingBytes(), 0u);
}

} // namespace
} // namespace spikesim::core
