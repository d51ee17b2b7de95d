/** @file Tests for the ExtTSP layout cost model (opt/exttsp.hh). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/chain.hh"
#include "core/pipeline.hh"
#include "opt/exttsp.hh"
#include "opt/perturb.hh"
#include "program/builder.hh"
#include "program/program.hh"
#include "support/rng.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"

namespace spikesim::opt {
namespace {

using program::BlockLocalId;
using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

TEST(ExtTspEdge, FallThroughScoresFullWeight)
{
    ExtTspParams p;
    p.coline_weight = 0.0;
    EXPECT_DOUBLE_EQ(extTspEdgeScore(100, 100, 7, p),
                     7.0 * p.fallthrough_weight);
}

TEST(ExtTspEdge, ForwardJumpDecaysLinearlyToZero)
{
    ExtTspParams p;
    p.coline_weight = 0.0;
    // Halfway through the forward window: half the peak weight.
    const std::uint64_t half = p.forward_window_bytes / 2;
    EXPECT_DOUBLE_EQ(extTspEdgeScore(0, half, 10, p),
                     10.0 * p.forward_weight * 0.5);
    // At (and beyond) the window edge: nothing.
    EXPECT_DOUBLE_EQ(extTspEdgeScore(0, p.forward_window_bytes, 10, p),
                     0.0);
    EXPECT_DOUBLE_EQ(
        extTspEdgeScore(0, p.forward_window_bytes + 512, 10, p), 0.0);
}

TEST(ExtTspEdge, BackwardJumpUsesItsOwnWindow)
{
    ExtTspParams p;
    p.coline_weight = 0.0;
    const std::uint64_t half = p.backward_window_bytes / 2;
    EXPECT_DOUBLE_EQ(extTspEdgeScore(10000, 10000 - half, 4, p),
                     4.0 * p.backward_weight * 0.5);
    EXPECT_DOUBLE_EQ(
        extTspEdgeScore(10000, 10000 - p.backward_window_bytes, 4, p),
        0.0);
}

TEST(ExtTspEdge, CoLineBonusIsAdditive)
{
    ExtTspParams p; // 64B lines, coline_weight 0.05
    // Bytes 64 and 68 share line 1: a 4-byte forward jump scores the
    // decayed forward weight plus the co-residency bonus.
    const double expect =
        p.forward_weight *
            (1.0 - 4.0 / static_cast<double>(p.forward_window_bytes)) +
        p.coline_weight;
    EXPECT_DOUBLE_EQ(extTspEdgeScore(64, 68, 1, p), expect);
    // Bytes 60 and 68 straddle a line boundary: no bonus.
    const double no_bonus =
        p.forward_weight *
        (1.0 - 8.0 / static_cast<double>(p.forward_window_bytes));
    EXPECT_DOUBLE_EQ(extTspEdgeScore(60, 68, 1, p), no_bonus);
}

TEST(ExtTspEdge, ZeroCountScoresZero)
{
    EXPECT_DOUBLE_EQ(extTspEdgeScore(0, 0, 0, {}), 0.0);
}

/**
 * A 5-block diamond with a skewed conditional and a loop back-edge —
 * small enough for the permutation oracle, rich enough that order
 * matters: B0 cond (hot B2 / cold B1), both sides join B3, B3 loops
 * back to B0 (hot) or exits to B4.
 */
Program
diamondProgram()
{
    Program p("diamond");
    ProcedureBuilder b("d");
    auto b0 = b.addBlock(4, Terminator::CondBranch);
    auto b1 = b.addBlock(12, Terminator::UncondBranch); // cold side
    auto b2 = b.addBlock(4, Terminator::FallThrough);   // hot side
    auto b3 = b.addBlock(4, Terminator::CondBranch);
    auto b4 = b.addBlock(2, Terminator::Return);
    b.addCond(b0, b2, b1, 0.9);
    b.addEdge(b1, b3, EdgeKind::UncondTarget);
    b.addEdge(b2, b3, EdgeKind::FallThrough);
    b.addCond(b3, b0, b4, 0.8); // back edge hot
    p.addProcedure(b.build());
    EXPECT_EQ(p.validate(), "");
    return p;
}

profile::Profile
diamondProfile(const Program& p)
{
    profile::Profile prof(p);
    prof.addEdge(0, 2, 90);
    prof.addEdge(0, 1, 10);
    prof.addEdge(2, 3, 90);
    prof.addEdge(1, 3, 10);
    prof.addEdge(3, 0, 80);
    prof.addEdge(3, 4, 20);
    for (program::GlobalBlockId g : {0u, 3u})
        prof.addBlock(g, 100);
    prof.addBlock(2, 90);
    prof.addBlock(1, 10);
    prof.addBlock(4, 20);
    return prof;
}

TEST(ExtTspOracle, EnumeratesEveryEntryPinnedPermutation)
{
    Program p = diamondProgram();
    profile::Profile prof = diamondProfile(p);
    ExhaustiveBest best = bestOrderExhaustive(p, 0, prof);
    EXPECT_EQ(best.permutations, 24u); // 4! with the entry pinned
    ASSERT_EQ(best.order.size(), 5u);
    EXPECT_EQ(best.order[0], 0u);
}

TEST(ExtTspOracle, OracleBeatsOrTiesEveryHeuristic)
{
    Program p = diamondProgram();
    profile::Profile prof = diamondProfile(p);
    ExhaustiveBest best = bestOrderExhaustive(p, 0, prof);

    const std::vector<BlockLocalId> natural{0, 1, 2, 3, 4};
    const std::vector<BlockLocalId> chained =
        core::chainBasicBlocks(p, 0, prof);
    const double s_nat = extTspOrderScore(p, 0, prof, natural);
    const double s_chain = extTspOrderScore(p, 0, prof, chained);
    // The oracle maximizes over a space containing both.
    EXPECT_GE(best.score, s_nat);
    EXPECT_GE(best.score, s_chain);
    // And the chained order should beat the deliberately-bad natural
    // order here (the hot side was placed second on purpose).
    EXPECT_GT(s_chain, s_nat);
    // The model agrees with itself: scoring the oracle's own order
    // reproduces its reported score bit-exactly.
    EXPECT_DOUBLE_EQ(extTspOrderScore(p, 0, prof, best.order),
                     best.score);
}

TEST(ExtTspOracle, HotFallThroughChainIsOptimalWhenUncontested)
{
    // A straight line of fall-throughs: the natural order is already
    // optimal, and the oracle must find exactly it.
    Program p("line");
    ProcedureBuilder b("l");
    auto c0 = b.addBlock(3, Terminator::FallThrough);
    auto c1 = b.addBlock(3, Terminator::FallThrough);
    auto c2 = b.addBlock(3, Terminator::FallThrough);
    auto c3 = b.addBlock(3, Terminator::Return);
    b.addEdge(c0, c1, EdgeKind::FallThrough);
    b.addEdge(c1, c2, EdgeKind::FallThrough);
    b.addEdge(c2, c3, EdgeKind::FallThrough);
    p.addProcedure(b.build());
    ASSERT_EQ(p.validate(), "");
    profile::Profile prof(p);
    prof.addEdge(0, 1, 50);
    prof.addEdge(1, 2, 50);
    prof.addEdge(2, 3, 50);

    ExhaustiveBest best = bestOrderExhaustive(p, 0, prof);
    const std::vector<BlockLocalId> natural{0, 1, 2, 3};
    EXPECT_EQ(best.order, natural);
    ExtTspParams params;
    // Three fall-throughs of count 50 each, plus whatever co-line
    // bonus the tight packing earns; at least the fall-through part.
    EXPECT_GE(best.score, 150.0 * params.fallthrough_weight);
}

TEST(ExtTspOracle, SevenBlockCfgMatchesBruteForce)
{
    // 7 blocks: a chain with two conditionals and a cold tail; the
    // oracle enumerates 720 permutations. The test cross-checks the
    // oracle against an independent argmax over extTspOrderScore.
    Program p("seven");
    ProcedureBuilder b("s");
    auto d0 = b.addBlock(2, Terminator::CondBranch);
    auto d1 = b.addBlock(2, Terminator::FallThrough);
    auto d2 = b.addBlock(6, Terminator::UncondBranch);
    auto d3 = b.addBlock(2, Terminator::CondBranch);
    auto d4 = b.addBlock(2, Terminator::FallThrough);
    auto d5 = b.addBlock(9, Terminator::UncondBranch);
    auto d6 = b.addBlock(2, Terminator::Return);
    b.addCond(d0, d2, d1, 0.2);
    b.addEdge(d1, d3, EdgeKind::FallThrough);
    b.addEdge(d2, d3, EdgeKind::UncondTarget);
    b.addCond(d3, d5, d4, 0.1);
    b.addEdge(d4, d6, EdgeKind::FallThrough);
    b.addEdge(d5, d6, EdgeKind::UncondTarget);
    p.addProcedure(b.build());
    ASSERT_EQ(p.validate(), "");
    profile::Profile prof(p);
    prof.addEdge(0, 1, 80);
    prof.addEdge(0, 2, 20);
    prof.addEdge(1, 3, 80);
    prof.addEdge(2, 3, 20);
    prof.addEdge(3, 4, 90);
    prof.addEdge(3, 5, 10);
    prof.addEdge(4, 6, 90);
    prof.addEdge(5, 6, 10);

    ExhaustiveBest best = bestOrderExhaustive(p, 0, prof);
    EXPECT_EQ(best.permutations, 720u);

    // Independent brute force (entry pinned, like every layout).
    std::vector<BlockLocalId> order{0, 1, 2, 3, 4, 5, 6};
    double max_score = -1.0;
    std::vector<BlockLocalId> rest(order.begin() + 1, order.end());
    std::sort(rest.begin(), rest.end());
    do {
        std::copy(rest.begin(), rest.end(), order.begin() + 1);
        max_score =
            std::max(max_score, extTspOrderScore(p, 0, prof, order));
    } while (std::next_permutation(rest.begin(), rest.end()));
    EXPECT_DOUBLE_EQ(best.score, max_score);
}

/** Synthetic kernel-like image with a walked profile: many procedures,
 *  profiled flow and call edges, every terminator kind. */
struct ScorerWorkload
{
    synth::SyntheticProgram image;
    profile::Profile prof;

    ScorerWorkload()
        : image(synth::buildSyntheticProgram(
              synth::SynthParams::kernelLike(5))),
          prof(image.prog)
    {
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        synth::CfgWalker w(image.prog, trace::ImageId::App, 5);
        trace::ExecContext ctx;
        for (int i = 0; i < 25; ++i) {
            w.run(image.entry("sys_read"), ctx, rec);
            w.run(image.entry("sched_switch"), ctx, rec);
        }
    }
};

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * Rebuild the candidate so it ends with two single-block segments
 * {S}, {B}, where B is a block that falls through to S on a profiled
 * edge. B is the final block, so it must materialize a branch, and the
 * short backward jump B -> S is scored from B's end: the branch's
 * bytes move that score.
 */
Candidate
withMaterializedTail(Candidate cand, const program::Program& prog,
                     const profile::Profile& prof)
{
    for (program::ProcId p = 0; p < prog.numProcs(); ++p)
        for (const program::FlowEdge& e : prog.proc(p).edges) {
            if (e.kind != EdgeKind::FallThrough || e.from == e.to ||
                prog.proc(p).blocks[e.from].term != Terminator::FallThrough ||
                prof.edgeCount(prog.globalBlockId(p, e.from),
                               prog.globalBlockId(p, e.to)) == 0)
                continue;
            for (core::CodeSegment& seg : cand.segments)
                if (seg.proc == p)
                    std::erase_if(seg.blocks, [&](BlockLocalId b) {
                        return b == e.from || b == e.to;
                    });
            std::erase_if(cand.segments, [](const core::CodeSegment& seg) {
                return seg.blocks.empty();
            });
            cand.segments.push_back({p, {e.to}});
            cand.segments.push_back({p, {e.from}});
            return cand;
        }
    ADD_FAILURE() << "no profiled fall-through edge";
    return cand;
}

/**
 * Differential fuzz of the search's production scorer against the
 * oracle: over perturbed candidates, at tight (4) and padded (64)
 * segment alignment, with call edges and the page-aware terms each on
 * and off, ExtTspScorer::score must be bit-equal to extTspScore of the
 * materialized layout.
 */
TEST(ExtTspScorer, MatchesLayoutOracle)
{
    static const ScorerWorkload w;
    const program::Program& prog = w.image.prog;
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    Candidate cand =
        candidateFromLayout(core::buildLayout(prog, w.prof, popts));
    ASSERT_FALSE(w.prof.calls().empty());

    std::vector<ExtTspParams> param_sets;
    for (const bool calls : {true, false})
        for (const bool page : {false, true}) {
            ExtTspParams p;
            p.include_calls = calls;
            if (page) {
                p.gap_weight = 0.05;
                p.page4k_weight = 0.02;
                p.page2m_weight = 0.01;
                p.itlb_weight = 0.05;
            }
            param_sets.push_back(p);
        }
    struct Config
    {
        core::AssignOptions aopts;
        ExtTspParams params;
        ExtTspScorer scorer;
    };
    std::vector<Config> configs;
    for (const std::uint32_t align : {4u, 64u})
        for (const ExtTspParams& p : param_sets) {
            core::AssignOptions aopts;
            aopts.segment_align = align;
            configs.push_back(
                {aopts, p, ExtTspScorer(prog, w.prof, p, aopts)});
        }

    const auto check = [&](const Candidate& c, int round) {
        for (const Config& cfg : configs) {
            const double want = extTspScore(
                materialize(c, prog, cfg.aopts), w.prof, cfg.params);
            const double got = cfg.scorer.score(c.segments);
            ASSERT_TRUE(bitEqual(got, want))
                << "round " << round << " align "
                << cfg.aopts.segment_align << " calls "
                << cfg.params.include_calls << " itlb_weight "
                << cfg.params.itlb_weight << ": scorer " << got
                << " vs oracle " << want;
        }
    };

    // The candidate whose final block grows a materialized branch.
    const Candidate tail = withMaterializedTail(cand, prog, w.prof);
    {
        const core::CodeSegment& last = tail.segments.back();
        const program::GlobalBlockId g =
            prog.globalBlockId(last.proc, last.blocks.back());
        core::AssignOptions aopts;
        EXPECT_EQ(materialize(tail, prog, aopts).blockSize(g),
                  prog.block(g).sizeInstrs + 1);
    }
    check(tail, -1);

    support::Pcg32 rng(2024, 11);
    for (int round = 0; round < 200; ++round) {
        perturb(cand, rng, 1 + static_cast<int>(rng.nextBounded(4)));
        check(cand, round);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace spikesim::opt
