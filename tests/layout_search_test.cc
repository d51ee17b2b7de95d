/** @file Tests for the layout search engine (opt/search.hh). */

#include <gtest/gtest.h>

#include <vector>

#include "opt/perturb.hh"
#include "opt/search.hh"
#include "profile/profile.hh"
#include "support/checksum.hh"
#include "support/threadpool.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"
#include "trace/trace.hh"

namespace spikesim::opt {
namespace {

/** Small app-image workload with a recorded trace (so the search's
 *  ground-truth re-rank path has something to replay). */
struct Workload
{
    synth::SyntheticProgram image;
    profile::Profile prof;
    trace::TraceBuffer buf;

    explicit Workload(std::uint64_t seed = 5)
        : image(synth::buildSyntheticProgram(
              synth::SynthParams::kernelLike(seed))),
          prof(image.prog)
    {
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        trace::TeeSink tee({&rec, &buf});
        synth::CfgWalker w(image.prog, trace::ImageId::App, seed);
        trace::ExecContext ctx;
        for (int i = 0; i < 25; ++i) {
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

SearchOptions
smallBudget(std::uint64_t seed)
{
    SearchOptions sopts;
    sopts.seed = seed;
    sopts.epochs = 6;
    sopts.batch = 8;
    sopts.rerank_every = 3;
    return sopts;
}

/** Per-block address map of a layout (the byte-identity witness). */
std::vector<std::uint64_t>
addressMap(const core::Layout& layout, const program::Program& prog)
{
    std::vector<std::uint64_t> addrs;
    addrs.reserve(prog.numBlocks());
    for (program::GlobalBlockId g = 0; g < prog.numBlocks(); ++g)
        addrs.push_back(layout.blockAddr(g));
    return addrs;
}

TEST(LayoutSearch, SameSeedIsByteIdenticalAcrossPoolWidths)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;

    support::ThreadPool pool(4);
    SearchResult serial = searchLayout(w.image.prog, w.prof, popts,
                                       smallBudget(42), &w.buf);
    SearchResult pooled = searchLayout(w.image.prog, w.prof, popts,
                                       smallBudget(42), &w.buf, nullptr,
                                       &pool);
    SearchResult again = searchLayout(w.image.prog, w.prof, popts,
                                      smallBudget(42), &w.buf, nullptr,
                                      &pool);

    EXPECT_EQ(fingerprint(candidateFromLayout(serial.layout)),
              fingerprint(candidateFromLayout(pooled.layout)));
    EXPECT_EQ(addressMap(serial.layout, w.image.prog),
              addressMap(pooled.layout, w.image.prog));
    EXPECT_EQ(addressMap(pooled.layout, w.image.prog),
              addressMap(again.layout, w.image.prog));
    // The whole audit trail is reproduced bit-exactly, not just the
    // winning layout.
    EXPECT_EQ(serial.best_score, pooled.best_score);
    EXPECT_EQ(serial.epoch_best, pooled.epoch_best);
    EXPECT_EQ(serial.best_misses, pooled.best_misses);
    EXPECT_EQ(serial.seed_misses, pooled.seed_misses);
}

/** A small page-aware budget: hot/cold + hierarchical seeds, region
 *  operators, and the combined icache + iTLB objective. */
SearchOptions
pageBudget(std::uint64_t seed)
{
    SearchOptions sopts = smallBudget(seed);
    sopts.epochs = 12;
    // A cache and iTLB small enough for this trace that the search
    // moves both metrics away from the seed.
    sopts.rerank_config = {8 * 1024, 128, 4};
    sopts.page.enabled = true;
    sopts.page.hot_threshold = 4;
    sopts.page.itlb4k_weight = 2.0;
    sopts.page.itlb2m_weight = 10.0;
    sopts.page.itlb_entries = 4;
    return sopts;
}

std::uint64_t
addressMapHash(const core::Layout& layout, const program::Program& prog)
{
    support::Fnv1a64 h;
    for (std::uint64_t a : addressMap(layout, prog))
        h.update64(a);
    for (program::GlobalBlockId g = 0; g < prog.numBlocks(); ++g)
        h.update64(layout.blockSize(g));
    return h.digest();
}

/** Everything a page-mode search reports that ground truth decides. */
void
expectSameAudit(const SearchResult& a, const SearchResult& b,
                const program::Program& prog)
{
    EXPECT_EQ(addressMapHash(a.layout, prog),
              addressMapHash(b.layout, prog));
    EXPECT_EQ(a.best_score, b.best_score);
    EXPECT_EQ(a.epoch_best, b.epoch_best);
    EXPECT_EQ(a.seed_misses, b.seed_misses);
    EXPECT_EQ(a.best_misses, b.best_misses);
    EXPECT_EQ(a.seed_itlb4k, b.seed_itlb4k);
    EXPECT_EQ(a.best_itlb4k, b.best_itlb4k);
    EXPECT_EQ(a.seed_itlb2m, b.seed_itlb2m);
    EXPECT_EQ(a.best_itlb2m, b.best_itlb2m);
    EXPECT_EQ(a.seed_objective, b.seed_objective);
    EXPECT_EQ(a.best_objective, b.best_objective);
    EXPECT_EQ(a.sim_evals, b.sim_evals);
    EXPECT_EQ(a.sim_cache_hits, b.sim_cache_hits);
    ASSERT_EQ(a.rerank_curve.size(), b.rerank_curve.size());
    for (std::size_t i = 0; i < a.rerank_curve.size(); ++i) {
        EXPECT_EQ(a.rerank_curve[i].epoch, b.rerank_curve[i].epoch);
        EXPECT_EQ(a.rerank_curve[i].misses, b.rerank_curve[i].misses);
        EXPECT_EQ(a.rerank_curve[i].itlb4k, b.rerank_curve[i].itlb4k);
        EXPECT_EQ(a.rerank_curve[i].objective,
                  b.rerank_curve[i].objective);
    }
}

void
expectRerankCurve(const SearchResult& r,
                  const std::vector<SearchResult::RerankPoint>& golden)
{
    ASSERT_EQ(r.rerank_curve.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(r.rerank_curve[i].epoch, golden[i].epoch);
        EXPECT_EQ(r.rerank_curve[i].misses, golden[i].misses);
        EXPECT_EQ(r.rerank_curve[i].itlb4k, golden[i].itlb4k);
        EXPECT_EQ(r.rerank_curve[i].objective, golden[i].objective);
    }
}

TEST(LayoutSearch, PageModeIsByteIdenticalAcrossPoolWidths)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;

    const SearchResult serial = searchLayout(
        w.image.prog, w.prof, popts, pageBudget(42), &w.buf);
    ASSERT_FALSE(serial.rerank_curve.empty());
    for (std::size_t width : {2u, 4u}) {
        SCOPED_TRACE(width);
        support::ThreadPool pool(width);
        const SearchResult pooled =
            searchLayout(w.image.prog, w.prof, popts, pageBudget(42),
                         &w.buf, nullptr, &pool);
        expectSameAudit(serial, pooled, w.image.prog);
    }
}

/**
 * Golden of one page-mode search with re-rank on, recorded when ground
 * truth was still priced by resolving each candidate and replaying it
 * through the i-cache and iTLB engines. Any change to how candidates
 * are priced must reproduce it byte for byte.
 */
TEST(LayoutSearch, PageModeSearchMatchesRecordedGolden)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    const SearchResult r = searchLayout(w.image.prog, w.prof, popts,
                                        pageBudget(42), &w.buf);

    EXPECT_EQ(addressMapHash(r.layout, w.image.prog),
              1931470605162640707ULL);
    EXPECT_EQ(r.seed_misses, 3577u);
    EXPECT_EQ(r.best_misses, 3533u);
    EXPECT_EQ(r.seed_itlb4k, 1031u);
    EXPECT_EQ(r.best_itlb4k, 1030u);
    EXPECT_EQ(r.seed_itlb2m, 1u);
    EXPECT_EQ(r.best_itlb2m, 1u);
    EXPECT_EQ(r.seed_objective, 5649.0);
    EXPECT_EQ(r.best_objective, 5603.0);
    EXPECT_EQ(r.sim_evals, 18u);
    EXPECT_EQ(r.sim_cache_hits, 32u);
    expectRerankCurve(r, {
                             {3, 3572, 1025, 5632.0},
                             {6, 3572, 1025, 5632.0},
                             {9, 3572, 1025, 5632.0},
                             {12, 3533, 1030, 5603.0},
                         });
    // Proxy scores, bit-exact: the ExtTSP arithmetic and its edge
    // order are part of what the golden pins.
    EXPECT_EQ(r.seed_score, 0x1.2ed128e147ac7p+14);
    EXPECT_EQ(r.best_score, 0x1.32ce073333314p+14);
    EXPECT_EQ(r.epoch_best,
              std::vector<double>(12, 0x1.32ce073333314p+14));
}

/**
 * Golden of one flat-mode search (no page terms, no structured
 * candidates) with re-rank on. Here the annealer itself improves the
 * proxy epoch by epoch, so the golden pins the scores it climbed
 * through as well as the ground-truth outcome.
 */
TEST(LayoutSearch, FlatModeSearchMatchesRecordedGolden)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchOptions sopts = pageBudget(42);
    sopts.page.enabled = false;
    const SearchResult r =
        searchLayout(w.image.prog, w.prof, popts, sopts, &w.buf);

    EXPECT_EQ(addressMapHash(r.layout, w.image.prog),
              9564061404385060407ULL);
    EXPECT_EQ(r.seed_misses, 3577u);
    EXPECT_EQ(r.best_misses, 3549u);
    EXPECT_EQ(r.seed_objective, 3577.0);
    EXPECT_EQ(r.best_objective, 3549.0);
    EXPECT_EQ(r.sim_evals, 14u);
    EXPECT_EQ(r.sim_cache_hits, 13u);
    expectRerankCurve(r, {
                             {3, 3577, 0, 3577.0},
                             {6, 3575, 0, 3575.0},
                             {9, 3549, 0, 3549.0},
                             {12, 3549, 0, 3549.0},
                         });
    EXPECT_EQ(r.seed_score, 0x1.2ed128e147ac7p+14);
    EXPECT_EQ(r.best_score, 0x1.2f262bfffffe5p+14);
    const std::vector<double> epoch_best = {
        0x1.2ed128e147ac7p+14, 0x1.2ee75ea3d708ap+14,
        0x1.2ee75ea3d708ap+14, 0x1.2ee75ea3d708ap+14,
        0x1.2ee75ea3d708ap+14, 0x1.2ee75ea3d708ap+14,
        0x1.2ee75ea3d708ap+14, 0x1.2ee75ea3d708ap+14,
        0x1.2f245f333331bp+14, 0x1.2f245f333331bp+14,
        0x1.2f245f333331bp+14, 0x1.2f262bfffffe5p+14,
    };
    EXPECT_EQ(r.epoch_best, epoch_best);
}

/** Golden of the flat-mode search above under first-improvement hill
 *  climbing, the acceptance rule no other test drives. */
TEST(LayoutSearch, HillClimbSearchMatchesRecordedGolden)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchOptions sopts = pageBudget(42);
    sopts.page.enabled = false;
    sopts.algorithm = SearchOptions::Algorithm::HillClimb;
    const SearchResult r =
        searchLayout(w.image.prog, w.prof, popts, sopts, &w.buf);

    EXPECT_EQ(addressMapHash(r.layout, w.image.prog),
              10388897944867955831ULL);
    EXPECT_EQ(r.seed_score, 0x1.2ed128e147ac7p+14);
    EXPECT_EQ(r.best_score, 0x1.2f29f15c28f44p+14);
    EXPECT_EQ(r.sim_evals, 15u);
    EXPECT_EQ(r.sim_cache_hits, 14u);
    expectRerankCurve(r, {
                             {3, 3577, 0, 3577.0},
                             {6, 3575, 0, 3575.0},
                             {9, 3569, 0, 3569.0},
                             {12, 3561, 0, 3561.0},
                         });
    const std::vector<double> epoch_best = {
        0x1.2ed128e147ac7p+14, 0x1.2ee75ea3d708ap+14,
        0x1.2ee75ea3d708ap+14, 0x1.2ee75ea3d708ap+14,
        0x1.2ee75ea3d708ap+14, 0x1.2ee75ea3d708ap+14,
        0x1.2ee75ea3d708ap+14, 0x1.2ee75ea3d708ap+14,
        0x1.2f1b50cccccb3p+14, 0x1.2f21be28f5c1p+14,
        0x1.2f29f15c28f44p+14, 0x1.2f29f15c28f44p+14,
    };
    EXPECT_EQ(r.epoch_best, epoch_best);
}

TEST(LayoutSearch, ProgressIsMonotoneAndNeverBelowSeed)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchOptions sopts = smallBudget(7);
    SearchResult r =
        searchLayout(w.image.prog, w.prof, popts, sopts, &w.buf);

    ASSERT_EQ(r.epoch_best.size(),
              static_cast<std::size_t>(sopts.epochs));
    for (std::size_t i = 1; i < r.epoch_best.size(); ++i)
        EXPECT_GE(r.epoch_best[i], r.epoch_best[i - 1]);
    EXPECT_GE(r.best_score, r.seed_score);
    EXPECT_EQ(r.best_score, r.epoch_best.back());
    // Ground truth: the champion is never worse than the greedy seed
    // on the re-rank configuration (the seed competes in every
    // re-rank), and the re-rank curve never climbs.
    EXPECT_LE(r.best_misses, r.seed_misses);
    ASSERT_FALSE(r.rerank_curve.empty());
    for (std::size_t i = 1; i < r.rerank_curve.size(); ++i)
        EXPECT_LE(r.rerank_curve[i].misses,
                  r.rerank_curve[i - 1].misses);
    EXPECT_EQ(r.rerank_curve.back().misses, r.best_misses);
    EXPECT_EQ(r.proxy_evals,
              static_cast<std::uint64_t>(sopts.epochs) *
                  static_cast<std::uint64_t>(sopts.batch));
}

TEST(LayoutSearch, EmittedLayoutIsAValidPermutation)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchResult r = searchLayout(w.image.prog, w.prof, popts,
                                  smallBudget(1234), &w.buf);

    EXPECT_EQ(r.layout.validate(), "");
    // Every global block is placed exactly once.
    std::vector<int> placed(w.image.prog.numBlocks(), 0);
    for (const core::CodeSegment& seg : r.layout.segments()) {
        EXPECT_FALSE(seg.blocks.empty());
        for (program::BlockLocalId b : seg.blocks)
            ++placed[w.image.prog.globalBlockId(seg.proc, b)];
    }
    for (program::GlobalBlockId g = 0; g < w.image.prog.numBlocks(); ++g)
        EXPECT_EQ(placed[g], 1) << "block " << g;
}

TEST(LayoutSearch, ProxyOnlyModeNeverTouchesTheSimulator)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchResult r = searchLayout(w.image.prog, w.prof, popts,
                                  smallBudget(3)); // no trace
    EXPECT_EQ(r.sim_evals, 0u);
    EXPECT_EQ(r.best_misses, 0u);
    EXPECT_TRUE(r.rerank_curve.empty());
    EXPECT_GE(r.best_score, r.seed_score);
    EXPECT_EQ(r.layout.validate(), "");
}

TEST(LayoutSearch, ZeroEpochsReturnsTheSeedLayout)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    SearchOptions sopts = smallBudget(9);
    sopts.epochs = 0;
    SearchResult r =
        searchLayout(w.image.prog, w.prof, popts, sopts, &w.buf);
    EXPECT_EQ(r.best_score, r.seed_score);
    EXPECT_EQ(r.best_misses, r.seed_misses);
    core::PipelineOptions tight = popts;
    core::Layout greedy =
        core::buildLayout(w.image.prog, w.prof, tight);
    EXPECT_EQ(fingerprint(candidateFromLayout(r.layout)),
              fingerprint(candidateFromLayout(greedy)));
}

TEST(Perturb, OperatorsPreserveLayoutInvariants)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    core::AssignOptions aopts;
    Candidate cand = candidateFromLayout(
        core::buildLayout(w.image.prog, w.prof, popts));

    support::Pcg32 rng(99, 1);
    PerturbCounts counts;
    for (int round = 0; round < 50; ++round) {
        perturb(cand, rng, 3, &counts);
        core::Layout layout = materialize(cand, w.image.prog, aopts);
        ASSERT_EQ(layout.validate(), "") << "round " << round;
    }
    // Across 150 drawn operators, a healthy majority must have found a
    // legal application site (the image has thousands of segments).
    std::uint64_t applied = 0, noop = 0;
    for (std::size_t i = 0; i < kNumPerturbOps; ++i) {
        applied += counts.applied[i];
        noop += counts.noop[i];
    }
    EXPECT_EQ(applied + noop, 150u);
    EXPECT_GT(applied, noop);
}

TEST(Perturb, SameRngStreamGivesSameCandidates)
{
    Workload& w = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    Candidate a = candidateFromLayout(
        core::buildLayout(w.image.prog, w.prof, popts));
    Candidate b = a;
    support::Pcg32 ra(7, 3), rb(7, 3);
    perturb(a, ra, 10);
    perturb(b, rb, 10);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    // And a different stream diverges (overwhelmingly likely on a
    // many-segment image).
    Candidate c = candidateFromLayout(
        core::buildLayout(w.image.prog, w.prof, popts));
    support::Pcg32 rc(8, 3);
    perturb(c, rc, 10);
    EXPECT_NE(fingerprint(c), fingerprint(a));
}

} // namespace
} // namespace spikesim::opt
