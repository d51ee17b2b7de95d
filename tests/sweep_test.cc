/**
 * @file
 * Tests for the single-pass multi-configuration sweep engine: the LRU
 * stack-distance simulator against the set-associative reference, the
 * sweep API against per-config replay (randomized differential), the
 * pooled (job, CPU) executor against the serial path at several pool
 * widths, and the sweep's iTLB specs:
 *
 *  - SweepFuzz: the layout search's pricing path (sweepStream, one
 *    cache plus iTLB specs on a prebuilt block stream) against the
 *    scalar Replayer::icache and Replayer::itlb oracles. Candidates are
 *    randomly perturbed layouts (opt::perturb) of an app image,
 *    materialized both tight and 4096-aligned so materialized and
 *    deleted branches leave zero-sized blocks, next to a perturbed
 *    kernel image. Caches are direct-mapped, 2-way and 4-way at
 *    32/64/128B lines. iTLBs have 4KB/2MB pages and 8/64 entries,
 *    fetched both at the line size and at another granularity. Every
 *    stream filter runs on a 3-CPU trace that also carries data
 *    events.
 *  - An iTLB-only spec through runSweepJobs at several pool widths,
 *    and the specs check() and the executor reject.
 *  - Interference: the sweep-backed sim::replayICache (victim owners
 *    per direct-mapped slot and per LRU-stack entry) against
 *    Replayer::icache's accesses, misses, app/kernel split and
 *    interference matrix, on the same workload with zero-sized
 *    blocks, every filter, DM/2-way/4-way at 32/64/128B and pool
 *    widths 0/1/3; the kernel image also shares the app's addresses,
 *    so a line can be filled by either stream. An empty config column
 *    runs no sweep job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/layout.hh"
#include "core/pipeline.hh"
#include "mem/cache.hh"
#include "mem/lrustack.hh"
#include "obs/registry.hh"
#include "opt/perturb.hh"
#include "profile/profile.hh"
#include "program/builder.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"
#include "two_image_workload.hh"

namespace spikesim::sim {
namespace {

using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

TEST(LruStack, ColdMissesThenInclusionHits)
{
    mem::LruStackSim sim(4, 4);
    // Four distinct lines mapping to the same set.
    for (std::uint64_t i = 0; i < 4; ++i)
        sim.access(i * 4);
    EXPECT_EQ(sim.accesses(), 4u);
    EXPECT_EQ(sim.missesAt(1), 4u); // all cold
    EXPECT_EQ(sim.missesAt(4), 4u);
    // Re-touch in reverse: line 12 is MRU (distance 0), line 0 is at
    // distance 3 -- a hit only with assoc 4.
    sim.access(12);
    sim.access(0);
    EXPECT_EQ(sim.distanceCount(0), 1u);
    EXPECT_EQ(sim.distanceCount(3), 1u);
    EXPECT_EQ(sim.missesAt(1), 5u); // line 0 at distance 3 misses DM
    EXPECT_EQ(sim.missesAt(4), 4u); // ... but hits 4-way
    // Inclusion: hits can only grow with associativity.
    for (std::uint32_t a = 2; a <= 4; ++a)
        EXPECT_GE(sim.hitsUpTo(a), sim.hitsUpTo(a - 1));
}

TEST(LruStack, MatchesSetAssocCacheOnRandomStream)
{
    // One truncated stack answers every associativity; each answer must
    // equal a full SetAssocCache simulation of that geometry.
    const std::uint32_t sets = 64;
    const std::uint32_t line = 64;
    const std::vector<std::uint32_t> assocs{1, 2, 4, 8};
    mem::LruStackSim sim(sets, 8);
    std::vector<mem::SetAssocCache> caches;
    for (std::uint32_t a : assocs)
        caches.emplace_back(mem::CacheConfig{sets * line * a, line, a});

    support::Pcg32 rng(123);
    std::uint64_t addr = 0;
    for (int i = 0; i < 20000; ++i) {
        // Mostly-sequential walk with occasional far jumps, like an
        // instruction stream.
        if (rng.nextBool(0.1))
            addr = static_cast<std::uint64_t>(rng.nextBounded(1 << 20));
        else
            addr += rng.nextBounded(2 * line);
        std::uint64_t ln = addr / line;
        sim.access(ln);
        for (auto& c : caches)
            c.access(ln * line, mem::Owner::App);
    }
    for (std::size_t i = 0; i < assocs.size(); ++i) {
        EXPECT_EQ(sim.missesAt(assocs[i]), caches[i].misses())
            << "assoc " << assocs[i];
        EXPECT_EQ(sim.hitsUpTo(assocs[i]), caches[i].hits())
            << "assoc " << assocs[i];
    }
}

TEST(SweepSpec, CheckRejectsBadGrids)
{
    SweepSpec empty;
    EXPECT_NE(empty.check(), "");

    SweepSpec bad_line;
    bad_line.size_bytes = {64 * 1024};
    bad_line.line_bytes = {48}; // not a power of two
    EXPECT_NE(bad_line.check(), "");

    SweepSpec too_small;
    too_small.size_bytes = {1024};
    too_small.line_bytes = {256};
    too_small.assocs = {8}; // 1KB < 256B * 8
    EXPECT_NE(too_small.check(), "");

    SweepSpec ok;
    ok.size_bytes = {8 * 1024, 64 * 1024};
    ok.line_bytes = {32, 128};
    ok.assocs = {1, 4};
    EXPECT_EQ(ok.check(), "");
    EXPECT_EQ(ok.numConfigs(), 8u);

    // iTLB specs: an empty grid is fine beside them, a half grid is not,
    // and each spec needs entries and power-of-two page/fetch sizes.
    SweepSpec tlb_only;
    tlb_only.itlb = {{64, 4096, 64}};
    EXPECT_EQ(tlb_only.check(), "");
    EXPECT_EQ(tlb_only.numConfigs(), 0u);
    SweepSpec half_grid = tlb_only;
    half_grid.line_bytes = {64};
    EXPECT_NE(half_grid.check(), "");
    SweepSpec with_grid = ok;
    with_grid.itlb = {{8, 2u * 1024 * 1024, 32}, {64, 4096, 128}};
    EXPECT_EQ(with_grid.check(), "");
    for (const ITlbSpec& bad : {ITlbSpec{0, 4096, 64},
                                ITlbSpec{64, 3000, 64},
                                ITlbSpec{64, 4096, 48},
                                ITlbSpec{64, 0, 64}}) {
        SweepSpec spec = tlb_only;
        spec.itlb.push_back(bad);
        EXPECT_NE(spec.check(), "")
            << bad.entries << " " << bad.page_bytes << " "
            << bad.fetch_bytes;
    }
}

/** A program of `blocks` random-sized blocks (paired into procs). */
Program
randomProgram(const char* name, int blocks, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    Program p(name);
    for (int i = 0; i < blocks; i += 2) {
        ProcedureBuilder b("p" + std::to_string(i));
        auto a = b.addBlock(1 + rng.nextBounded(32),
                            Terminator::FallThrough);
        auto r = b.addBlock(1 + rng.nextBounded(32), Terminator::Return);
        b.addEdge(a, r, EdgeKind::FallThrough);
        p.addProcedure(b.build());
    }
    EXPECT_EQ(p.validate(), "");
    return p;
}

/**
 * A trace over `blocks` block ids with loop-like locality: mostly
 * nearby re-executions (cache hits at small stack distances), with
 * occasional far jumps, spread across CPUs and both images, plus some
 * data refs the instruction sweep must ignore.
 */
trace::TraceBuffer
randomTrace(int blocks, int events, int num_cpus, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    trace::TraceBuffer buf;
    std::vector<trace::ExecContext> ctx(num_cpus);
    std::vector<std::uint32_t> cur(num_cpus, 0);
    for (int c = 0; c < num_cpus; ++c)
        ctx[c].cpu = c;
    for (int i = 0; i < events; ++i) {
        int c = static_cast<int>(
            rng.nextBounded(static_cast<std::uint32_t>(num_cpus)));
        if (rng.nextBool(0.15))
            cur[c] = rng.nextBounded(static_cast<std::uint32_t>(blocks));
        else
            cur[c] = static_cast<std::uint32_t>(
                (cur[c] + 1) % static_cast<std::uint32_t>(blocks));
        trace::ImageId image = rng.nextBool(0.3)
                                   ? trace::ImageId::Kernel
                                   : trace::ImageId::App;
        buf.onBlock(ctx[c], image, cur[c]);
        if (rng.nextBool(0.05))
            buf.onData(ctx[c], 0x80000000ULL + rng.nextBounded(1 << 16));
    }
    return buf;
}

/**
 * The randomized differential test from the issue: the sweep engine
 * must reproduce per-config replay miss counts exactly over a grid of
 * sizes, line sizes and associativities, for every stream filter, on a
 * multi-CPU trace with app + kernel images and data noise.
 */
TEST(Sweep, MatchesPerConfigReplayRandomized)
{
    const int kBlocks = 120;
    Program app = randomProgram("app", kBlocks, 11);
    Program kern = randomProgram("kern", kBlocks, 22);
    core::Layout app_layout = core::baselineLayout(app, 0);
    core::Layout kern_layout = core::baselineLayout(kern, 0x400000);
    trace::TraceBuffer buf = randomTrace(kBlocks, 20000, 3, 33);
    Replayer rep(buf, app_layout, &kern_layout);
    ASSERT_EQ(rep.numCpus(), 3);

    SweepSpec spec;
    for (std::uint32_t kb : {8, 32, 128, 512})
        spec.size_bytes.push_back(kb * 1024);
    spec.line_bytes = {16, 64, 256};
    spec.assocs = {1, 2, 4, 8};
    ASSERT_EQ(spec.check(), "");

    for (StreamFilter filter : {StreamFilter::AppOnly,
                                StreamFilter::KernelOnly,
                                StreamFilter::Combined}) {
        const SweepResult sweep =
            runSweepJobs(buf, {{&app_layout, &kern_layout, filter, spec,
                                "sweep"}})
                .front();
        for (std::uint32_t size : spec.size_bytes) {
            for (std::uint32_t line : spec.line_bytes) {
                for (std::uint32_t assoc : spec.assocs) {
                    auto r = rep.icache({size, line, assoc}, filter);
                    EXPECT_EQ(sweep.misses(size, line, assoc), r.misses)
                        << mem::CacheConfig{size, line, assoc}.label()
                        << " filter "
                        << static_cast<int>(filter);
                    EXPECT_EQ(sweep.accesses(line), r.accesses);
                }
            }
        }
    }
}

TEST(Sweep, PoolWidthsAgree)
{
    // Chain+split layouts of an app and a kernel image, profiled on a
    // 3-CPU trace that interleaves both images plus data events.
    synth::SyntheticProgram app = withBranchOnlyBlocks(
        synth::buildSyntheticProgram(synth::SynthParams::kernelLike(5)));
    synth::SyntheticProgram kern = withBranchOnlyBlocks(
        synth::buildSyntheticProgram(synth::SynthParams::kernelLike(11)));
    profile::Profile app_prof(app.prog);
    profile::Profile kern_prof(kern.prog);
    trace::TraceBuffer buf;
    {
        profile::ProfileRecorder app_rec(trace::ImageId::App, app_prof);
        profile::ProfileRecorder kern_rec(trace::ImageId::Kernel,
                                          kern_prof);
        trace::TeeSink app_tee({&app_rec, &buf});
        trace::TeeSink kern_tee({&kern_rec, &buf});
        synth::CfgWalker app_walk(app.prog, trace::ImageId::App, 5);
        synth::CfgWalker kern_walk(kern.prog, trace::ImageId::Kernel, 11);
        const char* entries[] = {"sys_read", "sched_switch"};
        for (int i = 0; i < 12; ++i) {
            trace::ExecContext ctx;
            ctx.cpu = static_cast<std::uint8_t>(i % 3);
            app_walk.run(app.entry(entries[i % 2]), ctx, app_tee);
            kern_walk.run(kern.entry(entries[(i / 2) % 2]), ctx,
                          kern_tee);
            buf.onData(ctx, 0x80000000ULL + 64 * static_cast<unsigned>(i));
        }
    }
    ASSERT_EQ(buf.numCpus(), 3);
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::ChainSplit;
    const core::Layout app_layout =
        core::buildLayout(app.prog, app_prof, popts);
    popts.text_base = 0x400000;
    const core::Layout kern_layout =
        core::buildLayout(kern.prog, kern_prof, popts);

    std::uint64_t zero_size_refs = 0;
    for (const trace::TraceEvent& e : buf.events()) {
        if (e.image == trace::ImageId::App)
            zero_size_refs += app_layout.blockSize(e.block) == 0;
        else if (e.image == trace::ImageId::Kernel)
            zero_size_refs += kern_layout.blockSize(e.block) == 0;
    }
    ASSERT_GT(zero_size_refs, 0u);

    std::vector<SweepJob> jobs;
    for (StreamFilter filter : {StreamFilter::AppOnly,
                                StreamFilter::KernelOnly,
                                StreamFilter::Combined}) {
        for (std::vector<std::uint32_t> assocs :
             {std::vector<std::uint32_t>{1},
              std::vector<std::uint32_t>{1, 4}}) {
            SweepSpec spec;
            spec.size_bytes = {4 * 1024, 16 * 1024, 64 * 1024};
            spec.line_bytes = {16, 64, 256};
            spec.assocs = assocs;
            jobs.push_back({&app_layout, &kern_layout, filter, spec,
                            std::to_string(static_cast<int>(filter)) +
                                "/" + std::to_string(assocs.size())});
        }
    }

    // References: the serial run, itself checked against the
    // per-config Replayer oracle below.
    const Replayer rep(buf, app_layout, &kern_layout);
    const std::vector<SweepResult> serial = runSweepJobs(buf, jobs, nullptr);
    std::vector<std::vector<SweepResult>> runs;
    for (int width : {1, 2, 4}) {
        support::ThreadPool pool(width);
        runs.push_back(runSweepJobs(buf, jobs, &pool));
    }
    ASSERT_EQ(serial.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const SweepSpec& spec = jobs[j].spec;
        const SweepResult& oracle = serial[j];
        for (std::size_t r = 0; r < runs.size(); ++r) {
            ASSERT_EQ(runs[r].size(), jobs.size());
            for (std::uint32_t size : spec.size_bytes) {
                for (std::uint32_t line : spec.line_bytes) {
                    EXPECT_EQ(runs[r][j].accesses(line),
                              oracle.accesses(line))
                        << jobs[j].label << " run " << r;
                    for (std::uint32_t assoc : spec.assocs)
                        EXPECT_EQ(runs[r][j].misses(size, line, assoc),
                                  oracle.misses(size, line, assoc))
                            << jobs[j].label << " run " << r << " "
                            << mem::CacheConfig{size, line, assoc}.label();
                }
            }
        }
        // The zero-size skip must also match the per-config oracle.
        for (std::uint32_t size : spec.size_bytes)
            for (std::uint32_t line : spec.line_bytes)
                for (std::uint32_t assoc : spec.assocs)
                    EXPECT_EQ(oracle.misses(size, line, assoc),
                              rep.icache({size, line, assoc},
                                         jobs[j].filter)
                                  .misses)
                        << jobs[j].label << " "
                        << mem::CacheConfig{size, line, assoc}.label();
    }
}

TEST(Sweep, ParallelJobsMatchSerial)
{
    Program app = randomProgram("app", 80, 7);
    Program kern = randomProgram("kern", 80, 8);
    core::Layout app_a = core::baselineLayout(app, 0);
    core::Layout app_b = core::baselineLayout(app, 0x1000);
    core::Layout kern_layout = core::baselineLayout(kern, 0x400000);
    trace::TraceBuffer buf = randomTrace(80, 8000, 2, 9);

    SweepSpec spec;
    spec.size_bytes = {8 * 1024, 32 * 1024, 128 * 1024};
    spec.line_bytes = {16, 64, 128};
    spec.assocs = {1, 4};
    std::vector<SweepJob> jobs{
        {&app_a, &kern_layout, StreamFilter::AppOnly, spec, "a"},
        {&app_b, &kern_layout, StreamFilter::Combined, spec, "b"},
        {&app_a, &kern_layout, StreamFilter::KernelOnly, spec, "k"},
    };
    std::vector<SweepResult> serial = runSweepJobs(buf, jobs, nullptr);
    support::ThreadPool pool(3);
    std::vector<SweepResult> parallel = runSweepJobs(buf, jobs, &pool);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        for (std::uint32_t size : spec.size_bytes) {
            for (std::uint32_t line : spec.line_bytes) {
                for (std::uint32_t assoc : spec.assocs) {
                    EXPECT_EQ(serial[j].misses(size, line, assoc),
                              parallel[j].misses(size, line, assoc))
                        << jobs[j].label;
                    EXPECT_EQ(serial[j].accesses(line),
                              parallel[j].accesses(line));
                }
            }
        }
    }
    // And both must equal the per-config Replayer oracle for that job.
    Replayer rep(buf, app_b, &kern_layout);
    for (std::uint32_t size : spec.size_bytes)
        for (std::uint32_t line : spec.line_bytes)
            for (std::uint32_t assoc : spec.assocs)
                EXPECT_EQ(serial[1].misses(size, line, assoc),
                          rep.icache({size, line, assoc},
                                     StreamFilter::Combined)
                              .misses);
}

/** Perturbed candidate layouts of one image. */
std::vector<core::Layout>
perturbedLayouts(const program::Program& prog, opt::Candidate cand,
                 std::uint32_t align, std::uint64_t text_base,
                 std::uint64_t seed, int count)
{
    core::AssignOptions aopts;
    aopts.text_base = text_base;
    aopts.segment_align = align;
    support::Pcg32 rng(seed, align);
    std::vector<core::Layout> out;
    out.push_back(opt::materialize(cand, prog, aopts));
    for (int i = 1; i < count; ++i) {
        opt::perturb(cand, rng, 1 + static_cast<int>(rng.nextBounded(6)));
        out.push_back(opt::materialize(cand, prog, aopts));
    }
    return out;
}

/** The iTLB specs priced alongside one cache: 4KB/2MB pages at 8/64
 *  entries, fetched at `fetch`. */
void
addSpecs(std::vector<ITlbSpec>& specs, std::uint32_t fetch)
{
    for (std::uint32_t page : {4096u, 2u * 1024 * 1024})
        for (std::uint32_t entries : {8u, 64u})
            specs.push_back({entries, page, fetch});
}

TEST(SweepFuzz, MatchesReplayerOraclesOnPerturbedLayouts)
{
    TwoImageWorkload& w = twoImageWorkload();
    ASSERT_EQ(w.buf.numCpus(), kTwoImageCpus);
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    const opt::Candidate app_seed = opt::candidateFromLayout(
        core::buildLayout(w.app.prog, w.prof, popts));
    const opt::Candidate kern_seed = opt::candidateFromLayout(
        core::baselineLayout(w.kern.prog, 0x400000));

    // Each cache is priced with iTLBs fetched at its line size, at
    // another granularity, both, or none.
    struct Case
    {
        mem::CacheConfig cache;
        bool itlb_at_line;
        bool itlb_at_other;
    };
    const std::vector<Case> cases = {
        {{8 * 1024, 32, 1}, true, true},
        {{16 * 1024, 64, 2}, false, true},
        {{64 * 1024, 128, 4}, true, false},
        {{4 * 1024, 128, 1}, true, true},
        {{8 * 1024, 32, 4}, false, true},
        {{32 * 1024, 64, 1}, false, false},
    };
    const StreamFilter filters[] = {StreamFilter::AppOnly,
                                    StreamFilter::KernelOnly,
                                    StreamFilter::Combined};
    std::uint64_t checked = 0;
    for (std::uint32_t align : {4u, 4096u}) {
        std::uint64_t zero_sized_refs = 0;
        const std::vector<core::Layout> apps = perturbedLayouts(
            w.app.prog, app_seed, align, 0x10000000ULL, 17, 4);
        const std::vector<core::Layout> kerns = perturbedLayouts(
            w.kern.prog, kern_seed, align, 0x400000, 29, 4);
        for (StreamFilter filter : filters) {
            const BlockStream stream = buildBlockStream(w.buf, filter);
            for (std::size_t li = 0; li < apps.size(); ++li) {
                const core::Layout& app = apps[li];
                const core::Layout& kern = kerns[li];
                for (std::uint32_t id : stream.ids) {
                    const bool kernel = (id & kKernelBlockTag) != 0;
                    const std::uint32_t g = id & kBlockIdMask;
                    zero_sized_refs +=
                        (kernel ? kern : app).blockSize(g) == 0;
                }
                const Replayer rep(w.buf, app, &kern);
                for (const Case& cs : cases) {
                    const mem::CacheConfig& c = cs.cache;
                    SCOPED_TRACE("align " + std::to_string(align) +
                                 " filter " +
                                 std::to_string(static_cast<int>(filter)) +
                                 " layout " + std::to_string(li) + " " +
                                 c.label());
                    SweepSpec spec;
                    spec.size_bytes = {c.size_bytes};
                    spec.line_bytes = {c.line_bytes};
                    spec.assocs = {c.assoc};
                    if (cs.itlb_at_line)
                        addSpecs(spec.itlb, c.line_bytes);
                    if (cs.itlb_at_other)
                        addSpecs(spec.itlb, c.line_bytes == 64 ? 32 : 64);

                    const SweepResult r = sweepStream(
                        stream, imageTables(&app, stream.app_blocks),
                        imageTables(&kern, stream.kernel_blocks), spec);
                    const ICacheReplayResult ic = rep.icache(c, filter);
                    EXPECT_EQ(r.accesses(c.line_bytes), ic.accesses);
                    EXPECT_EQ(r.misses(c), ic.misses);
                    ASSERT_EQ(r.itlb().size(), spec.itlb.size());
                    for (std::size_t s = 0; s < spec.itlb.size(); ++s) {
                        const ITlbReplayResult t =
                            rep.itlb(spec.itlb[s], filter);
                        EXPECT_EQ(r.itlb()[s].accesses, t.accesses)
                            << "spec " << s;
                        EXPECT_EQ(r.itlb()[s].misses, t.misses)
                            << "spec " << s;
                    }
                    ++checked;
                }
            }
        }
        // The candidates must exercise the zero-sized-block skip.
        EXPECT_GT(zero_sized_refs, 0u) << "align " << align;
    }
    EXPECT_EQ(checked, 2u * 3u * 4u * cases.size());
}

TEST(Sweep, ITlbOnlySpecMatchesOracleAtEveryPoolWidth)
{
    TwoImageWorkload& w = twoImageWorkload();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    const core::Layout app = core::buildLayout(w.app.prog, w.prof, popts);
    const core::Layout kern = core::baselineLayout(w.kern.prog, 0x400000);
    const Replayer rep(w.buf, app, &kern);

    std::vector<SweepJob> jobs;
    for (StreamFilter filter : {StreamFilter::AppOnly,
                                StreamFilter::KernelOnly,
                                StreamFilter::Combined}) {
        SweepJob job{&app, &kern, filter, {}, "itlb"};
        addSpecs(job.spec.itlb, 64);
        addSpecs(job.spec.itlb, 16);
        jobs.push_back(job);
    }
    const obs::Counter& sweep_jobs = obs::counter("sim.sweep.jobs");
    for (int width : {0, 1, 3}) {
        std::optional<support::ThreadPool> pool;
        if (width > 0)
            pool.emplace(width);
        const std::uint64_t before = sweep_jobs.value();
        const std::vector<SweepResult> out =
            runSweepJobs(w.buf, jobs, pool ? &*pool : nullptr);
        EXPECT_EQ(sweep_jobs.value() - before, jobs.size());
        ASSERT_EQ(out.size(), jobs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const std::vector<ITlbSpec>& specs = jobs[j].spec.itlb;
            ASSERT_EQ(out[j].itlb().size(), specs.size());
            for (std::size_t s = 0; s < specs.size(); ++s) {
                const ITlbReplayResult t = rep.itlb(specs[s], jobs[j].filter);
                EXPECT_EQ(out[j].itlb()[s].accesses, t.accesses)
                    << "width " << width << " job " << j << " spec " << s;
                EXPECT_EQ(out[j].itlb()[s].misses, t.misses)
                    << "width " << width << " job " << j << " spec " << s;
            }
        }
    }
}

TEST(SweepInterference, ReplayICacheMatchesOracleAtEveryPoolWidth)
{
    TwoImageWorkload& w = twoImageWorkload();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    const core::Layout app = core::buildLayout(w.app.prog, w.prof, popts);
    // A kernel at its own base, and one laid over the app's text: there
    // a line can be filled by one stream and hit or refilled by the
    // other, so owners must follow fills per associativity.
    const core::Layout kern_apart =
        core::baselineLayout(w.kern.prog, 0x400000);
    const core::Layout kern_shared =
        core::baselineLayout(w.kern.prog, app.textBase());

    std::vector<mem::CacheConfig> configs;
    for (std::uint32_t size : {2u * 1024, 16u * 1024})
        for (std::uint32_t line : {32u, 64u, 128u})
            for (std::uint32_t assoc : {1u, 2u, 4u})
                configs.push_back({size, line, assoc});

    const obs::Counter& sweep_jobs = obs::counter("sim.sweep.jobs");
    std::uint64_t zero_sized_refs = 0;
    std::uint64_t kernel_victims = 0;
    for (const core::Layout* kern : {&kern_apart, &kern_shared}) {
        const Replayer rep(w.buf, app, kern);
        for (StreamFilter filter : {StreamFilter::AppOnly,
                                    StreamFilter::KernelOnly,
                                    StreamFilter::Combined}) {
            const ResolvedTraceSoA soa = rep.resolveSoA(filter);
            zero_sized_refs += soa.instr_events - soa.size();
            std::vector<ICacheReplayResult> oracle;
            for (const mem::CacheConfig& c : configs)
                oracle.push_back(rep.icache(c, filter));
            for (int width : {0, 1, 3}) {
                std::optional<support::ThreadPool> pool;
                if (width > 0)
                    pool.emplace(width);
                const std::uint64_t jobs_before = sweep_jobs.value();
                const std::vector<ICacheReplayResult> got = replayICache(
                    soa, configs, SimdMode::Auto, pool ? &*pool : nullptr);
                // The column is one valid grid: one sweep job.
                EXPECT_EQ(sweep_jobs.value() - jobs_before, 1u);
                ASSERT_EQ(got.size(), configs.size());
                for (std::size_t i = 0; i < configs.size(); ++i) {
                    SCOPED_TRACE(
                        std::string(kern == &kern_shared ? "shared"
                                                         : "apart") +
                        " filter " +
                        std::to_string(static_cast<int>(filter)) +
                        " width " + std::to_string(width) + " " +
                        configs[i].label());
                    const ICacheReplayResult& o = oracle[i];
                    EXPECT_EQ(got[i].accesses, o.accesses);
                    EXPECT_EQ(got[i].misses, o.misses);
                    EXPECT_EQ(got[i].app_misses, o.app_misses);
                    EXPECT_EQ(got[i].kernel_misses, o.kernel_misses);
                    for (int m = 0; m < 2; ++m)
                        for (int v = 0; v < 3; ++v)
                            EXPECT_EQ(got[i].interference.counts[m][v],
                                      o.interference.counts[m][v])
                                << "cell " << m << "," << v;
                    kernel_victims += o.interference.counts[0][1];
                }
            }
        }
    }
    // The cases must exercise the zero-sized-block skip and
    // app-displaces-kernel misses.
    EXPECT_GT(zero_sized_refs, 0u);
    EXPECT_GT(kernel_victims, 0u);
}

TEST(SweepInterference, EmptyColumnRunsNoSweepJob)
{
    TwoImageWorkload& w = twoImageWorkload();
    const core::Layout app = core::baselineLayout(w.app.prog);
    const core::Layout kern = core::baselineLayout(w.kern.prog, 0x400000);
    const Replayer rep(w.buf, app, &kern);
    const ResolvedTraceSoA soa = rep.resolveSoA(StreamFilter::Combined);
    const obs::Counter& sweep_jobs = obs::counter("sim.sweep.jobs");
    const std::span<const mem::CacheConfig> none;
    support::ThreadPool pool(2);
    for (support::ThreadPool* p : {static_cast<support::ThreadPool*>(nullptr),
                                   &pool}) {
        const std::uint64_t before = sweep_jobs.value();
        for (bool interference : {false, true})
            EXPECT_TRUE(sweepColumn(soa.stream, soa.app, soa.kernel, none,
                                    interference, p)
                            .empty());
        EXPECT_TRUE(replayICache(soa, none, SimdMode::Auto, p).empty());
        EXPECT_EQ(sweep_jobs.value(), before);
    }
}

TEST(SweepInterference, SpecsForAColumnCoverItWithValidGrids)
{
    // 16KB 3-way has no whole set count, so a column mixing it with
    // 4-way configs cannot be one grid.
    const std::vector<mem::CacheConfig> configs = {
        {16 * 1024, 64, 1}, {48 * 1024, 64, 3}, {64 * 1024, 128, 4},
        {16 * 1024, 32, 2}};
    std::vector<std::size_t> spec_of;
    const std::vector<SweepSpec> specs = sweepSpecsFor(configs, spec_of);
    ASSERT_EQ(spec_of.size(), configs.size());
    EXPECT_GT(specs.size(), 1u);
    for (const SweepSpec& spec : specs)
        EXPECT_EQ(spec.check(), "");
    for (std::size_t k = 0; k < configs.size(); ++k) {
        const SweepSpec& spec = specs[spec_of[k]];
        const auto has = [](const std::vector<std::uint32_t>& dim,
                            std::uint32_t v) {
            return std::find(dim.begin(), dim.end(), v) != dim.end();
        };
        EXPECT_TRUE(has(spec.size_bytes, configs[k].size_bytes) &&
                    has(spec.line_bytes, configs[k].line_bytes) &&
                    has(spec.assocs, configs[k].assoc))
            << configs[k].label();
    }
    // A column that is one valid grid gets one spec.
    std::vector<mem::CacheConfig> grid;
    for (std::uint32_t size : {32u * 1024, 64u * 1024})
        for (std::uint32_t line : {32u, 64u})
            grid.push_back({size, line, 2});
    EXPECT_EQ(sweepSpecsFor(grid, spec_of).size(), 1u);
}

using SweepDeathTest = ::testing::Test;

TEST(SweepDeathTest, BadGeometryAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(mem::LruStackSim(48, 4), "power of two");
    EXPECT_DEATH(mem::LruStackSim(64, 0), "");
    Program app = randomProgram("app", 4, 1);
    core::Layout layout = core::baselineLayout(app, 0);
    trace::TraceBuffer buf = randomTrace(4, 10, 1, 2);
    SweepSpec bad;
    bad.size_bytes = {1000}; // not a multiple of line*assoc
    bad.line_bytes = {64};
    bad.assocs = {1};
    EXPECT_DEATH(runSweepJobs(buf, {{&layout, nullptr,
                                     StreamFilter::AppOnly, bad, "bad"}}),
                 "bad sweep spec");
}

TEST(SweepDeathTest, SpecWithoutCachesOrITlbsDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Program app = randomProgram("app", 4, 1);
    core::Layout layout = core::baselineLayout(app, 0);
    trace::TraceBuffer buf = randomTrace(4, 10, 1, 2);
    SweepSpec none;
    EXPECT_DEATH(runSweepJobs(buf, {{&layout, nullptr,
                                     StreamFilter::AppOnly, none, "none"}}),
                 "bad sweep spec \\(none\\): sweep needs a cache grid or "
                 "an iTLB spec");
    const BlockStream stream = buildBlockStream(buf, StreamFilter::AppOnly);
    EXPECT_DEATH(sweepStream(stream, imageTables(&layout, stream.app_blocks),
                             {}, none),
                 "sweep needs a cache grid or an iTLB spec");
}

TEST(SweepDeathTest, NonPowerOfTwoITlbPageDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Program app = randomProgram("app", 4, 1);
    core::Layout layout = core::baselineLayout(app, 0);
    trace::TraceBuffer buf = randomTrace(4, 10, 1, 2);
    SweepSpec spec;
    spec.itlb = {{64, 4096, 64}, {64, 6144, 64}};
    EXPECT_DEATH(runSweepJobs(buf, {{&layout, nullptr,
                                     StreamFilter::AppOnly, spec, "tlb"}}),
                 "iTLB page size 6144B is not a power of two");
}

} // namespace
} // namespace spikesim::sim
