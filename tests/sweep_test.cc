/**
 * @file
 * Tests for the single-pass multi-configuration sweep engine: the LRU
 * stack-distance simulator against the set-associative reference, the
 * sweep API against per-config replay (randomized differential), and
 * the pooled (job, CPU) executor against the serial path at several
 * pool widths.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/layout.hh"
#include "core/pipeline.hh"
#include "mem/cache.hh"
#include "mem/lrustack.hh"
#include "profile/profile.hh"
#include "program/builder.hh"
#include "sim/sweep.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"

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
        SweepResult sweep = rep.icacheSweep(spec, filter);
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

/**
 * A synthetic image in which every other unconditional branch block is
 * branch-only (one instruction), so a chain+split layout that makes
 * its target the fall-through deletes the branch and leaves a
 * zero-size block.
 */
synth::SyntheticProgram
withBranchOnlyBlocks(synth::SyntheticProgram image)
{
    int seen = 0;
    for (program::ProcId p = 0; p < image.prog.numProcs(); ++p)
        for (program::BasicBlock& blk : image.prog.proc(p).blocks)
            if (blk.term == Terminator::UncondBranch && seen++ % 2 == 0)
                blk.sizeInstrs = 1;
    return image;
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

    const Replayer rep(buf, app_layout, &kern_layout);
    std::vector<std::vector<SweepResult>> runs;
    runs.push_back(runSweepJobs(buf, jobs, nullptr));
    for (int width : {1, 2, 4}) {
        support::ThreadPool pool(width);
        runs.push_back(runSweepJobs(buf, jobs, &pool));
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const SweepSpec& spec = jobs[j].spec;
        const SweepResult oracle = rep.icacheSweep(spec, jobs[j].filter);
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
    // And both must equal the direct Replayer sweep for that job.
    Replayer rep(buf, app_b, &kern_layout);
    SweepResult direct = rep.icacheSweep(spec, StreamFilter::Combined);
    for (std::uint32_t size : spec.size_bytes)
        for (std::uint32_t line : spec.line_bytes)
            for (std::uint32_t assoc : spec.assocs)
                EXPECT_EQ(serial[1].misses(size, line, assoc),
                          direct.misses(size, line, assoc));
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
    Replayer rep(buf, layout);
    SweepSpec bad;
    bad.size_bytes = {1000}; // not a multiple of line*assoc
    bad.line_bytes = {64};
    bad.assocs = {1};
    EXPECT_DEATH(rep.icacheSweep(bad, StreamFilter::AppOnly),
                 "bad sweep spec");
}

} // namespace
} // namespace spikesim::sim
