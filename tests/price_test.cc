/**
 * @file
 * Differential fuzz of the layout pricing kernel (sim/price.hh)
 * against the scalar Replayer::icache and Replayer::itlb oracles.
 * Candidates are randomly perturbed layouts (opt::perturb) of an app
 * image, materialized both tight and 4096-aligned so materialized and
 * deleted branches leave zero-sized blocks, next to a perturbed kernel
 * image. Caches are direct-mapped, 2-way and 4-way at 32/64/128B
 * lines. iTLBs have 4KB/2MB pages and 8/64 entries, fetched both at
 * the line size and at another granularity. Every stream filter runs
 * on a 3-CPU trace that also carries data events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "opt/perturb.hh"
#include "profile/profile.hh"
#include "sim/price.hh"
#include "support/rng.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"
#include "trace/trace.hh"

namespace spikesim::sim {
namespace {

constexpr int kCpus = 3;

/**
 * A synthetic image in which every other unconditional branch block is
 * branch-only (one instruction). A layout that makes such a block's
 * target its fall-through deletes the branch and leaves a zero-sized
 * block; the generator itself never emits one.
 */
synth::SyntheticProgram
withBranchOnlyBlocks(synth::SyntheticProgram image)
{
    int seen = 0;
    for (program::ProcId p = 0; p < image.prog.numProcs(); ++p)
        for (program::BasicBlock& blk : image.prog.proc(p).blocks)
            if (blk.term == program::Terminator::UncondBranch &&
                seen++ % 2 == 0)
                blk.sizeInstrs = 1;
    return image;
}

/** An app and a kernel image, the app's profile, and a trace that
 *  interleaves both images across kCpus CPUs. */
struct Workload
{
    synth::SyntheticProgram app;
    synth::SyntheticProgram kern;
    profile::Profile prof;
    trace::TraceBuffer buf;

    Workload()
        : app(withBranchOnlyBlocks(synth::buildSyntheticProgram(
              synth::SynthParams::kernelLike(5)))),
          kern(withBranchOnlyBlocks(synth::buildSyntheticProgram(
              synth::SynthParams::kernelLike(11)))),
          prof(app.prog)
    {
        EXPECT_EQ(app.prog.validate(), "");
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        trace::TeeSink tee({&rec, &buf});
        synth::CfgWalker app_walk(app.prog, trace::ImageId::App, 5);
        synth::CfgWalker kern_walk(kern.prog, trace::ImageId::Kernel, 11);
        const char* entries[] = {"sys_read", "sched_switch"};
        for (int i = 0; i < 24; ++i) {
            trace::ExecContext ctx;
            ctx.cpu = static_cast<std::uint8_t>(i % kCpus);
            app_walk.run(app.entry(entries[i % 2]), ctx, tee);
            kern_walk.run(kern.entry(entries[(i / 2) % 2]), ctx, buf);
            buf.onData(ctx, 0x80000000ULL + 64 * static_cast<unsigned>(i));
        }
    }
};

Workload&
shared()
{
    static Workload w;
    return w;
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

TEST(PriceFuzz, MatchesReplayerOraclesOnPerturbedLayouts)
{
    Workload& w = shared();
    ASSERT_EQ(w.buf.numCpus(), kCpus);
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
                    const std::uint32_t g = id & ~kKernelBlockTag;
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
                    std::vector<ITlbSpec> specs;
                    if (cs.itlb_at_line)
                        addSpecs(specs, c.line_bytes);
                    if (cs.itlb_at_other)
                        addSpecs(specs, c.line_bytes == 64 ? 32 : 64);

                    const LayoutPrice p =
                        priceLayout(stream, app, &kern, c, specs);
                    const ICacheReplayResult ic = rep.icache(c, filter);
                    EXPECT_EQ(p.icache.accesses, ic.accesses);
                    EXPECT_EQ(p.icache.misses, ic.misses);
                    ASSERT_EQ(p.itlb.size(), specs.size());
                    for (std::size_t s = 0; s < specs.size(); ++s) {
                        const ITlbReplayResult t =
                            rep.itlb(specs[s], filter);
                        EXPECT_EQ(p.itlb[s].accesses, t.accesses)
                            << "spec " << s;
                        EXPECT_EQ(p.itlb[s].misses, t.misses)
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

TEST(PriceFuzz, BlockStreamKeepsEachCpusFilteredRefsInTraceOrder)
{
    Workload& w = shared();
    for (StreamFilter filter : {StreamFilter::AppOnly,
                                StreamFilter::KernelOnly,
                                StreamFilter::Combined}) {
        const BlockStream stream = buildBlockStream(w.buf, filter);
        ASSERT_EQ(stream.num_cpus, kCpus);
        std::vector<std::vector<std::uint32_t>> want(kCpus);
        std::uint32_t app_blocks = 0, kernel_blocks = 0;
        for (const trace::TraceEvent& e : w.buf.events()) {
            if (!wantImage(filter, e.image))
                continue;
            const bool kernel = e.image == trace::ImageId::Kernel;
            (kernel ? kernel_blocks : app_blocks) = std::max(
                kernel ? kernel_blocks : app_blocks, e.block + 1);
            want[e.cpu].push_back(kernel ? e.block | kKernelBlockTag
                                         : e.block);
        }
        for (int c = 0; c < kCpus; ++c) {
            const auto [b, e] = stream.cpuRange(c);
            EXPECT_EQ(std::vector<std::uint32_t>(stream.ids.begin() + b,
                                                 stream.ids.begin() + e),
                      want[c]);
        }
        EXPECT_EQ(stream.ids.capacity(), stream.ids.size());
        EXPECT_EQ(stream.app_blocks, app_blocks);
        EXPECT_EQ(stream.kernel_blocks, kernel_blocks);
    }
}

} // namespace
} // namespace spikesim::sim
