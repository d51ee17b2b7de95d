#ifndef SPIKESIM_TESTS_TWO_IMAGE_WORKLOAD_HH
#define SPIKESIM_TESTS_TWO_IMAGE_WORKLOAD_HH

/**
 * @file
 * A test workload shared by sweep_test and soa_simd_test: a synthetic
 * app and kernel image, the app's profile, and a trace that
 * interleaves both images across kTwoImageCpus CPUs and carries data
 * events. Every other unconditional branch block of both images is
 * branch-only (one instruction), so a layout that makes such a
 * block's target its fall-through deletes the branch and leaves a
 * zero-sized block; the generator itself never emits one.
 */

#include <gtest/gtest.h>

#include "profile/profile.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"
#include "trace/trace.hh"

namespace spikesim::sim {

inline constexpr int kTwoImageCpus = 3;

/** `image` with every other unconditional branch block branch-only. */
inline synth::SyntheticProgram
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

struct TwoImageWorkload
{
    synth::SyntheticProgram app;
    synth::SyntheticProgram kern;
    profile::Profile prof;
    trace::TraceBuffer buf;

    TwoImageWorkload()
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
            ctx.cpu = static_cast<std::uint8_t>(i % kTwoImageCpus);
            app_walk.run(app.entry(entries[i % 2]), ctx, tee);
            kern_walk.run(kern.entry(entries[(i / 2) % 2]), ctx, buf);
            buf.onData(ctx, 0x80000000ULL + 64 * static_cast<unsigned>(i));
        }
    }
};

/** The one TwoImageWorkload of a test binary, built on first use. */
inline TwoImageWorkload&
twoImageWorkload()
{
    static TwoImageWorkload w;
    return w;
}

} // namespace spikesim::sim

#endif // SPIKESIM_TESTS_TWO_IMAGE_WORKLOAD_HH
