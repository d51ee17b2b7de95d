/**
 * @file
 * Unit and differential tests for the SoA resolved trace (sim/soa.hh)
 * and the walks over it (sim/kernels_detail.hh, sim/sweep.cc):
 *
 *  - Replayer::resolveSoA, decoded ref by ref through its block
 *    tables, matches a walk of the raw trace written out in the test:
 *    every stream filter, with and without data refs, 1/2/4/8 CPUs,
 *    zero-size blocks, per-CPU and global data-ref order, and
 *    cpuRange outside the CPU range.
 *  - Every part of resolveSoA's output keeps its contract on the
 *    stream and its decoded refs alone: partitions, tags per filter,
 *    owners, run breaks, instruction bytes against instrs, and
 *    per-CPU data refs against the global data column; size(),
 *    instrs and instr_events against a raw-trace count.
 *  - The batched ref decoder on zero-sized blocks across many batches:
 *    the i-cache (sweep) and sequence (shard) walks match their
 *    oracles under AppOnly and KernelOnly, with and without data;
 *    sim.replay.refs counts the refs a shard replays, and
 *    sim.sweep.streamed_refs the ids a sweep job streams.
 *  - buildBlockStream: each CPU's filtered refs in trace order, with
 *    run-break tags and the image block counts, on a two-image
 *    synthetic trace; a zero-sized block after a filtered-out kernel
 *    run carries the run break to the next ref; data refs keep global
 *    order under AppOnly and Combined (the coherence pass agrees with
 *    the oracle); an id that reaches the tag bits dies.
 *  - ColumnAlloc keeps a column's data as it grows from a malloc
 *    block into its own 2 MB-aligned mappings.
 *  - The source-compatibility shim of sim/kernels.hh: resolveKernel
 *    (SimdMode::Auto) is the scalar kernel, with the same reason on
 *    every call.
 *  - The i-cache kernel matches the scalar Replayer oracle on odd
 *    associativities (3-way, 6-way) mixed with direct-mapped, 2-, 4-
 *    and 8-way geometry, across several line sizes in one fused
 *    column — so group construction, the nested-mask DM probes and
 *    the set-associative probes all get exercised in a single replay,
 *    with no pool, 2 threads and 8 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/layout.hh"
#include "metrics/sequence.hh"
#include "obs/registry.hh"
#include "program/builder.hh"
#include "sim/engine.hh"
#include "sim/timing.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"
#include "two_image_workload.hh"

namespace spikesim::sim {
namespace {

using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

/**
 * A program of `blocks` random-sized blocks (paired into procs). With
 * `zero_blocks`, every third proc opens with a branch-only block whose
 * branch targets the next block: the baseline layout makes that
 * target its fall-through and deletes the branch, leaving a zero-size
 * block.
 */
Program
randomProgram(const char* name, int blocks, std::uint32_t seed,
              bool zero_blocks = false)
{
    support::Pcg32 rng(seed);
    Program p(name);
    for (int i = 0; i < blocks; i += 2) {
        ProcedureBuilder b("p" + std::to_string(i));
        if (zero_blocks && i % 6 == 0) {
            auto a = b.addBlock(1, Terminator::UncondBranch);
            auto r =
                b.addBlock(1 + rng.nextBounded(32), Terminator::Return);
            b.addEdge(a, r, EdgeKind::UncondTarget);
        } else {
            auto a = b.addBlock(1 + rng.nextBounded(32),
                                Terminator::FallThrough);
            auto r =
                b.addBlock(1 + rng.nextBounded(32), Terminator::Return);
            b.addEdge(a, r, EdgeKind::FallThrough);
        }
        p.addProcedure(b.build());
    }
    EXPECT_EQ(p.validate(), "");
    return p;
}

trace::TraceBuffer
randomTrace(int blocks, int events, int num_cpus, std::uint32_t seed)
{
    support::Pcg32 rng(seed);
    trace::TraceBuffer buf;
    std::vector<trace::ExecContext> ctx(num_cpus);
    std::vector<std::uint32_t> cur(num_cpus, 0);
    for (int c = 0; c < num_cpus; ++c)
        ctx[c].cpu = static_cast<std::uint8_t>(c);
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
        if (rng.nextBool(0.1))
            buf.onData(ctx[c], 0x80000000ULL + rng.nextBounded(1 << 14));
    }
    return buf;
}

/** One self-contained random workload. */
struct Workload
{
    Program app;
    Program kern;
    core::Layout app_layout;
    core::Layout kern_layout;
    trace::TraceBuffer buf;
    Replayer rep;

    Workload(int num_cpus, std::uint32_t seed, bool zero_blocks = false)
        : app(randomProgram("app", 120, seed, zero_blocks)),
          kern(randomProgram("kern", 120, seed + 1, zero_blocks)),
          app_layout(core::baselineLayout(app, 0)),
          kern_layout(core::baselineLayout(kern, 0x400000)),
          buf(randomTrace(120, 20000, num_cpus, seed + 2)),
          rep(buf, app_layout, &kern_layout)
    {
    }
};

/** One decoded ref, as the kernels see it and the raw-trace walk
 *  below expects it. */
struct ExpectedRef
{
    std::uint64_t addr = 0;
    std::uint32_t bytes = 0;
    std::uint8_t owner = 0;
    bool run_break = false;

    bool operator==(const ExpectedRef&) const = default;
};

/** One data event in global trace order. */
struct DataRef
{
    std::uint64_t addr = 0;
    std::uint8_t cpu = 0;

    bool operator==(const DataRef&) const = default;
};

/** Everything resolveSoA should produce, from a walk of the raw trace. */
struct ExpectedResolve
{
    std::vector<std::vector<ExpectedRef>> per_cpu;
    std::vector<DataRef> data_refs;
    std::uint64_t instr_events = 0;
    std::uint64_t instrs = 0;
    std::uint64_t zero_size_events = 0;
};

/**
 * The resolve contract, walked event by event: a wanted block event
 * counts toward instr_events/instrs and, unless its block is empty
 * under the layout, appends (addr, bytes, owner, pending run break)
 * to its CPU's refs; a block event of a filtered-out image sets its
 * CPU's pending run break; a data event (include_data only) appends a
 * 4-byte Data ref to its CPU's refs and to the global data_refs, and
 * never breaks a run.
 */
ExpectedResolve
walkRawTrace(const Workload& w, int num_cpus, StreamFilter filter,
             bool include_data)
{
    ExpectedResolve x;
    x.per_cpu.resize(static_cast<std::size_t>(num_cpus));
    std::vector<bool> pending(x.per_cpu.size(), false);
    for (const trace::TraceEvent& e : w.buf.events()) {
        auto& refs = x.per_cpu[e.cpu];
        if (e.image == trace::ImageId::Data) {
            if (include_data) {
                const std::uint64_t addr =
                    static_cast<std::uint64_t>(e.block) * 4;
                refs.push_back(
                    {addr, 4,
                     static_cast<std::uint8_t>(mem::Owner::Data), false});
                x.data_refs.push_back({addr, e.cpu});
            }
            continue;
        }
        if (!wantImage(filter, e.image)) {
            pending[e.cpu] = true;
            continue;
        }
        const bool app = e.image == trace::ImageId::App;
        const core::Layout& layout = app ? w.app_layout : w.kern_layout;
        const std::uint32_t size = layout.blockSize(e.block);
        ++x.instr_events;
        x.instrs += size;
        if (size == 0) {
            ++x.zero_size_events;
            continue;
        }
        refs.push_back(
            {layout.blockAddr(e.block), size * program::kInstrBytes,
             static_cast<std::uint8_t>(app ? mem::Owner::App
                                           : mem::Owner::Kernel),
             pending[e.cpu]});
        pending[e.cpu] = false;
    }
    return x;
}

/**
 * CPU `cpu`'s refs of a resolved trace, decoded as the kernel walks
 * decode them: each block id through its image's tables (the kernel
 * tag picks the table), zero-sized blocks dropped with their run
 * break carried to the next ref, each data id read from the global
 * data column.
 */
std::vector<ExpectedRef>
decodeCpu(const ResolvedTraceSoA& soa, int cpu)
{
    std::vector<ExpectedRef> out;
    bool pending = false;
    const auto [b, e] = soa.cpuRange(cpu);
    for (std::size_t i = b; i < e; ++i) {
        const std::uint32_t id = soa.stream.ids[i];
        const std::uint32_t low = id & kBlockIdMask;
        if ((id & kDataRefTag) != 0) {
            out.push_back(
                {static_cast<std::uint64_t>(soa.stream.data_words[low]) * 4,
                 4, static_cast<std::uint8_t>(mem::Owner::Data), false});
            continue;
        }
        pending = pending || (id & kRunBreakTag) != 0;
        const bool kernel = (id & kKernelBlockTag) != 0;
        const BlockTables& t = kernel ? soa.kernel : soa.app;
        const std::uint32_t size = t.size[low];
        if (size == 0)
            continue;
        out.push_back({t.addr[low], size * program::kInstrBytes,
                       static_cast<std::uint8_t>(kernel ? mem::Owner::Kernel
                                                        : mem::Owner::App),
                       pending});
        pending = false;
    }
    return out;
}

/** The global data column of a resolved trace, as DataRefs. */
std::vector<DataRef>
dataColumn(const BlockStream& stream)
{
    EXPECT_EQ(stream.data_words.size(), stream.data_cpus.size());
    std::vector<DataRef> out;
    for (std::size_t i = 0; i < stream.data_words.size(); ++i)
        out.push_back({static_cast<std::uint64_t>(stream.data_words[i]) * 4,
                       stream.data_cpus[i]});
    return out;
}

std::string
caseName(int cpus, StreamFilter filter, bool data)
{
    return "cpus " + std::to_string(cpus) + " filter " +
           std::to_string(static_cast<int>(filter)) +
           (data ? " +data" : "");
}

/**
 * resolveSoA, decoded ref by ref, must equal the array-of-structs
 * reference walkRawTrace builds (one ExpectedRef per resolved ref, per
 * CPU), and its data column the global data refs: every filter, both
 * include_data settings, 1/2/4/8 CPUs with zero-size blocks.
 */
TEST(ReplayEngine, DirectSoAResolveMatchesTransposeOfAoS)
{
    using Range = std::pair<std::size_t, std::size_t>;
    std::uint64_t zero_size_events = 0;
    for (int cpus : {1, 2, 4, 8}) {
        const Workload w(cpus, 7000 + static_cast<std::uint32_t>(cpus),
                         /*zero_blocks=*/true);
        for (StreamFilter filter :
             {StreamFilter::AppOnly, StreamFilter::KernelOnly,
              StreamFilter::Combined}) {
            for (bool data : {false, true}) {
                const ResolvedTraceSoA soa = w.rep.resolveSoA(filter, data);
                const ExpectedResolve x =
                    walkRawTrace(w, cpus, filter, data);
                zero_size_events += x.zero_size_events;
                const std::string what = caseName(cpus, filter, data);

                EXPECT_EQ(soa.stream.num_cpus, cpus) << what;
                EXPECT_EQ(soa.instr_events, x.instr_events) << what;
                EXPECT_EQ(soa.instrs, x.instrs) << what;
                ASSERT_EQ(soa.stream.cpu_begin.size(),
                          static_cast<std::size_t>(cpus) + 1)
                    << what;
                EXPECT_EQ(soa.stream.cpu_begin.front(), 0u) << what;
                EXPECT_EQ(soa.stream.cpu_begin.back(), soa.stream.size())
                    << what;
                std::size_t refs = 0;
                for (int c = 0; c < cpus; ++c) {
                    const std::vector<ExpectedRef> got = decodeCpu(soa, c);
                    const auto& want =
                        x.per_cpu[static_cast<std::size_t>(c)];
                    ASSERT_EQ(got.size(), want.size())
                        << what << " cpu " << c;
                    for (std::size_t i = 0; i < want.size(); ++i)
                        EXPECT_EQ(got[i], want[i])
                            << what << " cpu " << c << " ref " << i;
                    refs += got.size();
                }
                EXPECT_EQ(soa.size(), refs) << what;
                EXPECT_EQ(dataColumn(soa.stream), x.data_refs) << what;
                EXPECT_EQ(soa.stream.data_words.empty(), !data) << what;
                EXPECT_EQ(soa.cpuRange(-1), Range{}) << what;
                EXPECT_EQ(soa.cpuRange(cpus), Range{}) << what;
                EXPECT_EQ(soa.cpuRange(cpus + 5), Range{}) << what;
            }
        }
    }
    // The zero-size skip must have been exercised.
    EXPECT_GT(zero_size_events, 0u);
}

/**
 * Every part of resolveSoA's output keeps its contract, checked on the
 * stream and its decoded refs alone (no reference walk to share a
 * mistake with): monotone partitions that cpuRange reports; tags the
 * filter admits, block ids inside the tables the stream says it
 * needs, data ids carrying no other tag and indexing every data event
 * exactly once; owners the filter admits, non-empty instruction refs
 * whose bytes sum to instrs * kInstrBytes, 4-byte unflagged Data refs,
 * and each CPU's Data refs equal to its share of the global data
 * column, in order.
 */
TEST(ResolvedTraceSoA, TransposeIsFieldExact)
{
    constexpr auto kApp = static_cast<std::uint8_t>(mem::Owner::App);
    constexpr auto kKernel = static_cast<std::uint8_t>(mem::Owner::Kernel);
    constexpr auto kData = static_cast<std::uint8_t>(mem::Owner::Data);
    for (int cpus : {1, 2, 4, 8}) {
        const Workload w(cpus, 7100 + static_cast<std::uint32_t>(cpus),
                         /*zero_blocks=*/true);
        for (StreamFilter filter :
             {StreamFilter::AppOnly, StreamFilter::KernelOnly,
              StreamFilter::Combined}) {
            for (bool data : {false, true}) {
                const ResolvedTraceSoA soa = w.rep.resolveSoA(filter, data);
                const BlockStream& st = soa.stream;
                const std::string what = caseName(cpus, filter, data);

                ASSERT_EQ(st.cpu_begin.size(),
                          static_cast<std::size_t>(cpus) + 1)
                    << what;
                EXPECT_EQ(st.cpu_begin.front(), 0u) << what;
                EXPECT_EQ(st.cpu_begin.back(), st.size()) << what;
                EXPECT_EQ(st.data_words.size(), st.data_cpus.size())
                    << what;

                std::uint64_t instr_bytes = 0;
                std::size_t decoded = 0;
                std::size_t block_ids = 0;
                std::vector<int> data_hits(st.data_words.size(), 0);
                for (int c = 0; c < cpus; ++c) {
                    const auto uc = static_cast<std::size_t>(c);
                    ASSERT_LE(st.cpu_begin[uc], st.cpu_begin[uc + 1])
                        << what << " cpu " << c;
                    const auto [b, e] = soa.cpuRange(c);
                    EXPECT_EQ(b, st.cpu_begin[uc]) << what;
                    EXPECT_EQ(e, st.cpu_begin[uc + 1]) << what;

                    for (std::size_t i = b; i < e; ++i) {
                        const std::uint32_t id = st.ids[i];
                        const std::uint32_t low = id & kBlockIdMask;
                        if ((id & kDataRefTag) != 0) {
                            EXPECT_TRUE(data) << what << " id " << i;
                            EXPECT_EQ(id & (kKernelBlockTag | kRunBreakTag),
                                      0u)
                                << what << " id " << i;
                            ASSERT_LT(low, st.data_words.size()) << what;
                            EXPECT_EQ(st.data_cpus[low], c)
                                << what << " id " << i;
                            ++data_hits[low];
                            continue;
                        }
                        ++block_ids;
                        const bool kernel = (id & kKernelBlockTag) != 0;
                        if (filter != StreamFilter::Combined) {
                            EXPECT_EQ(kernel,
                                      filter == StreamFilter::KernelOnly)
                                << what << " id " << i;
                        }
                        EXPECT_LT(low, kernel ? st.kernel_blocks
                                              : st.app_blocks)
                            << what << " id " << i;
                    }

                    std::vector<std::uint64_t> want_data;
                    for (const DataRef& d : dataColumn(st))
                        if (d.cpu == c)
                            want_data.push_back(d.addr);
                    std::vector<std::uint64_t> got_data;
                    for (const ExpectedRef& r : decodeCpu(soa, c)) {
                        ++decoded;
                        if (r.owner == kData) {
                            EXPECT_EQ(r.bytes, 4u) << what;
                            EXPECT_FALSE(r.run_break) << what;
                            got_data.push_back(r.addr);
                            continue;
                        }
                        if (filter == StreamFilter::AppOnly)
                            EXPECT_EQ(r.owner, kApp) << what;
                        else if (filter == StreamFilter::KernelOnly)
                            EXPECT_EQ(r.owner, kKernel) << what;
                        else
                            EXPECT_TRUE(r.owner == kApp ||
                                        r.owner == kKernel)
                                << what;
                        EXPECT_GT(r.bytes, 0u) << what;
                        EXPECT_EQ(r.bytes % program::kInstrBytes, 0u)
                            << what;
                        instr_bytes += r.bytes;
                    }
                    EXPECT_EQ(got_data, want_data) << what << " cpu " << c;
                }
                for (std::size_t d = 0; d < data_hits.size(); ++d)
                    EXPECT_EQ(data_hits[d], 1) << what << " data " << d;
                EXPECT_EQ(st.data_words.empty(), !data) << what;
                EXPECT_EQ(block_ids, soa.instr_events) << what;
                EXPECT_EQ(decoded, soa.size()) << what;
                EXPECT_EQ(instr_bytes, soa.instrs * program::kInstrBytes)
                    << what;
                using Range = std::pair<std::size_t, std::size_t>;
                EXPECT_EQ(soa.cpuRange(-1), Range{}) << what;
                EXPECT_EQ(soa.cpuRange(cpus), Range{}) << what;
            }
        }
    }
}

/**
 * size(), instrs and instr_events keep the values of the old column
 * form, counted here straight off the raw trace: size() is the
 * non-empty wanted block events plus (include_data) the data events,
 * instr_events every wanted block event, instrs their block sizes
 * (which is also what the Replayer oracle's dynamicInstrs walks).
 */
TEST(ResolvedTraceSoA, CountsMatchRawTrace)
{
    for (int cpus : {1, 2, 4, 8}) {
        const Workload w(cpus, 7200 + static_cast<std::uint32_t>(cpus),
                         /*zero_blocks=*/true);
        for (StreamFilter filter :
             {StreamFilter::AppOnly, StreamFilter::KernelOnly,
              StreamFilter::Combined}) {
            for (bool data : {false, true}) {
                std::size_t refs = 0;
                std::uint64_t events = 0;
                std::uint64_t instrs = 0;
                for (const trace::TraceEvent& e : w.buf.events()) {
                    if (e.image == trace::ImageId::Data) {
                        refs += data ? 1 : 0;
                        continue;
                    }
                    if (!wantImage(filter, e.image))
                        continue;
                    const std::uint32_t size =
                        (e.image == trace::ImageId::App ? w.app_layout
                                                        : w.kern_layout)
                            .blockSize(e.block);
                    ++events;
                    instrs += size;
                    refs += size != 0 ? 1 : 0;
                }
                const ResolvedTraceSoA soa = w.rep.resolveSoA(filter, data);
                const std::string what = caseName(cpus, filter, data);
                EXPECT_EQ(soa.size(), refs) << what;
                EXPECT_EQ(soa.instr_events, events) << what;
                EXPECT_EQ(soa.instrs, instrs) << what;
                EXPECT_EQ(soa.instrs, w.rep.dynamicInstrs(filter)) << what;
            }
        }
    }
}

/**
 * A zero-sized block right after a filtered-out kernel run: the
 * stream tags the zero-sized block with the run break, and the walk
 * must carry it to the next non-empty block even though that block's
 * address continues the previous ref's. Without the kernel run the
 * same refs are one sequential run.
 */
TEST(BlockStream, ZeroSizedBlockAfterFilteredKernelRunKeepsTheBreak)
{
    Program app("app");
    program::ProcId p0;
    program::ProcId p1;
    {
        ProcedureBuilder b("p0");
        auto x = b.addBlock(5, Terminator::FallThrough);
        auto y = b.addBlock(3, Terminator::Return);
        b.addEdge(x, y, EdgeKind::FallThrough);
        p0 = app.addProcedure(b.build());
    }
    {
        ProcedureBuilder b("p1");
        auto a = b.addBlock(1, Terminator::UncondBranch);
        auto r = b.addBlock(4, Terminator::Return);
        b.addEdge(a, r, EdgeKind::UncondTarget);
        p1 = app.addProcedure(b.build());
    }
    ASSERT_EQ(app.validate(), "");
    const Program kern = randomProgram("kern", 8, 11);
    const core::Layout app_layout = core::baselineLayout(app, 0);
    const core::Layout kern_layout = core::baselineLayout(kern, 0x400000);
    const auto gx = app.globalBlockId(p0, 0);
    const auto gy = app.globalBlockId(p0, 1);
    const auto ga = app.globalBlockId(p1, 0);
    const auto gr = app.globalBlockId(p1, 1);
    ASSERT_EQ(app_layout.blockSize(ga), 0u);
    ASSERT_EQ(app_layout.blockAddr(gr),
              app_layout.blockAddr(gy) + app_layout.blockBytes(gy));

    for (bool kernel_run : {false, true}) {
        trace::TraceBuffer buf;
        trace::ExecContext ctx;
        buf.onBlock(ctx, trace::ImageId::App, gx);
        buf.onBlock(ctx, trace::ImageId::App, gy);
        buf.onData(ctx, 0x80000000ULL);
        if (kernel_run) {
            buf.onBlock(ctx, trace::ImageId::Kernel, 0);
            buf.onBlock(ctx, trace::ImageId::Kernel, 1);
        }
        buf.onData(ctx, 0x80000040ULL);
        buf.onBlock(ctx, trace::ImageId::App, ga);
        buf.onBlock(ctx, trace::ImageId::App, gr);
        const Replayer rep(buf, app_layout, &kern_layout);
        const std::string what = kernel_run ? "kernel run" : "no kernel";

        const BlockStream st =
            buildBlockStream(buf, StreamFilter::AppOnly, true);
        ASSERT_EQ(st.size(), 6u) << what;
        EXPECT_EQ(st.ids[4], ga | (kernel_run ? kRunBreakTag : 0u)) << what;
        EXPECT_EQ(st.ids[5], gr) << what;

        const ResolvedTraceSoA soa =
            rep.resolveSoA(StreamFilter::AppOnly, true);
        const std::vector<ExpectedRef> refs = decodeCpu(soa, 0);
        ASSERT_EQ(refs.size(), 5u) << what;
        EXPECT_FALSE(refs[1].run_break) << what;
        EXPECT_EQ(refs[4].addr, app_layout.blockAddr(gr)) << what;
        EXPECT_EQ(refs[4].run_break, kernel_run) << what;
        EXPECT_EQ(soa.size(), 5u) << what;
        EXPECT_EQ(soa.instr_events, 4u) << what;

        const metrics::SequenceStats oracle = metrics::sequenceLengths(
            buf, app_layout, trace::ImageId::App);
        EXPECT_EQ(oracle.lengths.totalSamples(), kernel_run ? 2u : 1u)
            << what;
        for (bool with_data : {false, true}) {
            const metrics::SequenceStats got = replaySequence(
                rep.resolveSoA(StreamFilter::AppOnly, with_data));
            EXPECT_EQ(got.lengths.totalSamples(),
                      oracle.lengths.totalSamples())
                << what;
            EXPECT_EQ(got.mean, oracle.mean) << what;
            EXPECT_EQ(got.mean_block_size, oracle.mean_block_size) << what;
        }
    }
}

/**
 * Traces with zero-sized blocks that span many of the production
 * decoder's batches (InstrRefWalk, 256 refs per batch): the i-cache
 * (the sweep, which skips them itself) and sequence walks match their
 * oracles under AppOnly and KernelOnly, with and without data refs in
 * the stream, with no pool and on a pool. Each shard adds its CPU's
 * replayed refs to sim.replay.refs, so one serial sequence walk adds
 * size(): zero-sized blocks stay out. A sweep job adds the ids it
 * streams, empty blocks and data refs included, to
 * sim.sweep.streamed_refs.
 */
TEST(ReplayEngine, ZeroSizedBlocksAcrossBatchesMatchOracle)
{
    const std::vector<mem::CacheConfig> configs = {
        {4 * 1024, 32, 1}, {8 * 1024, 64, 2}, {16 * 1024, 128, 4}};
    support::ThreadPool pool(3);
    const obs::Counter& refs = obs::counter("sim.replay.refs");
    const obs::Counter& streamed = obs::counter("sim.sweep.streamed_refs");
    for (int cpus : {1, 4}) {
        const Workload w(cpus, 7400 + static_cast<std::uint32_t>(cpus),
                         /*zero_blocks=*/true);
        struct Case
        {
            StreamFilter filter;
            const core::Layout* layout;
            trace::ImageId image;
        };
        for (const Case& k :
             {Case{StreamFilter::AppOnly, &w.app_layout,
                   trace::ImageId::App},
              Case{StreamFilter::KernelOnly, &w.kern_layout,
                   trace::ImageId::Kernel}}) {
            const metrics::SequenceStats seq =
                metrics::sequenceLengths(w.buf, *k.layout, k.image);
            std::vector<ICacheReplayResult> oracle;
            for (const mem::CacheConfig& c : configs)
                oracle.push_back(w.rep.icache(c, k.filter));
            for (bool data : {false, true}) {
                const std::string what = caseName(cpus, k.filter, data);
                const ResolvedTraceSoA soa = w.rep.resolveSoA(k.filter, data);
                // Some filtered block events are empty under the layout.
                ASSERT_LT(soa.size(),
                          soa.instr_events + soa.stream.data_words.size())
                    << what;
                for (support::ThreadPool* p :
                     {static_cast<support::ThreadPool*>(nullptr), &pool}) {
                    const std::uint64_t streamed_before = streamed.value();
                    const std::vector<ICacheReplayResult> got =
                        replayICache(soa, configs, SimdMode::Auto, p);
                    if (SPIKESIM_OBS != 0) {
                        EXPECT_EQ(streamed.value() - streamed_before,
                                  soa.stream.size())
                            << what;
                    }
                    for (std::size_t i = 0; i < configs.size(); ++i) {
                        EXPECT_EQ(got[i].accesses, oracle[i].accesses)
                            << what << " cfg " << i;
                        EXPECT_EQ(got[i].misses, oracle[i].misses)
                            << what << " cfg " << i;
                        EXPECT_EQ(got[i].app_misses, oracle[i].app_misses)
                            << what << " cfg " << i;
                        EXPECT_EQ(got[i].kernel_misses,
                                  oracle[i].kernel_misses)
                            << what << " cfg " << i;
                    }
                    const std::uint64_t before = refs.value();
                    const metrics::SequenceStats s = replaySequence(soa, p);
                    if (SPIKESIM_OBS != 0) {
                        EXPECT_EQ(refs.value() - before, soa.size())
                            << what;
                    }
                    for (std::size_t b = 0; b < seq.lengths.numBuckets();
                         ++b)
                        EXPECT_EQ(s.lengths.bucket(b), seq.lengths.bucket(b))
                            << what << " bucket " << b;
                    EXPECT_EQ(s.mean, seq.mean) << what;
                    EXPECT_EQ(s.mean_block_size, seq.mean_block_size)
                        << what;
                }
            }
        }
    }
}

/**
 * Data refs under AppOnly and Combined, on 1, 2, 4 and 8 CPUs: the
 * data column holds every data event in global trace order, each
 * CPU's data ids index its own events in ascending order, and the
 * coherence pass, which walks the global column, counts the oracle's
 * communication misses under either filter. Under Combined the whole
 * hierarchy result equals the oracle's.
 */
TEST(BlockStream, DataRefsKeepGlobalOrderUnderAppOnlyAndCombined)
{
    mem::HierarchyConfig small;
    small.l1i = {1024, 32, 2};
    small.l1d = {1024, 32, 2};
    small.l2 = {8 * 1024, 64, 4};
    small.itlb_entries = 4;
    small.page_bytes = 1024;
    const std::vector<mem::HierarchyConfig> configs = {
        small, PlatformParams::sim21364().hierarchy};
    support::ThreadPool pool(3);
    for (int cpus : {1, 2, 4, 8}) {
        const Workload w(cpus, 7300 + static_cast<std::uint32_t>(cpus));
        std::vector<DataRef> want;
        for (const trace::TraceEvent& e : w.buf.events())
            if (e.image == trace::ImageId::Data)
                want.push_back({static_cast<std::uint64_t>(e.block) * 4,
                                e.cpu});
        ASSERT_FALSE(want.empty());
        for (StreamFilter filter :
             {StreamFilter::AppOnly, StreamFilter::Combined}) {
            const std::string what = caseName(cpus, filter, true);
            const BlockStream st = buildBlockStream(w.buf, filter, true);
            EXPECT_EQ(dataColumn(st), want) << what;
            std::size_t seen = 0;
            for (int c = 0; c < cpus; ++c) {
                const auto [b, e] = st.cpuRange(c);
                std::int64_t last = -1;
                for (std::size_t i = b; i < e; ++i) {
                    if ((st.ids[i] & kDataRefTag) == 0)
                        continue;
                    const std::uint32_t d = st.ids[i] & kBlockIdMask;
                    EXPECT_GT(static_cast<std::int64_t>(d), last) << what;
                    last = d;
                    EXPECT_EQ(st.data_cpus[d], c) << what;
                    ++seen;
                }
            }
            EXPECT_EQ(seen, want.size()) << what;

            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter, true);
            for (support::ThreadPool* p :
                 {static_cast<support::ThreadPool*>(nullptr), &pool}) {
                const std::vector<HierarchyReplayResult> got =
                    replayHierarchy(soa, configs, true, p);
                for (std::size_t k = 0; k < configs.size(); ++k) {
                    const HierarchyReplayResult oracle =
                        w.rep.hierarchy(configs[k], true, true);
                    EXPECT_EQ(got[k].total.comm_misses,
                              oracle.total.comm_misses)
                        << what << " cfg " << k;
                    if (filter != StreamFilter::Combined)
                        continue;
                    EXPECT_EQ(got[k].total.l1d.misses,
                              oracle.total.l1d.misses)
                        << what << " cfg " << k;
                    EXPECT_EQ(got[k].total.l2d.misses,
                              oracle.total.l2d.misses)
                        << what << " cfg " << k;
                    EXPECT_EQ(got[k].total.l1i.misses,
                              oracle.total.l1i.misses)
                        << what << " cfg " << k;
                    EXPECT_EQ(got[k].instrs, oracle.instrs)
                        << what << " cfg " << k;
                }
            }
        }
    }
}

TEST(PriceFuzz, BlockStreamKeepsEachCpusFilteredRefsInTraceOrder)
{
    TwoImageWorkload& w = twoImageWorkload();
    for (StreamFilter filter : {StreamFilter::AppOnly,
                                StreamFilter::KernelOnly,
                                StreamFilter::Combined}) {
        const BlockStream stream = buildBlockStream(w.buf, filter);
        ASSERT_EQ(stream.num_cpus, kTwoImageCpus);
        std::vector<std::vector<std::uint32_t>> want(kTwoImageCpus);
        std::vector<std::uint32_t> pending(kTwoImageCpus, 0);
        std::uint32_t app_blocks = 0, kernel_blocks = 0;
        for (const trace::TraceEvent& e : w.buf.events()) {
            if (e.image == trace::ImageId::Data)
                continue;
            if (!wantImage(filter, e.image)) {
                pending[e.cpu] = kRunBreakTag;
                continue;
            }
            const bool kernel = e.image == trace::ImageId::Kernel;
            (kernel ? kernel_blocks : app_blocks) = std::max(
                kernel ? kernel_blocks : app_blocks, e.block + 1);
            want[e.cpu].push_back(
                e.block | pending[e.cpu] | (kernel ? kKernelBlockTag : 0u));
            pending[e.cpu] = 0;
        }
        for (int c = 0; c < kTwoImageCpus; ++c) {
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

/** A block id or data index must stay below the tag bits: a block id
 *  that reaches them dies instead of aliasing a tagged id. */
TEST(BlockStreamDeathTest, IdCollidingWithATagDies)
{
    for (std::uint32_t bad : {kDataRefTag, kRunBreakTag, kKernelBlockTag,
                              kBlockIdMask + 1}) {
        trace::TraceBuffer buf;
        trace::ExecContext ctx;
        buf.onBlock(ctx, trace::ImageId::App, 3);
        buf.onBlock(ctx, trace::ImageId::App, bad);
        EXPECT_DEATH((void)buildBlockStream(buf, StreamFilter::AppOnly),
                     "collides with the id tags")
            << bad;
        trace::TraceBuffer kbuf;
        kbuf.onBlock(ctx, trace::ImageId::Kernel, bad);
        EXPECT_DEATH((void)buildBlockStream(kbuf, StreamFilter::Combined),
                     "collides with the id tags")
            << bad;
    }
    // The largest id below the tags is a plain block id.
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    buf.onBlock(ctx, trace::ImageId::App, kBlockIdMask);
    const BlockStream st = buildBlockStream(buf, StreamFilter::AppOnly);
    ASSERT_EQ(st.size(), 1u);
    EXPECT_EQ(st.ids[0], kBlockIdMask);
    EXPECT_EQ(st.app_blocks, kBlockIdMask + 1);
}

TEST(ColumnAlloc, BigColumnsAreAlignedMappingsThatKeepTheirData)
{
    // Growing by push_back moves the column from malloc to its own
    // mapping at 2 MB, then from mapping to mapping; every move must
    // keep the data, and every mapping must be 2 MB-aligned.
    constexpr std::size_t kAlign = ColumnAlloc<char>::kHugeBytes;
    const std::size_t n = 5 * kAlign / sizeof(std::uint64_t) + 3;
    Column<std::uint64_t> col;
    for (std::size_t i = 0; i < n; ++i) {
        col.push_back(i * 0x9e3779b97f4a7c15ULL);
        if (col.capacity() * sizeof(std::uint64_t) >= kAlign) {
            ASSERT_EQ(reinterpret_cast<std::uintptr_t>(col.data()) % kAlign,
                      0u)
                << "capacity " << col.capacity();
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(col[i], i * 0x9e3779b97f4a7c15ULL) << i;
    col.clear();
    col.shrink_to_fit();
    EXPECT_EQ(col.capacity(), 0u);
}

TEST(SimdDispatch, ResolveHonorsExplicitAndAutoModes)
{
    const KernelChoice first = resolveKernel(SimdMode::Auto);
    EXPECT_EQ(first.kind, KernelKind::Scalar) << first.reason;
    EXPECT_FALSE(first.reason.empty());
    for (int rep = 0; rep < 3; ++rep) {
        const KernelChoice c = resolveKernel(SimdMode::Auto);
        EXPECT_EQ(c.kind, KernelKind::Scalar);
        EXPECT_EQ(c.reason, first.reason);
    }
    EXPECT_STREQ(kernelName(KernelKind::Scalar), "scalar");
}

/**
 * Mixed geometry fuzz: odd associativities (3-way, 6-way) next to
 * direct-mapped configs of several line sizes and 2-, 4- and 8-way
 * sets, all fused into one column so the line-size groups and the
 * nested-mask DM inclusion fast path are in play.
 */
TEST(SimdKernels, OddAssocAndMixedGeometryMatchOracle)
{
    const std::vector<mem::CacheConfig> configs = {
        {16 * 1024, 64, 1},  {64 * 1024, 64, 1},  {8 * 1024, 32, 2},
        {48 * 1024, 64, 3},  {64 * 1024, 128, 4}, {24 * 1024, 32, 6},
        {64 * 1024, 128, 8}, {32 * 1024, 256, 1}, {128 * 1024, 256, 4},
    };
    support::ThreadPool narrow(2);
    support::ThreadPool wide(8);
    std::vector<support::ThreadPool*> pools{nullptr, &narrow, &wide};
    for (int cpus : {1, 4}) {
        Workload w(cpus, 7100 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter :
             {StreamFilter::AppOnly, StreamFilter::Combined}) {
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            std::vector<ICacheReplayResult> oracle;
            for (const auto& c : configs)
                oracle.push_back(w.rep.icache(c, filter));
            for (support::ThreadPool* p : pools) {
                auto col =
                    replayICache(soa, configs, SimdMode::Auto, p);
                ASSERT_EQ(col.size(), oracle.size());
                for (std::size_t i = 0; i < oracle.size(); ++i) {
                    EXPECT_EQ(col[i].accesses, oracle[i].accesses)
                        << "cfg " << i;
                    EXPECT_EQ(col[i].misses, oracle[i].misses)
                        << "cfg " << i;
                    EXPECT_EQ(col[i].app_misses, oracle[i].app_misses)
                        << "cfg " << i;
                    EXPECT_EQ(col[i].kernel_misses,
                              oracle[i].kernel_misses)
                        << "cfg " << i;
                    for (int m = 0; m < 2; ++m)
                        for (int v = 0; v < 3; ++v)
                            EXPECT_EQ(col[i].interference.counts[m][v],
                                      oracle[i].interference.counts[m][v])
                                << "cfg " << i;
                }
            }
        }
    }
}

} // namespace
} // namespace spikesim::sim
