/**
 * @file
 * Randomized differential tests for the unified parallel replay engine
 * (sim/engine.hh): on random programs and multi-CPU traces with app +
 * kernel images and data noise, every engine family — fused i-cache
 * with interference, three-C, stream buffers, instrumented word stats,
 * iTLB, full hierarchy with coherence, and sequence analysis — must be
 * bit-identical to the scalar per-config Replayer/metrics oracles,
 * both serial-fused (no pool) and sharded across a thread pool,
 * including a pool wider than the trace's CPU count (which engages the
 * per-(cpu, config-chunk) sharding path).
 *
 * Every family is additionally replayed through the structure-of-arrays
 * overloads (sim/soa.hh) over a *directly resolved* SoA trace
 * (Replayer::resolveSoA — no transpose), and the i-cache, three-C, and
 * stream-buffer families through every SoA kernel runnable here —
 * forced scalar, forced AVX2, and forced AVX-512 (sim/kernels.hh) —
 * against the same oracles. The SIMD kernels have no tolerance: miss
 * counts, classification counts, and interference matrices must match
 * the scalar Replayer bit for bit. Direct resolve itself is
 * bit-compared against transpose-of-AoS across every filter,
 * include_data setting, and CPU count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/layout.hh"
#include "metrics/sequence.hh"
#include "program/builder.hh"
#include "sim/engine.hh"
#include "sim/timing.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"

namespace spikesim::sim {
namespace {

using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

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
 * A trace with loop-like locality spread across CPUs and both images,
 * plus data refs: mostly nearby re-executions with occasional far
 * jumps, 30% kernel blocks, 10% of events followed by a data touch on
 * a small hot region (so several CPUs hit the same data lines and the
 * coherence model has migrations to count).
 */
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

/** The test grid: a column of mixed geometries. */
std::vector<mem::CacheConfig>
testConfigs()
{
    return {{8 * 1024, 32, 1}, {32 * 1024, 64, 2}, {64 * 1024, 128, 4}};
}

const StreamFilter kFilters[] = {StreamFilter::AppOnly,
                                 StreamFilter::KernelOnly,
                                 StreamFilter::Combined};

/** Kernel modes runnable here: scalar always, AVX2 and AVX-512 when
 *  the host can. */
std::vector<SimdMode>
runnableModes()
{
    std::vector<SimdMode> modes{SimdMode::Scalar};
    if (simdAvailable())
        modes.push_back(SimdMode::Simd);
    if (avx512Available())
        modes.push_back(SimdMode::Avx512);
    return modes;
}

const char*
modeLabel(SimdMode mode)
{
    switch (mode) {
    case SimdMode::Simd:
        return "soa avx2";
    case SimdMode::Avx512:
        return "soa avx512";
    default:
        return "soa scalar";
    }
}

template <typename H>
void
expectHistEq(const H& a, const H& b, const char* what)
{
    ASSERT_EQ(a.numBuckets(), b.numBuckets()) << what;
    for (std::size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucket(i), b.bucket(i)) << what << " bucket " << i;
}

void
expectStatsEq(const mem::HierarchyStats& a, const mem::HierarchyStats& b,
              const char* what)
{
    EXPECT_EQ(a.l1i.accesses, b.l1i.accesses) << what;
    EXPECT_EQ(a.l1i.misses, b.l1i.misses) << what;
    EXPECT_EQ(a.l1d.accesses, b.l1d.accesses) << what;
    EXPECT_EQ(a.l1d.misses, b.l1d.misses) << what;
    EXPECT_EQ(a.l2i.accesses, b.l2i.accesses) << what;
    EXPECT_EQ(a.l2i.misses, b.l2i.misses) << what;
    EXPECT_EQ(a.l2d.accesses, b.l2d.accesses) << what;
    EXPECT_EQ(a.l2d.misses, b.l2d.misses) << what;
    EXPECT_EQ(a.itlb_misses, b.itlb_misses) << what;
    EXPECT_EQ(a.comm_misses, b.comm_misses) << what;
}

/** Fixture state: one random workload per CPU count. */
struct Workload
{
    Program app;
    Program kern;
    core::Layout app_layout;
    core::Layout kern_layout;
    trace::TraceBuffer buf;
    Replayer rep;

    Workload(int num_cpus, std::uint32_t seed)
        : app(randomProgram("app", 120, seed)),
          kern(randomProgram("kern", 120, seed + 1)),
          app_layout(core::baselineLayout(app, 0)),
          kern_layout(core::baselineLayout(kern, 0x400000)),
          buf(randomTrace(120, 20000, num_cpus, seed + 2)),
          rep(buf, app_layout, &kern_layout)
    {
    }
};

/** Pools exercised against every oracle: none (serial fused), one
 *  matching a small host, and one wider than any trace's CPU count
 *  (config-chunked sharding). */
struct Pools
{
    support::ThreadPool narrow{2};
    support::ThreadPool wide{8};
    std::vector<support::ThreadPool*> all{nullptr, &narrow, &wide};
};

TEST(ReplayEngine, MatchesICacheOracleRandomized)
{
    Pools pools;
    const auto configs = testConfigs();
    const auto modes = runnableModes();
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 100 + static_cast<std::uint32_t>(cpus));
        ASSERT_EQ(w.rep.numCpus(), cpus);
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            std::vector<ICacheReplayResult> oracle;
            for (const auto& c : configs)
                oracle.push_back(w.rep.icache(c, filter));
            auto expect_oracle =
                [&](const std::vector<ICacheReplayResult>& col,
                    const char* label) {
                    ASSERT_EQ(col.size(), oracle.size()) << label;
                    for (std::size_t i = 0; i < oracle.size(); ++i) {
                        const auto& r = oracle[i];
                        EXPECT_EQ(col[i].accesses, r.accesses)
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].misses, r.misses)
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].app_misses, r.app_misses)
                            << label;
                        EXPECT_EQ(col[i].kernel_misses, r.kernel_misses)
                            << label;
                        for (int m = 0; m < 2; ++m)
                            for (int v = 0; v < 3; ++v)
                                EXPECT_EQ(
                                    col[i].interference.counts[m][v],
                                    r.interference.counts[m][v])
                                    << label << " cpus " << cpus
                                    << " config " << i;
                    }
                };
            for (support::ThreadPool* pool : pools.all) {
                expect_oracle(replayICache(trace, configs, pool), "aos");
                for (SimdMode mode : modes)
                    expect_oracle(
                        replayICache(soa, configs, mode, pool),
                        modeLabel(mode));
            }
        }
    }
}

TEST(ReplayEngine, MatchesThreeCsAndStreamBufferOracles)
{
    Pools pools;
    const auto configs = testConfigs();
    const auto modes = runnableModes();
    for (int cpus : {1, 3, 8}) {
        Workload w(cpus, 200 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            std::vector<mem::ThreeCStats> t_oracle;
            std::vector<mem::StreamBufferStats> s_oracle;
            for (const auto& c : configs) {
                t_oracle.push_back(w.rep.threeCs(c, filter));
                s_oracle.push_back(w.rep.streamBuffer(c, 4, filter));
            }
            auto expect_threec =
                [&](const std::vector<mem::ThreeCStats>& col,
                    const char* label) {
                    ASSERT_EQ(col.size(), t_oracle.size()) << label;
                    for (std::size_t i = 0; i < col.size(); ++i) {
                        const auto& t = t_oracle[i];
                        EXPECT_EQ(col[i].accesses(), t.accesses())
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].compulsory, t.compulsory)
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].capacity, t.capacity)
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].conflict, t.conflict)
                            << label << " cfg " << i;
                    }
                };
            auto expect_sbuf =
                [&](const std::vector<mem::StreamBufferStats>& col,
                    const char* label) {
                    ASSERT_EQ(col.size(), s_oracle.size()) << label;
                    for (std::size_t i = 0; i < col.size(); ++i) {
                        const auto& s = s_oracle[i];
                        EXPECT_EQ(col[i].accesses(), s.accesses())
                            << label << " cpus " << cpus << " cfg " << i;
                        EXPECT_EQ(col[i].l1Misses(), s.l1Misses())
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].streamHits(), s.streamHits())
                            << label << " cfg " << i;
                        EXPECT_EQ(col[i].demandMisses(),
                                  s.demandMisses())
                            << label << " cfg " << i;
                    }
                };
            for (support::ThreadPool* pool : pools.all) {
                expect_threec(replayThreeCs(trace, configs, pool),
                              "aos");
                expect_sbuf(replayStreamBuffer(trace, configs, 4, pool),
                            "aos");
                for (SimdMode mode : modes) {
                    expect_threec(
                        replayThreeCs(soa, configs, mode, pool),
                        modeLabel(mode));
                    expect_sbuf(replayStreamBuffer(soa, configs, 4,
                                                   mode, pool),
                                modeLabel(mode));
                }
            }
        }
    }
}

TEST(ReplayEngine, MatchesInstrumentedOracleIncludingFlush)
{
    Pools pools;
    const auto configs = testConfigs();
    for (int cpus : {2, 5}) {
        Workload w(cpus, 300 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            for (bool flush : {false, true}) {
                for (support::ThreadPool* pool : pools.all) {
                    auto col =
                        replayInstrumented(trace, configs, flush, pool);
                    auto col_soa =
                        replayInstrumented(soa, configs, flush, pool);
                    for (std::size_t i = 0; i < configs.size(); ++i) {
                        auto r = w.rep.instrumented(configs[i], filter,
                                                    flush);
                        expectHistEq(col[i].words_used, r.words_used,
                                     "words_used");
                        expectHistEq(col[i].word_reuse, r.word_reuse,
                                     "word_reuse");
                        expectHistEq(col[i].lifetimes, r.lifetimes,
                                     "lifetimes");
                        // Bit-identical, not just close: the engine
                        // replays the oracle's FP operation sequence.
                        EXPECT_EQ(col[i].unused_word_fraction,
                                  r.unused_word_fraction);
                        EXPECT_EQ(col[i].misses, r.misses);
                        expectHistEq(col_soa[i].words_used,
                                     r.words_used, "soa words_used");
                        expectHistEq(col_soa[i].word_reuse,
                                     r.word_reuse, "soa word_reuse");
                        expectHistEq(col_soa[i].lifetimes, r.lifetimes,
                                     "soa lifetimes");
                        EXPECT_EQ(col_soa[i].unused_word_fraction,
                                  r.unused_word_fraction);
                        EXPECT_EQ(col_soa[i].misses, r.misses);
                    }
                }
            }
        }
    }
}

TEST(ReplayEngine, MatchesITlbOracleAndDynamicInstrs)
{
    Pools pools;
    const std::vector<ITlbSpec> specs = {
        {16, 4 * 1024, 32}, {64, 8 * 1024, 64}, {128, 8 * 1024, 128}};
    const auto modes = runnableModes();
    for (int cpus : {1, 4}) {
        Workload w(cpus, 400 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            ResolvedTrace trace = w.rep.resolve(filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            EXPECT_EQ(trace.instrs, w.rep.dynamicInstrs(filter));
            EXPECT_EQ(soa.instrs, trace.instrs);
            for (support::ThreadPool* pool : pools.all) {
                auto col = replayITlb(trace, specs, pool);
                for (std::size_t i = 0; i < specs.size(); ++i) {
                    auto r = w.rep.itlb(specs[i], filter);
                    EXPECT_EQ(col[i].accesses, r.accesses);
                    EXPECT_EQ(col[i].misses, r.misses);
                }
                // The iTLB kernel is the same scalar walk under every
                // mode; replaying under each pins that equivalence.
                for (SimdMode mode : modes) {
                    auto col_soa = replayITlb(soa, specs, mode, pool);
                    for (std::size_t i = 0; i < specs.size(); ++i) {
                        EXPECT_EQ(col_soa[i].accesses, col[i].accesses)
                            << modeLabel(mode) << " spec " << i;
                        EXPECT_EQ(col_soa[i].misses, col[i].misses)
                            << modeLabel(mode) << " spec " << i;
                    }
                }
            }
        }
    }
}

/**
 * A hierarchy column that exercises the kernel's L1 grouping: the three
 * platform presets (21264 and 21364 share L1 geometry), a duplicate, and
 * small configs — sized so the random traces miss in every level — that
 * share one L1 but differ only in L2, only in iTLB entries, or in both,
 * plus one that differs only in page size (its own group).
 */
std::vector<mem::HierarchyConfig>
hierarchyColumn()
{
    std::vector<mem::HierarchyConfig> col = {
        PlatformParams::alpha21264().hierarchy,
        PlatformParams::alpha21164().hierarchy,
        PlatformParams::sim21364().hierarchy,
        PlatformParams::sim21364().hierarchy,
    };
    mem::HierarchyConfig small;
    small.l1i = {1024, 32, 2};
    small.l1d = {1024, 32, 2};
    small.l2 = {8 * 1024, 64, 4};
    small.itlb_entries = 4;
    small.page_bytes = 1024;
    col.push_back(small);
    mem::HierarchyConfig l2_only = small;
    l2_only.l2 = {4 * 1024, 32, 1};
    col.push_back(l2_only);
    mem::HierarchyConfig itlb_only = small;
    itlb_only.itlb_entries = 8;
    col.push_back(itlb_only);
    mem::HierarchyConfig both = small;
    both.l2 = {16 * 1024, 128, 8};
    both.itlb_entries = 2;
    col.push_back(both);
    mem::HierarchyConfig page = small;
    page.page_bytes = 2048;
    col.push_back(page);
    return col;
}

TEST(ReplayEngine, MatchesHierarchyOracleWithCoherence)
{
    Pools pools;
    const std::vector<mem::HierarchyConfig> configs = hierarchyColumn();
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 500 + static_cast<std::uint32_t>(cpus));
        for (bool coherence : {false, true}) {
            ResolvedTrace trace =
                w.rep.resolve(StreamFilter::Combined, true);
            const ResolvedTraceSoA soa =
                w.rep.resolveSoA(StreamFilter::Combined, true);
            for (support::ThreadPool* pool : pools.all) {
                auto col =
                    replayHierarchy(trace, configs, coherence, pool);
                auto col_soa =
                    replayHierarchy(soa, configs, coherence, pool);
                for (std::size_t i = 0; i < configs.size(); ++i) {
                    auto r = w.rep.hierarchy(configs[i], true,
                                             coherence);
                    const std::string what =
                        "cpus " + std::to_string(cpus) + " cfg " +
                        std::to_string(i) + (coherence ? " +coh" : "");
                    expectStatsEq(col[i].total, r.total,
                                  ("total " + what).c_str());
                    ASSERT_EQ(col[i].per_cpu.size(),
                              r.per_cpu.size());
                    for (std::size_t c = 0; c < r.per_cpu.size(); ++c)
                        expectStatsEq(col[i].per_cpu[c], r.per_cpu[c],
                                      ("per_cpu " + what).c_str());
                    EXPECT_EQ(col[i].instrs, r.instrs) << what;
                    EXPECT_EQ(col[i].fetch_breaks, r.fetch_breaks) << what;
                    expectStatsEq(col_soa[i].total, r.total,
                                  ("soa total " + what).c_str());
                    ASSERT_EQ(col_soa[i].per_cpu.size(),
                              r.per_cpu.size());
                    for (std::size_t c = 0; c < r.per_cpu.size(); ++c)
                        expectStatsEq(col_soa[i].per_cpu[c],
                                      r.per_cpu[c],
                                      ("soa per_cpu " + what).c_str());
                    EXPECT_EQ(col_soa[i].instrs, r.instrs) << what;
                    EXPECT_EQ(col_soa[i].fetch_breaks, r.fetch_breaks)
                        << what;
                }
            }
        }
    }
}

/**
 * The direct SoA resolve (Replayer::resolveSoA) must be bit-identical
 * to the retained transpose route (toSoA of Replayer::resolve) —
 * every column element, partition offset, data ref, and total, across
 * all filters, both include_data settings, and 1/2/4/8-CPU traces.
 * This is the differential oracle that lets the engine run on direct
 * resolve alone.
 */
TEST(ReplayEngine, DirectSoAResolveMatchesTransposeOfAoS)
{
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 700 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            for (bool data : {false, true}) {
                const ResolvedTraceSoA via_aos =
                    toSoA(w.rep.resolve(filter, data));
                const ResolvedTraceSoA direct =
                    w.rep.resolveSoA(filter, data);
                const std::string what =
                    "cpus " + std::to_string(cpus) + " filter " +
                    std::to_string(static_cast<int>(filter)) +
                    (data ? " +data" : "");
                ASSERT_EQ(direct.size(), via_aos.size()) << what;
                ASSERT_EQ(direct.addr, via_aos.addr) << what;
                ASSERT_EQ(direct.bytes, via_aos.bytes) << what;
                ASSERT_EQ(direct.owner, via_aos.owner) << what;
                ASSERT_EQ(direct.flags, via_aos.flags) << what;
                ASSERT_EQ(direct.cpu_begin, via_aos.cpu_begin) << what;
                EXPECT_EQ(direct.num_cpus, via_aos.num_cpus) << what;
                EXPECT_EQ(direct.instr_events, via_aos.instr_events)
                    << what;
                EXPECT_EQ(direct.instrs, via_aos.instrs) << what;
                ASSERT_EQ(direct.data_refs.size(),
                          via_aos.data_refs.size())
                    << what;
                for (std::size_t i = 0; i < direct.data_refs.size();
                     ++i) {
                    EXPECT_EQ(direct.data_refs[i].addr,
                              via_aos.data_refs[i].addr)
                        << what << " data ref " << i;
                    EXPECT_EQ(direct.data_refs[i].cpu,
                              via_aos.data_refs[i].cpu)
                        << what << " data ref " << i;
                }
                for (int c = -1; c <= cpus; ++c)
                    EXPECT_EQ(direct.cpuRange(c), via_aos.cpuRange(c))
                        << what << " cpu " << c;
            }
        }
    }
}

TEST(ReplayEngine, MatchesSequenceOracleOnBothImages)
{
    Pools pools;
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 600 + static_cast<std::uint32_t>(cpus));
        struct Case
        {
            StreamFilter filter;
            trace::ImageId image;
            const core::Layout* layout;
        };
        const Case cases[] = {
            {StreamFilter::AppOnly, trace::ImageId::App,
             &w.app_layout},
            {StreamFilter::KernelOnly, trace::ImageId::Kernel,
             &w.kern_layout},
        };
        for (const Case& c : cases) {
            metrics::SequenceStats oracle = metrics::sequenceLengths(
                w.buf, *c.layout, c.image);
            ResolvedTrace trace = w.rep.resolve(c.filter);
            const ResolvedTraceSoA soa = w.rep.resolveSoA(c.filter);
            for (support::ThreadPool* pool : pools.all) {
                metrics::SequenceStats got = replaySequence(trace, pool);
                expectHistEq(got.lengths, oracle.lengths, "lengths");
                EXPECT_EQ(got.mean, oracle.mean) << "cpus " << cpus;
                EXPECT_EQ(got.mean_block_size, oracle.mean_block_size)
                    << "cpus " << cpus;
                metrics::SequenceStats got_soa =
                    replaySequence(soa, pool);
                expectHistEq(got_soa.lengths, oracle.lengths,
                             "soa lengths");
                EXPECT_EQ(got_soa.mean, oracle.mean) << "cpus " << cpus;
                EXPECT_EQ(got_soa.mean_block_size,
                          oracle.mean_block_size)
                    << "cpus " << cpus;
            }
        }
    }
}

} // namespace
} // namespace spikesim::sim
