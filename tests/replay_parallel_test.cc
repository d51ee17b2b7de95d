/**
 * @file
 * Randomized differential tests for the production replay path
 * (sim/engine.hh): on random programs and multi-CPU traces with app +
 * kernel images and data noise, every simulator family — fused i-cache
 * with interference, three-C, stream buffers, instrumented word stats,
 * iTLB, full hierarchy with coherence, and sequence analysis — is
 * replayed over a Replayer::resolveSoA trace and must be bit-identical
 * to its one oracle, the scalar per-config Replayer/metrics walk. Each
 * family runs serial-fused (no pool), on a 2-thread pool, and on an
 * 8-thread pool wider than most traces' CPU count (which engages the
 * per-(cpu, config-chunk) sharding path). The kernels have no
 * tolerance: miss counts, classification counts, and interference
 * matrices must match the scalar Replayer bit for bit. An empty
 * configuration span returns an empty column and runs no shard.
 */

#include <gtest/gtest.h>

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
    for (int cpus : {1, 2, 4, 8}) {
        Workload w(cpus, 100 + static_cast<std::uint32_t>(cpus));
        ASSERT_EQ(w.rep.numCpus(), cpus);
        for (StreamFilter filter : kFilters) {
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
            for (support::ThreadPool* pool : pools.all)
                expect_oracle(replayICache(soa, configs, SimdMode::Auto,
                                           pool),
                              "soa");
        }
    }
}

TEST(ReplayEngine, MatchesThreeCsAndStreamBufferOracles)
{
    Pools pools;
    const auto configs = testConfigs();
    for (int cpus : {1, 3, 8}) {
        Workload w(cpus, 200 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
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
                expect_threec(
                    replayThreeCs(soa, configs, SimdMode::Auto, pool),
                    "soa");
                expect_sbuf(replayStreamBuffer(soa, configs, 4,
                                               SimdMode::Auto, pool),
                            "soa");
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
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            for (bool flush : {false, true}) {
                std::vector<WordStats> oracle;
                for (const auto& c : configs)
                    oracle.push_back(w.rep.instrumented(c, filter, flush));
                for (support::ThreadPool* pool : pools.all) {
                    auto col =
                        replayInstrumented(soa, configs, flush, pool);
                    ASSERT_EQ(col.size(), oracle.size());
                    for (std::size_t i = 0; i < configs.size(); ++i) {
                        const WordStats& r = oracle[i];
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
    for (int cpus : {1, 4}) {
        Workload w(cpus, 400 + static_cast<std::uint32_t>(cpus));
        for (StreamFilter filter : kFilters) {
            const ResolvedTraceSoA soa = w.rep.resolveSoA(filter);
            EXPECT_EQ(soa.instrs, w.rep.dynamicInstrs(filter));
            std::vector<ITlbReplayResult> oracle;
            for (const auto& spec : specs)
                oracle.push_back(w.rep.itlb(spec, filter));
            for (support::ThreadPool* pool : pools.all) {
                auto col = replayITlb(soa, specs, SimdMode::Auto, pool);
                ASSERT_EQ(col.size(), oracle.size());
                for (std::size_t i = 0; i < specs.size(); ++i) {
                    EXPECT_EQ(col[i].accesses, oracle[i].accesses)
                        << "cpus " << cpus << " spec " << i;
                    EXPECT_EQ(col[i].misses, oracle[i].misses)
                        << "cpus " << cpus << " spec " << i;
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
        const ResolvedTraceSoA soa =
            w.rep.resolveSoA(StreamFilter::Combined, true);
        for (bool coherence : {false, true}) {
            std::vector<HierarchyReplayResult> oracle;
            for (const auto& c : configs)
                oracle.push_back(w.rep.hierarchy(c, true, coherence));
            for (support::ThreadPool* pool : pools.all) {
                auto col = replayHierarchy(soa, configs, coherence, pool);
                ASSERT_EQ(col.size(), oracle.size());
                for (std::size_t i = 0; i < configs.size(); ++i) {
                    const HierarchyReplayResult& r = oracle[i];
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
                }
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
            const ResolvedTraceSoA soa = w.rep.resolveSoA(c.filter);
            for (support::ThreadPool* pool : pools.all) {
                metrics::SequenceStats got = replaySequence(soa, pool);
                expectHistEq(got.lengths, oracle.lengths, "lengths");
                EXPECT_EQ(got.mean, oracle.mean) << "cpus " << cpus;
                EXPECT_EQ(got.mean_block_size, oracle.mean_block_size)
                    << "cpus " << cpus;
            }
        }
    }
}

TEST(ReplayEngine, EmptyColumnsReturnEmpty)
{
    Pools pools;
    Workload w(3, 700);
    const ResolvedTraceSoA soa =
        w.rep.resolveSoA(StreamFilter::Combined, true);
    const std::span<const mem::CacheConfig> caches;
    const std::span<const ITlbSpec> specs;
    const std::span<const mem::HierarchyConfig> hierarchies;
    // Every shard the engine runs bumps this counter (see
    // forEachShard); an empty column must run none, on any pool.
    const obs::Counter& shards = obs::counter("sim.replay.shards");
    for (support::ThreadPool* pool : pools.all) {
        const std::uint64_t before = shards.value();
        const SimdMode mode = SimdMode::Auto;
        EXPECT_TRUE(replayICache(soa, caches, mode, pool).empty());
        EXPECT_TRUE(replayThreeCs(soa, caches, mode, pool).empty());
        EXPECT_TRUE(
            replayStreamBuffer(soa, caches, 4, mode, pool).empty());
        EXPECT_TRUE(replayITlb(soa, specs, mode, pool).empty());
        for (bool flag : {false, true}) {
            EXPECT_TRUE(replayInstrumented(soa, caches, flag, pool).empty());
            EXPECT_TRUE(
                replayHierarchy(soa, hierarchies, flag, pool).empty());
        }
        EXPECT_EQ(shards.value(), before)
            << (pool == nullptr ? 0 : pool->numThreads()) << " threads";
    }
}

} // namespace
} // namespace spikesim::sim
