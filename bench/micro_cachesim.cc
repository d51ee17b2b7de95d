/**
 * @file
 * Microbenchmarks for the trace-replay and cache simulation machinery
 * (the inner loops of every figure sweep).
 *
 * Before the google-benchmark suite runs, a headline comparison prices
 * the Figure 4 sweep (25 direct-mapped configurations: 5 cache sizes x
 * 5 line sizes) three ways -- per-config replay, single-pass
 * stack-distance sweep, and the parallel sweep executor -- verifies
 * the miss counts are bit-identical, and writes the numbers to
 * BENCH_cachesim.json so the perf trajectory is tracked across PRs.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>

#include "bench/common.hh"
#include "core/pipeline.hh"
#include "mem/cache.hh"
#include "sim/sweep.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"

using namespace spikesim;

namespace {

// RNG stream id for the random-address microbench, derived from the
// shared bench seed (bench::seedFromEnv).
constexpr std::uint64_t kRawAccessStream = 7;

/** Shared workload: image + profile + a modest trace. */
struct Shared
{
    synth::SyntheticProgram image;
    profile::Profile prof;
    trace::TraceBuffer buf;

    Shared()
        : image(synth::buildSyntheticProgram(
              synth::SynthParams::oracleLike())),
          prof(image.prog)
    {
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        trace::TeeSink tee({&rec, &buf});
        synth::CfgWalker w(image.prog, trace::ImageId::App, 1);
        trace::ExecContext ctx;
        for (int i = 0; i < 400; ++i) {
            w.run(image.entry("sql_exec_update"), ctx, tee);
            w.run(image.entry("txn_commit"), ctx, tee);
        }
    }
};

Shared&
shared()
{
    static Shared s;
    return s;
}

core::Layout
layoutFor(core::OptCombo combo)
{
    core::PipelineOptions opts;
    opts.combo = combo;
    return core::buildLayout(shared().image.prog, shared().prof, opts);
}

sim::SweepSpec
fig04Spec()
{
    sim::SweepSpec spec;
    for (std::uint32_t kb : {32, 64, 128, 256, 512})
        spec.size_bytes.push_back(kb * 1024);
    spec.line_bytes = {16, 32, 64, 128, 256};
    spec.assocs = {1};
    return spec;
}

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Headline comparison: per-config replay vs single-pass sweep vs the
 * parallel executor on the 25-configuration Figure 4 sweep, with a
 * differential check that the sweep reproduces the per-config miss
 * counts exactly. Writes BENCH_cachesim.json.
 */
void
runSweepComparison()
{
    using clock = std::chrono::steady_clock;
    Shared& s = shared();
    core::Layout base = layoutFor(core::OptCombo::Base);
    core::Layout opt = layoutFor(core::OptCombo::All);
    sim::SweepSpec spec = fig04Spec();
    sim::Replayer rep(s.buf, base);

    // Per-config path: one full trace replay per configuration.
    auto t0 = clock::now();
    std::vector<std::uint64_t> per_config_misses;
    std::uint64_t line_accesses = 0;
    per_config_misses.reserve(spec.numConfigs());
    for (std::uint32_t size : spec.size_bytes) {
        for (std::uint32_t line : spec.line_bytes) {
            auto r = rep.icache({size, line, 1},
                                sim::StreamFilter::AppOnly);
            per_config_misses.push_back(r.misses);
            line_accesses += r.accesses;
        }
    }
    auto t1 = clock::now();

    // Single-pass path: one walk of the block stream per CPU drives
    // every line size.
    const sim::SweepResult sweep =
        sim::runSweepJobs(s.buf, {{&base, nullptr,
                                   sim::StreamFilter::AppOnly, spec,
                                   "base"}})
            .front();
    auto t2 = clock::now();

    // Differential check: the sweep must be bit-identical.
    std::size_t i = 0;
    std::uint64_t mismatches = 0;
    for (std::uint32_t size : spec.size_bytes)
        for (std::uint32_t line : spec.line_bytes)
            if (sweep.misses(size, line, 1) != per_config_misses[i++])
                ++mismatches;
    if (mismatches != 0) {
        std::cerr << "FATAL: sweep engine diverged from per-config "
                     "replay on "
                  << mismatches << "/" << spec.numConfigs()
                  << " configurations\n";
        std::exit(1);
    }

    // Parallel executor: the same work for two binaries (base + opt),
    // serial vs thread pool.
    std::vector<sim::SweepJob> jobs{
        {&base, nullptr, sim::StreamFilter::AppOnly, spec, "base"},
        {&opt, nullptr, sim::StreamFilter::AppOnly, spec, "opt"},
    };
    auto t3 = clock::now();
    auto serial_results = sim::runSweepJobs(s.buf, jobs, nullptr);
    auto t4 = clock::now();
    support::ThreadPool pool;
    auto parallel_results = sim::runSweepJobs(s.buf, jobs, &pool);
    auto t5 = clock::now();
    for (std::size_t j = 0; j < jobs.size(); ++j)
        for (std::uint32_t size : spec.size_bytes)
            for (std::uint32_t line : spec.line_bytes)
                if (serial_results[j].misses(size, line, 1) !=
                    parallel_results[j].misses(size, line, 1)) {
                    std::cerr << "FATAL: parallel executor diverged "
                                 "from serial sweep\n";
                    std::exit(1);
                }

    const double per_config_s = seconds(t0, t1);
    const double sweep_s = seconds(t1, t2);
    const double serial_jobs_s = seconds(t3, t4);
    const double parallel_jobs_s = seconds(t4, t5);
    const double speedup = per_config_s / sweep_s;
    const double parallel_speedup = serial_jobs_s / parallel_jobs_s;
    const double per_config_eps =
        static_cast<double>(line_accesses) / per_config_s;
    const double sweep_eps =
        static_cast<double>(line_accesses) / sweep_s;

    std::cout << "=== single-pass sweep engine vs per-config replay "
                 "===\n"
              << "trace events:        " << s.buf.size() << "\n"
              << "configurations:      " << spec.numConfigs()
              << " (direct-mapped, fig04 grid)\n"
              << "line accesses:       " << line_accesses << "\n"
              << "per-config replay:   " << per_config_s << " s ("
              << per_config_eps << " accesses/s)\n"
              << "single-pass sweep:   " << sweep_s << " s ("
              << sweep_eps << " accesses/s)\n"
              << "speedup:             " << speedup << "x\n"
              << "2-binary jobs serial:   " << serial_jobs_s << " s\n"
              << "2-binary jobs parallel: " << parallel_jobs_s << " s ("
              << pool.numThreads() << " threads)\n"
              << "parallel speedup:    " << parallel_speedup << "x\n"
              << "differential check:  PASS (miss counts "
                 "bit-identical)\n\n";

    std::ofstream json("BENCH_cachesim.json");
    json << "{\n"
         << "  \"bench\": \"cachesim\",\n"
         << "  \"trace_events\": " << s.buf.size() << ",\n"
         << "  \"configs\": " << spec.numConfigs() << ",\n"
         << "  \"line_accesses\": " << line_accesses << ",\n"
         << "  \"per_config_seconds\": " << per_config_s << ",\n"
         << "  \"per_config_accesses_per_sec\": " << per_config_eps
         << ",\n"
         << "  \"sweep_seconds\": " << sweep_s << ",\n"
         << "  \"sweep_accesses_per_sec\": " << sweep_eps << ",\n"
         << "  \"sweep_speedup\": " << speedup << ",\n"
         << "  \"jobs_serial_seconds\": " << serial_jobs_s << ",\n"
         << "  \"jobs_parallel_seconds\": " << parallel_jobs_s << ",\n"
         << "  \"parallel_threads\": " << pool.numThreads() << ",\n"
         << "  \"parallel_speedup\": " << parallel_speedup << ",\n"
         << "  \"differential_ok\": true\n"
         << "}\n";
    std::cout << "wrote BENCH_cachesim.json\n\n";
}

void
BM_RawCacheAccess(benchmark::State& state)
{
    mem::SetAssocCache cache(
        {64 * 1024, 64, static_cast<std::uint32_t>(state.range(0))});
    support::Pcg32 rng(bench::seedFromEnv(), kRawAccessStream);
    std::vector<std::uint64_t> addrs(1 << 16);
    for (auto& a : addrs)
        a = rng.nextBounded(256 * 1024);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 0xffff], mem::Owner::App).hit);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RawCacheAccess)->Arg(1)->Arg(4)->Arg(8);

void
BM_LineGranularReplay(benchmark::State& state)
{
    Shared& s = shared();
    core::Layout layout = layoutFor(core::OptCombo::Base);
    sim::Replayer rep(s.buf, layout);
    for (auto _ : state) {
        auto r = rep.icache({64 * 1024, 128, 1},
                            sim::StreamFilter::AppOnly);
        benchmark::DoNotOptimize(r.misses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(s.buf.size()));
}
BENCHMARK(BM_LineGranularReplay)->Unit(benchmark::kMillisecond);

void
BM_SinglePassSweep(benchmark::State& state)
{
    Shared& s = shared();
    core::Layout layout = layoutFor(core::OptCombo::Base);
    const std::vector<sim::SweepJob> jobs{
        {&layout, nullptr, sim::StreamFilter::AppOnly, fig04Spec(),
         "base"}};
    const sim::SweepSpec& spec = jobs.front().spec;
    for (auto _ : state) {
        auto r = sim::runSweepJobs(s.buf, jobs).front();
        benchmark::DoNotOptimize(r.misses(64 * 1024, 128, 1));
    }
    // Items = configuration-evaluations (25 per pass).
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(spec.numConfigs()));
}
BENCHMARK(BM_SinglePassSweep)->Unit(benchmark::kMillisecond);

void
BM_WordGranularReplay(benchmark::State& state)
{
    Shared& s = shared();
    core::Layout layout = layoutFor(core::OptCombo::Base);
    sim::Replayer rep(s.buf, layout);
    for (auto _ : state) {
        auto r = rep.instrumented({128 * 1024, 128, 4},
                                  sim::StreamFilter::AppOnly);
        benchmark::DoNotOptimize(r.misses);
    }
}
BENCHMARK(BM_WordGranularReplay)->Unit(benchmark::kMillisecond);

void
BM_HierarchyReplay(benchmark::State& state)
{
    Shared& s = shared();
    core::Layout layout = layoutFor(core::OptCombo::Base);
    sim::Replayer rep(s.buf, layout);
    mem::HierarchyConfig config;
    for (auto _ : state) {
        auto r = rep.hierarchy(config);
        benchmark::DoNotOptimize(r.total.l1i.misses);
    }
}
BENCHMARK(BM_HierarchyReplay)->Unit(benchmark::kMillisecond);

void
BM_CfgWalk(benchmark::State& state)
{
    Shared& s = shared();
    synth::CfgWalker w(s.image.prog, trace::ImageId::App, 99);
    trace::NullSink sink;
    trace::ExecContext ctx;
    program::ProcId entry = s.image.entry("sql_exec_update");
    std::uint64_t instrs = 0;
    for (auto _ : state)
        instrs += w.run(entry, ctx, sink).instrs;
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_CfgWalk);

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // google-benchmark owns the argv, so observability comes from the
    // environment (SPIKESIM_TRACE_OUT / SPIKESIM_MANIFEST_OUT /
    // SPIKESIM_PROGRESS).
    bench::ObsRun obs(bench::obsOptionsFromEnv(), argc, argv);
    runSweepComparison();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    obs.addArtifactFile("BENCH_cachesim.json");
    return 0;
}
