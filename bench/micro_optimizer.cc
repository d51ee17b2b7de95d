/**
 * @file
 * google-benchmark microbenchmarks for the optimizer itself: chaining,
 * fine-grain splitting, Pettis-Hansen ordering, and full pipeline
 * throughput on the Oracle-like image.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"
#include "core/chain.hh"
#include "core/pipeline.hh"
#include "core/split.hh"
#include "opt/exttsp.hh"
#include "opt/search.hh"
#include "profile/profile.hh"
#include "synth/synthprog.hh"
#include "synth/walker.hh"

using namespace spikesim;

namespace {

/** Shared, lazily built workload (image + profile). */
struct Shared
{
    synth::SyntheticProgram image;
    profile::Profile prof;

    Shared()
        : image(synth::buildSyntheticProgram(
              synth::SynthParams::oracleLike())),
          prof(image.prog)
    {
        profile::ProfileRecorder rec(trace::ImageId::App, prof);
        synth::CfgWalker w(image.prog, trace::ImageId::App, 1);
        trace::ExecContext ctx;
        std::vector<int> hints{2};
        for (int i = 0; i < 200; ++i) {
            w.run(image.entry("sql_exec_update"), ctx, rec);
            w.run(image.entry("btree_search"), ctx, rec,
                  {hints.data(), hints.size()});
            w.run(image.entry("log_append"), ctx, rec,
                  {hints.data(), hints.size()});
        }
    }
};

Shared&
shared()
{
    static Shared s;
    return s;
}

void
BM_ChainAllProcs(benchmark::State& state)
{
    Shared& s = shared();
    for (auto _ : state) {
        std::uint64_t blocks = 0;
        for (program::ProcId p = 0; p < s.image.prog.numProcs(); ++p)
            blocks += core::chainBasicBlocks(s.image.prog, p, s.prof)
                          .size();
        benchmark::DoNotOptimize(blocks);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(s.image.prog.numBlocks()));
}
BENCHMARK(BM_ChainAllProcs)->Unit(benchmark::kMillisecond);

void
BM_FullPipeline(benchmark::State& state)
{
    Shared& s = shared();
    core::PipelineOptions opts;
    opts.combo = static_cast<core::OptCombo>(state.range(0));
    for (auto _ : state) {
        core::Layout layout =
            core::buildLayout(s.image.prog, s.prof, opts);
        benchmark::DoNotOptimize(layout.textBytes());
    }
    state.SetLabel(core::comboName(opts.combo));
}
BENCHMARK(BM_FullPipeline)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

void
BM_SegmentGraph(benchmark::State& state)
{
    Shared& s = shared();
    // Pre-split everything once.
    std::vector<core::CodeSegment> segs;
    for (program::ProcId p = 0; p < s.image.prog.numProcs(); ++p) {
        auto order = core::chainBasicBlocks(s.image.prog, p, s.prof);
        auto pieces = core::splitFineGrain(s.image.prog, p, order);
        for (auto& seg : pieces)
            segs.push_back(std::move(seg));
    }
    for (auto _ : state) {
        core::SegmentGraph g =
            core::buildSegmentGraph(s.image.prog, s.prof, segs);
        benchmark::DoNotOptimize(g.edges.size());
    }
}
BENCHMARK(BM_SegmentGraph)->Unit(benchmark::kMillisecond);

void
BM_ExtTspScore(benchmark::State& state)
{
    Shared& s = shared();
    core::PipelineOptions opts;
    opts.combo = core::OptCombo::All;
    core::Layout layout = core::buildLayout(s.image.prog, s.prof, opts);
    opt::ExtTspParams params;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            opt::extTspScore(layout, s.prof, params));
    // Items = profiled edges scored per pass.
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(s.prof.edges().size()));
}
BENCHMARK(BM_ExtTspScore)->Unit(benchmark::kMillisecond);

void
BM_ExtTspScorer(benchmark::State& state)
{
    // The search's production path: the same `all` layout's segments
    // scored through the once-per-search table (built outside the loop,
    // as searchLayout does).
    Shared& s = shared();
    core::PipelineOptions opts;
    opts.combo = core::OptCombo::All;
    core::Layout layout = core::buildLayout(s.image.prog, s.prof, opts);
    opt::ExtTspParams params;
    core::AssignOptions aopts;
    aopts.text_base = opts.text_base;
    aopts.segment_align = opts.segment_align;
    const opt::ExtTspScorer scorer(s.image.prog, s.prof, params, aopts);
    for (auto _ : state)
        benchmark::DoNotOptimize(scorer.score(layout.segments()));
    // Items = profiled edges scored per pass, as in BM_ExtTspScore.
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(s.prof.edges().size()));
}
BENCHMARK(BM_ExtTspScorer)->Unit(benchmark::kMillisecond);

void
BM_AnnealEpoch(benchmark::State& state)
{
    Shared& s = shared();
    core::PipelineOptions popts;
    popts.combo = core::OptCombo::All;
    opt::SearchOptions sopts;
    sopts.epochs = 1;
    sopts.batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        opt::SearchResult r =
            opt::searchLayout(s.image.prog, s.prof, popts, sopts);
        benchmark::DoNotOptimize(r.best_score);
    }
    // Items = candidate evaluations (proxy scores) per epoch.
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(sopts.batch));
}
BENCHMARK(BM_AnnealEpoch)->Arg(24)->Unit(benchmark::kMillisecond);

void
BM_SynthesizeImage(benchmark::State& state)
{
    for (auto _ : state) {
        synth::SyntheticProgram sp = synth::buildSyntheticProgram(
            synth::SynthParams::oracleLike(42));
        benchmark::DoNotOptimize(sp.prog.numBlocks());
    }
}
BENCHMARK(BM_SynthesizeImage)->Unit(benchmark::kMillisecond);

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
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
