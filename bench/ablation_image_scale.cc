/**
 * @file
 * Image-scale ablation: how do the layout gains — and especially the
 * effect of whole-procedure ordering alone — depend on the size of the
 * binary? This directly probes the one deviation this reproduction has
 * from the paper: on Oracle's 27MB text, porder alone slightly *hurt*,
 * while on our ~1MB image it helps. If the deviation's explanation is
 * right, porder's benefit should shrink as the image grows while
 * chaining's benefit stays put.
 */

#include "bench/common.hh"
#include "support/panic.hh"

using namespace spikesim;

namespace {

struct Row
{
    std::uint64_t text_kb = 0;
    double porder_gain = 0;
    double chain_gain = 0;
    double all_gain = 0;
};

Row
runScale(double scale, std::uint64_t profile_txns,
         std::uint64_t trace_txns, support::ThreadPool* pool)
{
    sim::SystemConfig config;
    config.app_image_scale = scale;
    sim::System system(config);
    std::cerr << "[scale " << scale << "] image "
              << system.appProg().sizeInstrs() * 4 / 1024
              << "KB text; loading...\n";
    system.setup();
    system.warmup(50);
    sim::System::Profiles profiles =
        system.collectProfiles(profile_txns);
    trace::TraceBuffer buf;
    system.run(trace_txns, buf);

    auto misses = [&](core::OptCombo combo) {
        core::PipelineOptions opts;
        opts.combo = combo;
        opts.text_base = config.app_text_base;
        core::Layout layout =
            core::buildLayout(system.appProg(), profiles.app, opts);
        bench::BenchReplay rep(buf, layout, nullptr, pool);
        return rep.icache({64 * 1024, 128, 4},
                          sim::StreamFilter::AppOnly)
            .misses;
    };
    std::uint64_t base = misses(core::OptCombo::Base);
    auto gain = [&](core::OptCombo combo) {
        return 1.0 - static_cast<double>(misses(combo)) /
                         static_cast<double>(base);
    };
    Row row;
    row.text_kb = system.appProg().sizeInstrs() * 4 / 1024;
    row.porder_gain = gain(core::OptCombo::POrder);
    row.chain_gain = gain(core::OptCombo::Chain);
    row.all_gain = gain(core::OptCombo::All);
    return row;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Image-scale ablation",
                  "layout gains vs binary size (64KB/128B/4-way)");
    const std::string usage =
        "usage: ablation_image_scale [profile_txns] [trace_txns]";
    if (argc > 3)
        support::fatal("too many arguments\n" + usage);
    const std::uint64_t profile_txns =
        argc > 1 ? bench::parseTxnCount(argv[1], "profile_txns", usage)
                 : 500;
    const std::uint64_t trace_txns =
        argc > 2 ? bench::parseTxnCount(argv[2], "trace_txns", usage)
                 : 350;

    support::TablePrinter table({"image scale", "text size",
                                 "porder gain", "chain gain",
                                 "all gain"});
    double porder_small = 0, porder_big = 0;
    const int threads = bench::threadsFromEnv();
    std::unique_ptr<support::ThreadPool> pool;
    if (threads > 0)
        pool = std::make_unique<support::ThreadPool>(threads);
    const double scales[3] = {0.5, 1.0, 3.0};
    for (double scale : scales) {
        Row r = runScale(scale, profile_txns, trace_txns, pool.get());
        if (scale == scales[0])
            porder_small = r.porder_gain;
        if (scale == scales[2])
            porder_big = r.porder_gain;
        table.addRow({support::fixed(scale, 1) + "x",
                      std::to_string(r.text_kb) + "KB",
                      support::percent(r.porder_gain),
                      support::percent(r.chain_gain),
                      support::percent(r.all_gain)});
    }
    table.print(std::cout);
    std::cout << "\n";

    bench::paperVsMeasured(
        "whole-procedure ordering vs binary size",
        "on Oracle's 27MB text porder alone gave a slight *loss*; on a "
        "small image it can only help more",
        "porder gain " + support::percent(porder_small) +
            " on the small image vs " + support::percent(porder_big) +
            " at 3x scale — roughly flat within simulable sizes, so "
            "the binary-size explanation for the porder deviation "
            "remains a hypothesis (see EXPERIMENTS.md)");
    return 0;
}
