/**
 * @file
 * Figure 13: interference between application and kernel instruction
 * streams -- for each miss, who owned the displaced line
 * (128KB/128B/4-way, combined streams).
 */

#include "bench/common.hh"

using namespace spikesim;

namespace {

void
matrix(const bench::Workload& w, const core::Layout& app,
       const core::Layout& kernel, const std::string& title,
       double* app_self_frac)
{
    std::cout << title << "\n";
    bench::BenchReplay rep(w, app, &kernel);
    auto r = rep.icacheInterference({128 * 1024, 128, 4},
                                    sim::StreamFilter::Combined);
    const auto& m = r.interference;
    support::TablePrinter table({"missing process", "on app-owned line",
                                 "on kernel-owned line", "cold fill",
                                 "total"});
    const char* names[2] = {"application", "kernel"};
    for (int i = 0; i < 2; ++i)
        table.addRow({names[i], support::withCommas(m.counts[i][0]),
                      support::withCommas(m.counts[i][1]),
                      support::withCommas(m.counts[i][2]),
                      support::withCommas(m.missesBy(i))});
    table.addRow(
        {"both", support::withCommas(m.counts[0][0] + m.counts[1][0]),
         support::withCommas(m.counts[0][1] + m.counts[1][1]),
         support::withCommas(m.counts[0][2] + m.counts[1][2]),
         support::withCommas(r.misses)});
    table.print(std::cout);

    double app_self =
        m.missesBy(0) == 0
            ? 0.0
            : static_cast<double>(m.counts[0][0]) /
                  static_cast<double>(m.missesBy(0));
    double kern_on_app =
        m.missesBy(1) == 0
            ? 0.0
            : static_cast<double>(m.counts[1][0]) /
                  static_cast<double>(m.missesBy(1));
    std::cout << "application self-interference: "
              << support::percent(app_self)
              << "; kernel misses displacing app lines: "
              << support::percent(kern_on_app) << "\n\n";
    if (app_self_frac != nullptr)
        *app_self_frac = app_self;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Figure 13",
                  "app/kernel interference (128KB/128B/4-way)");
    bench::Workload w = bench::runWorkload(argc, argv);
    core::Layout kernel = w.kernelLayout();

    double base_self = 0, opt_self = 0;
    matrix(w, w.appLayout(core::OptCombo::Base), kernel,
           "(a) baseline OLTP binary", &base_self);
    matrix(w, w.appLayout(core::OptCombo::All), kernel,
           "(b) optimized OLTP binary", &opt_self);

    bench::paperVsMeasured(
        "application misses",
        "majority are self-interference; layout optimization reduces "
        "self-interference, raising the kernel's relative share",
        "app self-interference " + support::percent(base_self) +
            " (base) -> " + support::percent(opt_self) + " (optimized)");
    bench::paperVsMeasured(
        "kernel misses",
        "kernel interferes little with itself; most kernel misses are "
        "caused by the application",
        "see the kernel rows above");
    return 0;
}
