#include "sim/price.hh"

#include "sim/kernels_detail.hh"

namespace spikesim::sim {

LayoutPrice
priceLayout(const BlockStream& stream, const core::Layout& app,
            const core::Layout* kernel, const mem::CacheConfig& config,
            std::span<const ITlbSpec> specs)
{
    LayoutPrice out;
    out.itlb.assign(specs.size(), ITlbReplayResult());
    std::vector<ITlbReplayResult> cpu_itlb(specs.size());
    detail::PriceShard sh;
    sh.app = detail::imageTables(&app, stream.app_blocks);
    sh.kernel = detail::imageTables(kernel, stream.kernel_blocks);
    sh.config = &config;
    sh.specs = specs.data();
    sh.n_specs = specs.size();
    sh.itlb = cpu_itlb.data();
    for (int c = 0; c < stream.num_cpus; ++c) {
        const auto [begin, end] = stream.cpuRange(c);
        support::AccessStats cpu_icache;
        sh.ids = stream.ids.data() + begin;
        sh.n = end - begin;
        sh.icache = &cpu_icache;
        detail::runPriceImpl(sh);
        out.icache += cpu_icache;
        for (std::size_t k = 0; k < specs.size(); ++k)
            out.itlb[k] += cpu_itlb[k];
    }
    return out;
}

} // namespace spikesim::sim
