#include "sim/price.hh"

#include <algorithm>

#include "sim/kernels_detail.hh"
#include "support/panic.hh"

namespace spikesim::sim {

using trace::ImageId;
using trace::TraceEvent;

BlockStream
buildBlockStream(const trace::TraceBuffer& trace, StreamFilter filter)
{
    BlockStream out;
    out.num_cpus = trace.numCpus();
    const std::size_t n_cpus = static_cast<std::size_t>(out.num_cpus);

    std::vector<std::size_t> count(n_cpus, 0);
    for (const TraceEvent& e : trace.events())
        if (wantImage(filter, e.image))
            ++count[e.cpu];
    out.cpu_begin.assign(n_cpus + 1, 0);
    for (std::size_t c = 0; c < n_cpus; ++c)
        out.cpu_begin[c + 1] = out.cpu_begin[c] + count[c];
    out.ids.resize(out.cpu_begin[n_cpus]);

    std::vector<std::size_t> cursor(out.cpu_begin.begin(),
                                    out.cpu_begin.end() - 1);
    for (const TraceEvent& e : trace.events()) {
        if (!wantImage(filter, e.image))
            continue;
        SPIKESIM_ASSERT(e.block < kKernelBlockTag,
                        "block id " << e.block << " collides with the "
                                    << "kernel tag");
        const bool kernel = e.image == ImageId::Kernel;
        std::uint32_t& blocks = kernel ? out.kernel_blocks : out.app_blocks;
        blocks = std::max(blocks, e.block + 1);
        out.ids[cursor[e.cpu]++] = kernel ? e.block | kKernelBlockTag
                                          : e.block;
    }
    return out;
}

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
