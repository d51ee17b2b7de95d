#include "serve/service.hh"

#include <algorithm>

#include "serve/queueing.hh"
#include "sim/kernels_detail.hh"
#include "support/panic.hh"

namespace spikesim::serve {

namespace {

/** Tenant address-space salt: page-granular, far above every text base
 *  and data region, so tenants collide in the shared L2/iTLB only the
 *  way distinct address spaces do (different pages, same capacity). */
constexpr std::uint64_t kTenantSaltShift = 44;

const core::Layout&
layoutFor(trace::ImageId image, const core::Layout& app,
          const core::Layout* kernel)
{
    if (image == trace::ImageId::App)
        return app;
    SPIKESIM_ASSERT(kernel != nullptr,
                    "service model needs a kernel layout for kernel "
                    "events");
    return *kernel;
}

} // namespace

std::vector<std::pair<std::size_t, std::size_t>>
ServiceModel::segments(const trace::TraceBuffer& trace)
{
    std::vector<std::pair<std::size_t, std::size_t>> segs;
    const auto events = trace.events();
    std::size_t start = 0;
    for (std::size_t i = 1; i < events.size(); ++i)
        if (events[i].process != events[i - 1].process) {
            segs.emplace_back(start, i);
            start = i;
        }
    if (start < events.size())
        segs.emplace_back(start, events.size());
    return segs;
}

ServiceModel::ServiceModel(const trace::TraceBuffer& trace,
                           const core::Layout& app,
                           const core::Layout* kernel,
                           const ServiceModelConfig& config)
{
    SPIKESIM_ASSERT(config.tenants >= 1, "tenants must be >= 1");
    const sim::PlatformParams& p = config.platform;
    const mem::HierarchyConfig& h = p.hierarchy;
    const int ncpus = trace.numCpus();
    const std::size_t tenants =
        static_cast<std::size_t>(config.tenants);
    const auto segs = segments(trace);
    const auto events = trace.events();

    // Private L1 I/D per (tenant, cpu); shared L2 + iTLB per cpu. The
    // flat state of the hierarchy replay kernel: only the outcomes are
    // simulated there, each priced in cycles here in access order.
    std::vector<sim::detail::HierarchyL1> l1(
        tenants * static_cast<std::size_t>(ncpus),
        sim::detail::HierarchyL1(h));
    std::vector<sim::detail::HierarchyTail> tail(
        static_cast<std::size_t>(ncpus), sim::detail::HierarchyTail(h));
    std::vector<std::uint64_t> expected(
        tenants * static_cast<std::size_t>(ncpus), ~0ULL);

    const std::uint64_t dline = h.l1d.line_bytes;
    const std::uint32_t ishift = l1.front().icache.shift();
    const std::uint32_t dshift = l1.front().dcache.shift();
    cycles_.reserve(segs.size() * tenants);

    // Tenants execute the trace interleaved one transaction at a time:
    // request g is tenant g % tenants running segment g / tenants.
    for (std::size_t g = 0; g < segs.size() * tenants; ++g) {
        const std::size_t t = g % tenants;
        const auto [seg_begin, seg_end] = segs[g / tenants];
        const std::uint64_t salt = static_cast<std::uint64_t>(t)
                                   << kTenantSaltShift;
        double c = 0.0;
        for (std::size_t i = seg_begin; i < seg_end; ++i) {
            const trace::TraceEvent& e = events[i];
            const std::size_t tc =
                t * static_cast<std::size_t>(ncpus) + e.cpu;
            if (e.image == trace::ImageId::Data) {
                if (!config.include_data)
                    continue;
                const std::uint64_t line =
                    (static_cast<std::uint64_t>(e.block) << 2) &
                    ~(dline - 1);
                if (l1[tc].dcache.access(line >> dshift)) {
                    stats_.mem.l1d.record(false);
                    continue;
                }
                stats_.mem.l1d.record(true);
                c += p.l2_hit_cycles;
                const bool miss = !tail[e.cpu].l2Access(
                    mem::pseudoPhysical(line + salt, h.page_bytes));
                stats_.mem.l2d.record(miss);
                if (miss)
                    c += p.mem_cycles;
                continue;
            }
            const core::Layout& layout = layoutFor(e.image, app, kernel);
            const std::uint64_t bytes = layout.blockBytes(e.block);
            if (bytes == 0)
                continue;
            const std::uint64_t addr = layout.blockAddr(e.block);
            const std::uint64_t end = addr + bytes;
            const std::uint64_t instrs = layout.blockSize(e.block);
            stats_.instrs += instrs;
            c += static_cast<double>(instrs) * p.cpi_base;
            if (addr != expected[tc]) {
                ++stats_.fetch_breaks;
                c += p.fetch_break_cycles;
            }
            expected[tc] = end;
            const std::uint64_t ln_end = (end - 1) >> ishift;
            for (std::uint64_t ln = addr >> ishift; ln <= ln_end; ++ln) {
                const std::uint64_t a = ln << ishift;
                // The iTLB is shared by the CPU's tenants, so a repeat
                // line of this tenant's L1 is not a repeat page for it.
                if (!tail[e.cpu].translate(a + salt)) {
                    ++stats_.mem.itlb_misses;
                    c += p.itlb_cycles;
                }
                if (l1[tc].fetch(ln)) {
                    stats_.mem.l1i.record(false);
                    continue;
                }
                stats_.mem.l1i.record(true);
                c += p.l2_hit_cycles;
                const bool miss = !tail[e.cpu].l2Access(
                    mem::pseudoPhysical(a + salt, h.page_bytes));
                stats_.mem.l2i.record(miss);
                if (miss)
                    c += p.mem_cycles;
            }
        }
        cycles_.push_back(static_cast<std::uint64_t>(c));
    }

    stats_.requests = cycles_.size();
    if (!cycles_.empty()) {
        std::vector<std::uint64_t> sorted = cycles_;
        std::sort(sorted.begin(), sorted.end());
        stats_.min_cycles = sorted.front();
        stats_.max_cycles = sorted.back();
        for (std::uint64_t v : sorted)
            stats_.total_cycles += v;
        stats_.mean_cycles = static_cast<double>(stats_.total_cycles) /
                             static_cast<double>(sorted.size());
        stats_.p50_cycles = percentileSorted(sorted, 0.50);
        stats_.p99_cycles = percentileSorted(sorted, 0.99);
    }
}

} // namespace spikesim::serve
