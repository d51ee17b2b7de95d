#include "sim/soa.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>

#include "support/panic.hh"

namespace spikesim::sim {

namespace detail {

namespace {

constexpr std::size_t kColumnAlign = ColumnAlloc<char>::kHugeBytes;

/** Mapping length for a column of `bytes`: whole 4 KB pages. */
std::size_t
mappedBytes(std::size_t bytes)
{
    return (bytes + 4095) & ~std::size_t{4095};
}

} // namespace

void*
mapColumn(std::size_t bytes)
{
    // Over-map by one alignment unit, then unmap the unaligned head
    // and the tail past the column.
    const std::size_t body = mappedBytes(bytes);
    const std::size_t len = body + kColumnAlign;
    void* raw = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned =
        (start + kColumnAlign - 1) & ~(kColumnAlign - 1);
    const std::size_t head = aligned - start;
    if (head != 0)
        ::munmap(raw, head);
    if (len - head - body != 0)
        ::munmap(reinterpret_cast<void*>(aligned + body),
                 len - head - body);
    void* p = reinterpret_cast<void*>(aligned);
#ifdef MADV_HUGEPAGE
    // Advisory only: a kernel with THP disabled simply ignores it (or
    // returns EINVAL, equally ignorable) and the column stays on
    // ordinary pages.
    (void)::madvise(p, body, MADV_HUGEPAGE);
#endif
    return p;
}

void
unmapColumn(void* p, std::size_t bytes) noexcept
{
    ::munmap(p, mappedBytes(bytes));
}

} // namespace detail

BlockTables
imageTables(const core::Layout* layout, std::uint32_t blocks)
{
    if (blocks == 0)
        return {};
    SPIKESIM_ASSERT(layout != nullptr,
                    "replaying kernel events requires a kernel layout");
    SPIKESIM_ASSERT(blocks <= layout->blockSizes().size(),
                    "layout covers " << layout->blockSizes().size()
                                     << " blocks, stream needs "
                                     << blocks);
    return {layout->blockAddrs().data(), layout->blockSizes().data()};
}

namespace {

/**
 * Build the filter's stream in one scan of the trace: the per-CPU
 * partitions are sized from the trace's per-(CPU, image) event counts,
 * then every event is written to its CPU's slot. `on_block(cpu,
 * kernel, block)` sees each block ref as it is written, so a caller
 * that binds the stream to layouts can count over the same scan.
 */
template <class OnBlock>
BlockStream
fillBlockStream(const trace::TraceBuffer& trace, StreamFilter filter,
                bool include_data, OnBlock& on_block)
{
    using trace::ImageId;
    BlockStream out;
    out.num_cpus = trace.numCpus();
    const std::size_t n_cpus = static_cast<std::size_t>(out.num_cpus);

    std::size_t n_data = 0;
    out.cpu_begin.assign(n_cpus + 1, 0);
    for (int c = 0; c < out.num_cpus; ++c) {
        std::size_t n = 0;
        for (ImageId image : {ImageId::App, ImageId::Kernel})
            if (wantImage(filter, image))
                n += trace.cpuEvents(c, image);
        if (include_data) {
            n += trace.cpuEvents(c, ImageId::Data);
            n_data += trace.cpuEvents(c, ImageId::Data);
        }
        const std::size_t i = static_cast<std::size_t>(c);
        out.cpu_begin[i + 1] = out.cpu_begin[i] + n;
    }
    SPIKESIM_ASSERT(n_data <= kBlockIdMask + std::size_t{1},
                    n_data << " data events collide with the id tags");
    out.ids.resize(out.cpu_begin[n_cpus]);
    out.data_words.resize(n_data);
    out.data_cpus.resize(n_data);

    std::vector<std::size_t> cursor(out.cpu_begin.begin(),
                                    out.cpu_begin.end() - 1);
    std::vector<std::uint32_t> pending(n_cpus, 0);
    std::uint32_t data = 0;
    for (const trace::TraceEvent& e : trace.events()) {
        if (e.image == ImageId::Data) {
            if (include_data) {
                out.data_words[data] = e.block;
                out.data_cpus[data] = e.cpu;
                out.ids[cursor[e.cpu]++] = data++ | kDataRefTag;
            }
            continue;
        }
        if (!wantImage(filter, e.image)) {
            pending[e.cpu] = kRunBreakTag;
            continue;
        }
        SPIKESIM_ASSERT(e.block <= kBlockIdMask,
                        "block id " << e.block
                                    << " collides with the id tags");
        const bool kernel = e.image == ImageId::Kernel;
        std::uint32_t& blocks = kernel ? out.kernel_blocks : out.app_blocks;
        blocks = std::max(blocks, e.block + 1);
        out.ids[cursor[e.cpu]++] =
            e.block | pending[e.cpu] | (kernel ? kKernelBlockTag : 0u);
        pending[e.cpu] = 0;
        on_block(e.cpu, kernel, e.block);
    }
    return out;
}

/** A bare stream build sizes nothing. */
struct NoSizes
{
    void operator()(std::uint8_t, bool, std::uint32_t) const {}
};

/**
 * Sizes each block ref under the layouts being bound, for
 * ResolvedTraceSoA's instrs and per-CPU non-empty ref counts. An id
 * past a layout's table counts as empty here; imageTables() then
 * rejects the stream once the scan is done.
 */
struct BlockSizes
{
    std::span<const std::uint32_t> sizes[2]; ///< app, kernel
    std::uint64_t instrs = 0;
    std::vector<std::size_t> nonempty; ///< per CPU

    void
    operator()(std::uint8_t cpu, bool kernel, std::uint32_t block)
    {
        const std::span<const std::uint32_t> table = sizes[kernel];
        const std::uint32_t size = block < table.size() ? table[block] : 0;
        instrs += size;
        nonempty[cpu] += size != 0 ? 1 : 0;
    }
};

} // namespace

BlockStream
buildBlockStream(const trace::TraceBuffer& trace, StreamFilter filter,
                 bool include_data)
{
    NoSizes none;
    return fillBlockStream(trace, filter, include_data, none);
}

ResolvedTraceSoA
resolveBlockStream(const trace::TraceBuffer& trace, StreamFilter filter,
                   bool include_data, const core::Layout& app,
                   const core::Layout* kernel)
{
    BlockSizes sizes;
    sizes.sizes[0] = app.blockSizes();
    if (kernel != nullptr)
        sizes.sizes[1] = kernel->blockSizes();
    sizes.nonempty.assign(static_cast<std::size_t>(trace.numCpus()), 0);

    ResolvedTraceSoA out;
    out.stream = fillBlockStream(trace, filter, include_data, sizes);
    out.app = imageTables(&app, out.stream.app_blocks);
    out.kernel = imageTables(kernel, out.stream.kernel_blocks);
    out.instr_events = out.stream.size() - out.stream.data_words.size();
    out.instrs = sizes.instrs;
    out.cpu_refs = std::move(sizes.nonempty);
    if (include_data)
        for (int c = 0; c < out.stream.num_cpus; ++c)
            out.cpu_refs[static_cast<std::size_t>(c)] +=
                trace.cpuEvents(c, trace::ImageId::Data);
    return out;
}

} // namespace spikesim::sim
