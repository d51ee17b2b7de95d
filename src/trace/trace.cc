#include "trace/trace.hh"

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "support/panic.hh"

namespace spikesim::trace {

TeeSink::TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks))
{
    for (auto* s : sinks_)
        SPIKESIM_ASSERT(s != nullptr, "TeeSink given a null sink");
}

void
TeeSink::onBlock(const ExecContext& ctx, ImageId image,
                 program::GlobalBlockId block)
{
    for (auto* s : sinks_)
        s->onBlock(ctx, image, block);
}

void
TeeSink::onEdge(ImageId image, program::GlobalBlockId from,
                program::GlobalBlockId to)
{
    for (auto* s : sinks_)
        s->onEdge(image, from, to);
}

void
TeeSink::onCall(ImageId image, program::GlobalBlockId caller_block,
                program::ProcId callee)
{
    for (auto* s : sinks_)
        s->onCall(image, caller_block, callee);
}

void
TeeSink::onData(const ExecContext& ctx, std::uint64_t byte_addr)
{
    for (auto* s : sinks_)
        s->onData(ctx, byte_addr);
}

void
TraceBuffer::onBlock(const ExecContext& ctx, ImageId image,
                     program::GlobalBlockId block)
{
    TraceEvent e;
    e.block = block;
    e.process = ctx.process;
    e.cpu = ctx.cpu;
    e.image = image;
    events_.push_back(e);
    count(e.cpu, image);
}

void
TraceBuffer::onData(const ExecContext& ctx, std::uint64_t byte_addr)
{
    TraceEvent e;
    e.block = static_cast<std::uint32_t>(byte_addr >> 2);
    e.process = ctx.process;
    e.cpu = ctx.cpu;
    e.image = ImageId::Data;
    events_.push_back(e);
    count(e.cpu, ImageId::Data);
}

void
TraceBuffer::reserve(std::size_t n)
{
    if (n <= events_.capacity())
        return;
    events_.reserve(n);
#ifdef __linux__
    // Large reservations are about to be filled front to back, so tell
    // the kernel up front instead of paying ~50k first-touch faults on
    // a 200MB buffer: prefault the whole range in one syscall where
    // MADV_POPULATE_WRITE exists (5.14+), and ask for 2MB pages on the
    // interior when THP is in madvise mode. Both are best-effort:
    // errors are ignored and writes just fault on demand.
    const std::size_t bytes = events_.capacity() * sizeof(TraceEvent);
    if (bytes >= (std::size_t{8} << 20)) {
        const auto addr = reinterpret_cast<std::uintptr_t>(events_.data());
#ifdef MADV_HUGEPAGE
        constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
        const std::uintptr_t hlo = (addr + kHuge - 1) & ~(kHuge - 1);
        const std::uintptr_t hhi = (addr + bytes) & ~(kHuge - 1);
        if (hhi > hlo)
            ::madvise(reinterpret_cast<void*>(hlo), hhi - hlo,
                      MADV_HUGEPAGE);
#endif
#ifdef MADV_POPULATE_WRITE
        constexpr std::uintptr_t kPage = 4096;
        const std::uintptr_t plo = (addr + kPage - 1) & ~(kPage - 1);
        const std::uintptr_t phi = (addr + bytes) & ~(kPage - 1);
        if (phi > plo)
            ::madvise(reinterpret_cast<void*>(plo), phi - plo,
                      MADV_POPULATE_WRITE);
#endif
    }
#endif
}

std::uint64_t
TraceBuffer::imageEvents(ImageId image) const
{
    std::uint64_t n = 0;
    for (int c = 0; c <= max_cpu_; ++c)
        n += cpuEvents(c, image);
    return n;
}

std::uint64_t
TraceBuffer::dynamicInstrs(const program::Program& prog, ImageId image) const
{
    std::uint64_t total = 0;
    for (const auto& e : events_)
        if (e.image == image)
            total += prog.block(e.block).sizeInstrs;
    return total;
}

} // namespace spikesim::trace
