#include "sim/soa.hh"

#include <sys/mman.h>

#include <cstdint>
#include <new>

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

} // namespace spikesim::sim
