#ifndef SPIKESIM_SIM_SOA_HH
#define SPIKESIM_SIM_SOA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/replay.hh"

/**
 * @file
 * Structure-of-arrays resolved trace: the same CPU-partitioned record
 * stream as sim::ResolvedTrace, but with addr/bytes/owner/flags stored
 * as separate contiguous columns. The replay hot loops consume one or
 * two of the four fields per family (the i-cache kernels read addr and
 * bytes and only branch on owner), so streaming a packed 8-byte addr
 * column instead of striding 24-byte ResolvedRef structs keeps the
 * loads dense, lets the hardware prefetcher see plain unit-stride
 * streams, and gives the SIMD kernels (sim/kernels.hh) contiguous
 * lanes to load from.
 *
 * The conversion is a by-construction bijection on the fields: every
 * SoA replay result is bit-identical to the AoS walk because the
 * per-CPU record sequences are byte-for-byte the same values in the
 * same order. tests/replay_parallel_test.cc fuzzes exactly that claim
 * against the scalar Replayer oracles for all seven families.
 */

namespace spikesim::sim {

namespace detail {
/** madvise(MADV_HUGEPAGE) where available; no-op elsewhere. */
void adviseHugePages(void* p, std::size_t bytes) noexcept;
} // namespace detail

/**
 * Allocator that default-initializes on vector::resize, leaving
 * trivial element types uninitialized. The resolve paths size each
 * column exactly from the ref counts and then write every slot, so
 * plain std::vector's value-init would memset 100+ MB of fresh pages
 * only for the fill pass to touch them all a second time — on this
 * class of trace that is a full third of the resolve phase.
 *
 * Columns of 2 MB and up are additionally allocated 2 MB-aligned and
 * advised MADV_HUGEPAGE: a 10M-ref trace needs ~35k 4 KB pages per
 * resolve, and both the first-touch fill and every subsequent kernel
 * stream over the columns pay the fault/TLB cost. With huge pages the
 * same trace is ~70 mappings. A no-op where THP or madvise is absent.
 */
template <class T>
struct ColumnAlloc : std::allocator<T>
{
    static constexpr std::size_t kHugeBytes = 2ull << 20;

    template <class U>
    struct rebind
    {
        using other = ColumnAlloc<U>;
    };

    T*
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kHugeBytes)
            return std::allocator<T>::allocate(n);
        void* p = ::operator new(bytes, std::align_val_t(kHugeBytes));
        detail::adviseHugePages(p, bytes);
        return static_cast<T*>(p);
    }

    void
    deallocate(T* p, std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kHugeBytes) {
            std::allocator<T>::deallocate(p, n);
            return;
        }
        ::operator delete(static_cast<void*>(p),
                          std::align_val_t(kHugeBytes));
    }

    template <class U>
    void
    construct(U* p) noexcept
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void
    construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/** One resolved-trace column (uninitialized-resize vector). */
template <class T>
using Column = std::vector<T, ColumnAlloc<T>>;

/**
 * Column view of a ResolvedTrace. Owns its columns (the source trace
 * may be dropped after conversion); data_refs is copied verbatim for
 * the hierarchy coherence pass, which needs the global event order.
 */
struct ResolvedTraceSoA
{
    Column<std::uint64_t> addr;
    Column<std::uint32_t> bytes;
    Column<std::uint8_t> owner; ///< mem::Owner as raw uint8
    Column<std::uint8_t> flags; ///< kRefRunBreak etc.
    /** Partition offsets: CPU c owns [cpu_begin[c], cpu_begin[c+1]). */
    std::vector<std::size_t> cpu_begin;
    /** Data references in global trace order (include_data only). */
    std::vector<ResolvedDataRef> data_refs;
    int num_cpus = 1;
    std::uint64_t instr_events = 0;
    std::uint64_t instrs = 0;

    std::size_t size() const { return addr.size(); }

    /** [begin, end) column index range owned by `cpu`. */
    std::pair<std::size_t, std::size_t>
    cpuRange(int cpu) const
    {
        if (cpu < 0 || cpu + 1 >= static_cast<int>(cpu_begin.size()))
            return {0, 0};
        return {cpu_begin[static_cast<std::size_t>(cpu)],
                cpu_begin[static_cast<std::size_t>(cpu) + 1]};
    }
};

/** Tag bit on a BlockStream id: the ref belongs to the kernel image. */
inline constexpr std::uint32_t kKernelBlockTag = 1u << 31;

/**
 * The layout-independent half of a resolved trace: for one
 * StreamFilter, each CPU's block events as global block ids in trace
 * order, kernel-image refs tagged with kKernelBlockTag. Data events
 * and filtered-out images are dropped. Zero-sized blocks are kept,
 * because whether a block has bytes depends on the layout; a pricing
 * walk (sim/price.hh) gathers each ref's (addr, size) from a
 * candidate layout's tables and skips the empty ones, as
 * Replayer::resolveSoA does.
 */
struct BlockStream
{
    /** Tagged block ids, grouped by CPU (exact size). */
    Column<std::uint32_t> ids;
    /** Partition offsets: CPU c owns [cpu_begin[c], cpu_begin[c+1]). */
    std::vector<std::size_t> cpu_begin;
    int num_cpus = 1;
    /** One past the largest app / kernel block id referenced (0 when
     *  the image has no refs): the block tables a layout must cover. */
    std::uint32_t app_blocks = 0;
    std::uint32_t kernel_blocks = 0;

    std::size_t size() const { return ids.size(); }

    /** [begin, end) index range owned by `cpu`. */
    std::pair<std::size_t, std::size_t>
    cpuRange(int cpu) const
    {
        if (cpu < 0 || cpu + 1 >= static_cast<int>(cpu_begin.size()))
            return {0, 0};
        return {cpu_begin[static_cast<std::size_t>(cpu)],
                cpu_begin[static_cast<std::size_t>(cpu) + 1]};
    }
};

/** Transpose a resolved trace into columns (one linear pass). */
ResolvedTraceSoA toSoA(const ResolvedTrace& trace);

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_SOA_HH
