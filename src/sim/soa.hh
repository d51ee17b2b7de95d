#ifndef SPIKESIM_SIM_SOA_HH
#define SPIKESIM_SIM_SOA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/replay.hh"

/**
 * @file
 * Structure-of-arrays resolved trace: the trace resolved through one
 * (app, kernel) layout pair (Replayer::resolveSoA), partitioned by CPU,
 * with addr/bytes/owner/flags stored as separate contiguous columns.
 * The replay hot loops consume one or two of the four fields per
 * family (the i-cache kernels read addr and bytes and only branch on
 * owner), so streaming a packed 8-byte addr column keeps the loads
 * dense and lets the hardware prefetcher see plain unit-stride
 * streams. It is the only resolved form: the SoA kernels are the one
 * production replay path and the scalar Replayer walks the one oracle
 * (tests/replay_parallel_test.cc bit-compares the two for all seven
 * families; tests/soa_simd_test.cc checks resolveSoA column by column
 * against a walk of the raw trace).
 */

namespace spikesim::sim {

namespace detail {
/** A fresh anonymous mapping of `bytes`, 2 MB-aligned and advised
 *  MADV_HUGEPAGE where available; throws std::bad_alloc on failure. */
void* mapColumn(std::size_t bytes);
/** Return a mapColumn() mapping of `bytes` to the kernel. */
void unmapColumn(void* p, std::size_t bytes) noexcept;
} // namespace detail

/**
 * Allocator that default-initializes on vector::resize, leaving
 * trivial element types uninitialized. The resolve paths size each
 * column exactly from the ref counts and then write every slot, so
 * plain std::vector's value-init would memset 100+ MB of fresh pages
 * only for the fill pass to touch them all a second time — on this
 * class of trace that is a full third of the resolve phase.
 *
 * Columns of 2 MB and up are their own 2 MB-aligned anonymous
 * mappings, advised MADV_HUGEPAGE: a 10M-ref trace needs ~35k 4 KB
 * pages per resolve, and both the first-touch fill and every
 * subsequent kernel stream over the columns pay the fault/TLB cost.
 * With huge pages the same trace is ~70 mappings. They bypass malloc
 * so that freeing one returns its memory at once: through malloc, a
 * freed column raised glibc's dynamic mmap threshold, later columns
 * landed in arena heaps that keep freed memory mapped, and which
 * ones stayed resident depended on thread timing (spikebench
 * ycsb-serving at seed 7 peaked anywhere in 309–388 MB over ten
 * processes; EXPERIMENTS.md).
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
        return static_cast<T*>(detail::mapColumn(bytes));
    }

    void
    deallocate(T* p, std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kHugeBytes) {
            std::allocator<T>::deallocate(p, n);
            return;
        }
        detail::unmapColumn(p, bytes);
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
 * A trace pre-resolved through one (app, kernel) layout pair,
 * partitioned by CPU. Each record is one reference: the byte range
 * it touches (addr, bytes), which stream owns it, and its
 * kRefRunBreak flag. The instruction count of a block ref is bytes /
 * program::kInstrBytes (layouts place blocks at blockSize *
 * kInstrBytes bytes, so the two are locked together). Every cache
 * simulator's state is per-CPU, so replaying cpuRange(c) on its own
 * thread is bit-identical to the interleaved scalar walk — the
 * parallel replay engine (sim/engine.hh) rests on exactly this. When
 * resolved with include_data, each CPU's slice also carries that CPU's
 * data refs (owner == Data, 4 bytes) interleaved in trace order,
 * because a CPU's private L2 sees its instruction and data streams in
 * exactly that order; data_refs additionally keeps the global
 * data-event order for the coherence pass.
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
    /** Filtered block events, including zero-sized blocks. */
    std::uint64_t instr_events = 0;
    /** Dynamic instructions: sum of block sizes over filtered events
     *  (what Replayer::dynamicInstrs walks the raw trace for). */
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

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_SOA_HH
