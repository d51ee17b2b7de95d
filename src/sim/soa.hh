#ifndef SPIKESIM_SIM_SOA_HH
#define SPIKESIM_SIM_SOA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/replay.hh"

/**
 * @file
 * The one compact trace form every production replay path walks. A
 * BlockStream holds each CPU's events as 4-byte tagged ids: a global
 * block id, or an index into a global-order data column. It holds no
 * address, so it is built once per (filter, include_data), in one scan
 * of the trace sized from TraceBuffer's per-(CPU, image) counts, and
 * priced under any layout by gathering each ref's (addr, size) from
 * that layout's block tables at walk time: the i-cache and iTLB sweep
 * (sim/sweep.hh) takes the stream and the layouts' tables (the layout
 * search prices each candidate that way, on a stream it builds once;
 * sim::replayICache and sim::replayITlb run it on a resolved trace's
 * stream); the SoA replay kernels (sim/engine.hh) take a
 * ResolvedTraceSoA, the stream bound to one layout pair's tables. The
 * scalar Replayer walks are the one oracle
 * (tests/replay_parallel_test.cc bit-compares the two for all seven
 * families; tests/soa_simd_test.cc decodes resolveSoA ref by ref
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

/** Tag bit on a BlockStream id: the ref belongs to the kernel image. */
inline constexpr std::uint32_t kKernelBlockTag = 1u << 31;
/**
 * Another image's block event took this CPU's fetch unit since its
 * previous wanted-image block event: a filtered-out kernel entry
 * breaks a sequential run even when the addresses abut. Only sequence
 * analysis reads it; a walk that skips a zero-sized block carries the
 * break on to the next non-empty one.
 */
inline constexpr std::uint32_t kRunBreakTag = 1u << 30;
/** The ref is a data event; the bits below the tags index
 *  BlockStream::data_words/data_cpus. */
inline constexpr std::uint32_t kDataRefTag = 1u << 29;
/** The bits below the tags: a global block id or a data index. Both
 *  are asserted to fit when the stream is built. */
inline constexpr std::uint32_t kBlockIdMask = kDataRefTag - 1;

/**
 * The layout-independent form of a trace: for one StreamFilter, each
 * CPU's events as 4-byte tagged ids in trace order. A block event is
 * its global block id, tagged kKernelBlockTag for the kernel image and
 * kRunBreakTag when it is the CPU's first wanted-image event after a
 * filtered-out one. Zero-sized blocks are kept, because whether a
 * block has bytes depends on the layout; a walk gathers each ref's
 * (addr, size) from a layout's block tables (BlockTables) and skips
 * the empty ones. With include_data, a data event is kDataRefTag plus
 * its index into data_words/data_cpus, which hold every data event in
 * global trace order: each CPU's private L2 sees its own data refs in
 * its slice, and the coherence pass walks the global columns.
 */
struct BlockStream
{
    /** Tagged ids, grouped by CPU (exact size). */
    Column<std::uint32_t> ids;
    /** Partition offsets: CPU c owns [cpu_begin[c], cpu_begin[c+1]). */
    std::vector<std::size_t> cpu_begin;
    /** Data events in global trace order (include_data only): the
     *  referenced word (byte address / 4) and the CPU. */
    Column<std::uint32_t> data_words;
    Column<std::uint8_t> data_cpus;
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

/**
 * Reduce the filtered trace to its per-CPU tagged-id stream, data refs
 * included when `include_data` is set, in one scan: the columns are
 * sized exactly from the trace's per-(CPU, image) event counts
 * (TraceBuffer::cpuEvents) and then filled. Dies when a block id or
 * the data-event count reaches the tag bits.
 */
BlockStream buildBlockStream(const trace::TraceBuffer& trace,
                             StreamFilter filter,
                             bool include_data = false);

/** One image's block tables under a layout, by global block id: what a
 *  walk over a BlockStream gathers each ref's (addr, size) from. */
struct BlockTables
{
    const std::uint64_t* addr = nullptr;
    const std::uint32_t* size = nullptr; ///< instructions
};

/** `layout`'s block tables, checked to cover a stream's `blocks` ids
 *  of that image (empty when the stream has none; `layout` may then
 *  be null). */
BlockTables imageTables(const core::Layout* layout, std::uint32_t blocks);

namespace detail {
/** The tables a tagged block id gathers from: the kernel tag picks the
 *  kernel image's. */
inline const BlockTables&
tablesFor(std::uint32_t id, const BlockTables& app,
          const BlockTables& kernel)
{
    return (id & kKernelBlockTag) != 0 ? kernel : app;
}
} // namespace detail

/**
 * A trace resolved through one (app, kernel) layout pair
 * (Replayer::resolveSoA): the filter's BlockStream plus the two
 * layouts' block tables, from which every replay kernel gathers each
 * ref's (addr, size) as it walks. The tables are borrowed, as Replayer
 * borrows the layouts: both layouts must outlive this object (the
 * Replayer that resolved it need not). Every cache simulator's state
 * is per-CPU, so replaying cpuRange(c) on its own thread is
 * bit-identical to the interleaved scalar walk — the parallel replay
 * engine (sim/engine.hh) rests on exactly this. A block ref's
 * instruction count is its table size and its bytes that times
 * program::kInstrBytes (layouts place blocks at blockSize *
 * kInstrBytes bytes); a data ref is one 4-byte word.
 */
struct ResolvedTraceSoA
{
    BlockStream stream;
    BlockTables app;
    BlockTables kernel;
    /** Filtered block events, including zero-sized blocks. */
    std::uint64_t instr_events = 0;
    /** Dynamic instructions: sum of block sizes over filtered events
     *  (what Replayer::dynamicInstrs walks the raw trace for). */
    std::uint64_t instrs = 0;
    /** Per CPU, the non-empty block refs plus data refs in its slice:
     *  what the kernels replay of it. */
    std::vector<std::size_t> cpu_refs;

    /** Non-empty block refs plus data refs over all CPUs. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const std::size_t r : cpu_refs)
            n += r;
        return n;
    }

    /** [begin, end) index range of stream.ids owned by `cpu`. */
    std::pair<std::size_t, std::size_t>
    cpuRange(int cpu) const
    {
        return stream.cpuRange(cpu);
    }
};

/**
 * buildBlockStream(trace, filter, include_data) bound to the block
 * tables of `app` and `kernel` (may be null when the stream has no
 * kernel refs), with instr_events, instrs and cpu_refs counted through
 * the tables' sizes during the same scan: what Replayer::resolveSoA
 * returns. Dies when a layout does not cover the stream's block ids.
 */
ResolvedTraceSoA resolveBlockStream(const trace::TraceBuffer& trace,
                                    StreamFilter filter, bool include_data,
                                    const core::Layout& app,
                                    const core::Layout* kernel);

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_SOA_HH
