#ifndef SPIKESIM_MEM_HIERARCHY_HH
#define SPIKESIM_MEM_HIERARCHY_HH

#include <bit>
#include <cstdint>

#include "mem/cache.hh"
#include "mem/itlb.hh"

/**
 * @file
 * Two-level memory hierarchy for one processor: split L1 I/D caches, a
 * unified L2, and an instruction TLB. Matches the paper's base SimOS
 * configuration (64KB 2-way L1s with 64B lines, 1.5MB 6-way unified
 * L2, 64-entry fully associative iTLB, 8KB pages). Used for the Figure
 * 14 (iTLB + L2) and Figure 15 (execution time) experiments.
 */

namespace spikesim::mem {

/** Per-CPU hierarchy geometry. */
struct HierarchyConfig
{
    CacheConfig l1i{64 * 1024, 64, 2};
    CacheConfig l1d{64 * 1024, 64, 2};
    CacheConfig l2{1536 * 1024, 64, 6};
    std::uint32_t itlb_entries = 64;
    std::uint32_t page_bytes = 8 * 1024;
};

/**
 * Aggregate miss counters for one hierarchy: one support::AccessStats
 * per cache view (l1i.accesses = instruction fetches, l1d.accesses =
 * data refs, l2i/l2d = the L2 split by requester), plus the two
 * counters with no hit notion.
 */
struct HierarchyStats
{
    support::AccessStats l1i;
    support::AccessStats l1d;
    support::AccessStats l2i;
    support::AccessStats l2d;
    std::uint64_t itlb_misses = 0;
    /** Coherence (communication) misses on shared data lines; filled
     *  by the multi-CPU replayer, not by a single hierarchy. */
    std::uint64_t comm_misses = 0;

    HierarchyStats& operator+=(const HierarchyStats& o);
};

/**
 * Pseudo-physical address: virtual pages are scattered by a fixed hash,
 * the way an OS's physical page allocator scatters them. The L2/board
 * cache is physically indexed, so without this every image and data
 * region would collide at the same cache offsets merely because their
 * virtual bases are aligned. `page_bytes` must be a power of two (the
 * iTLB requires it of every HierarchyConfig).
 */
inline std::uint64_t
pseudoPhysical(std::uint64_t addr, std::uint32_t page_bytes = 8 * 1024)
{
    const int shift = std::countr_zero(page_bytes);
    std::uint64_t hashed = (addr >> shift) * 0x9e3779b97f4a7c15ULL;
    hashed ^= hashed >> 29;
    return (hashed << shift) | (addr & (page_bytes - 1));
}

/** One processor's caches + iTLB. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig& config);

    /**
     * Fetch the instruction cache line at `addr` (one access per line
     * the caller touches). Owner distinguishes App/Kernel text.
     */
    void fetchLine(std::uint64_t addr, Owner owner);

    /** Reference the data cache line at `addr`. */
    void dataLine(std::uint64_t addr);

    const HierarchyStats& stats() const { return stats_; }
    const HierarchyConfig& config() const { return config_; }

  private:
    HierarchyConfig config_;
    SetAssocCache l1i_;
    SetAssocCache l1d_;
    SetAssocCache l2_;
    ITlb itlb_;
    HierarchyStats stats_;
};

} // namespace spikesim::mem

#endif // SPIKESIM_MEM_HIERARCHY_HH
