#ifndef SPIKESIM_MEM_ITLB_HH
#define SPIKESIM_MEM_ITLB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

/**
 * @file
 * Fully-associative LRU instruction TLB (SimOS-Alpha config: 64
 * entries, 8KB pages; the 21164 hardware study uses 48 entries).
 */

namespace spikesim::mem {

/** Fully-associative LRU TLB over virtual page numbers. */
class ITlb
{
  public:
    /** @param num_entries TLB capacity; @param page_bytes page size. */
    explicit ITlb(std::uint32_t num_entries,
                  std::uint32_t page_bytes = 8 * 1024);

    /** Translate the page containing the byte address; true on hit. */
    bool access(std::uint64_t addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    void reset();

  private:
    struct Entry
    {
        std::uint64_t page = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    std::vector<Entry> entries_;
    std::uint32_t page_shift_;
    std::uint64_t now_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    /** One-entry filter: consecutive fetches hit the same page. The
     *  entry is kept as an index, not a pointer, so a copied TLB
     *  stamps its own storage. */
    static constexpr std::size_t kNoEntry = ~std::size_t{0};
    std::uint64_t last_page_ = ~0ULL;
    std::size_t last_index_ = kNoEntry;
};

} // namespace spikesim::mem

#endif // SPIKESIM_MEM_ITLB_HH
