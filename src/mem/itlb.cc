#include "mem/itlb.hh"

#include <bit>

#include "support/panic.hh"

namespace spikesim::mem {

ITlb::ITlb(std::uint32_t num_entries, std::uint32_t page_bytes)
{
    SPIKESIM_ASSERT(num_entries > 0, "TLB needs at least one entry");
    SPIKESIM_ASSERT(page_bytes > 0 && (page_bytes & (page_bytes - 1)) == 0,
                    "page size must be a power of two");
    entries_.resize(num_entries);
    page_shift_ =
        static_cast<std::uint32_t>(std::bit_width(page_bytes) - 1);
}

bool
ITlb::access(std::uint64_t addr)
{
    std::uint64_t page = addr >> page_shift_;
    ++now_;
    if (page == last_page_ && last_index_ != kNoEntry) {
        entries_[last_index_].stamp = now_;
        ++hits_;
        return true;
    }
    last_page_ = page;

    std::size_t victim = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Entry& e = entries_[i];
        if (e.valid && e.page == page) {
            e.stamp = now_;
            last_index_ = i;
            ++hits_;
            return true;
        }
        if (!e.valid)
            victim = i;
        else if (entries_[victim].valid &&
                 e.stamp < entries_[victim].stamp)
            victim = i;
    }
    ++misses_;
    Entry& v = entries_[victim];
    v.valid = true;
    v.page = page;
    v.stamp = now_;
    last_index_ = victim;
    return false;
}

void
ITlb::reset()
{
    for (auto& e : entries_)
        e = Entry();
    now_ = 0;
    hits_ = 0;
    misses_ = 0;
    last_page_ = ~0ULL;
    last_index_ = kNoEntry;
}

} // namespace spikesim::mem
