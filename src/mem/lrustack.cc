#include "mem/lrustack.hh"

#include "support/panic.hh"

namespace spikesim::mem {

LruStackSim::LruStackSim(std::uint32_t num_sets, std::uint32_t max_assoc,
                         std::uint64_t owner_assocs)
    : set_mask_(num_sets - 1), max_assoc_(max_assoc),
      owner_assocs_(owner_assocs)
{
    SPIKESIM_ASSERT(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
                    "number of sets must be a power of two");
    SPIKESIM_ASSERT(max_assoc > 0 && max_assoc <= 255,
                    "associativity cap must be in [1, 255]");
    stack_.assign(static_cast<std::size_t>(num_sets) * max_assoc, 0);
    depth_.assign(num_sets, 0);
    dist_hist_.assign(static_cast<std::size_t>(max_assoc) + 1, 0);
    if (owner_assocs != 0) {
        SPIKESIM_ASSERT(max_assoc <= 64 &&
                            (max_assoc == 64 ||
                             owner_assocs >> max_assoc == 0),
                        "owner tracking keeps one bit per associativity, "
                        "up to the cap and at most 64 ways");
        owner_bits_.assign(stack_.size(), 0);
        victims_.assign(2 * static_cast<std::size_t>(max_assoc) * 3, 0);
    }
}

std::uint64_t
LruStackSim::victims(std::uint32_t assoc, unsigned m,
                     unsigned victim) const
{
    SPIKESIM_ASSERT(assoc > 0 && assoc <= max_assoc_ &&
                        ((owner_assocs_ >> (assoc - 1)) & 1) != 0 &&
                        m < 2 && victim < 3,
                    "no victim count for assoc " << assoc << ", stream "
                                                 << m << ", owner "
                                                 << victim);
    return victims_[(m * max_assoc_ + (assoc - 1)) * 3 + victim];
}

std::uint64_t
LruStackSim::hitsUpTo(std::uint32_t assoc) const
{
    SPIKESIM_ASSERT(assoc > 0 && assoc <= max_assoc_,
                    "associativity " << assoc << " beyond stack cap "
                                     << max_assoc_);
    std::uint64_t hits = 0;
    for (std::uint32_t d = 0; d < assoc; ++d)
        hits += dist_hist_[d];
    return hits;
}

std::uint64_t
LruStackSim::distanceCount(std::uint32_t d) const
{
    SPIKESIM_ASSERT(d <= max_assoc_, "distance beyond stack cap");
    return dist_hist_[d];
}

} // namespace spikesim::mem
