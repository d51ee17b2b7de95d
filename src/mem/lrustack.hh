#ifndef SPIKESIM_MEM_LRUSTACK_HH
#define SPIKESIM_MEM_LRUSTACK_HH

#include <bit>
#include <cstdint>
#include <vector>

/**
 * @file
 * Single-pass multi-configuration cache simulation via Mattson's LRU
 * stack-distance algorithm (Mattson et al., IBM Systems Journal 1970),
 * applied per cache set. For a fixed number of sets, one pass over a
 * line-address stream yields hit/miss counts for *every* associativity
 * simultaneously: an access hits an A-way set-associative true-LRU
 * cache iff its per-set stack distance is < A (the inclusion
 * property). The figure benches sweep dozens of cache geometries over
 * the same trace; this turns each sweep's N full replays into one.
 */

namespace spikesim::mem {

/**
 * Per-set LRU stack-distance simulator for one set count. Stacks are
 * truncated at `max_assoc` entries — distances >= max_assoc are
 * indistinguishable (they miss in every tracked associativity), so the
 * truncation keeps the per-access cost bounded while staying exact for
 * every associativity up to the cap.
 */
class LruStackSim
{
  public:
    /**
     * @param num_sets number of cache sets (power of two).
     * @param max_assoc deepest associativity that will be queried.
     * @param owner_assocs the associativities accessOwned() attributes
     *        misses at, bit A-1 for A ways (0: no owner tracking; else
     *        max_assoc <= 64).
     */
    LruStackSim(std::uint32_t num_sets, std::uint32_t max_assoc,
                std::uint64_t owner_assocs = 0);

    /** Record one access to the given line number. */
    void
    access(std::uint64_t line)
    {
        std::uint64_t set = line & set_mask_;
        std::uint64_t* stack = &stack_[set * max_assoc_];
        std::uint32_t depth = depth_[set];
        std::uint32_t d = 0;
        while (d < depth && stack[d] != line)
            ++d;
        ++dist_hist_[d < depth ? d : max_assoc_];
        ++accesses_;
        // Move-to-front; entries past the cap fall off (they are LRU).
        std::uint32_t shift = d < depth ? d : max_assoc_ - 1;
        if (d >= depth && depth < max_assoc_) {
            shift = depth;
            depth_[set] = static_cast<std::uint8_t>(depth + 1);
        }
        for (std::uint32_t i = shift; i > 0; --i)
            stack[i] = stack[i - 1];
        stack[0] = line;
    }

    /**
     * access() that also attributes misses (the app/kernel
     * interference of Figure 13) at the associativities given as
     * `owner_assocs`; every access must go through here. `m` is the
     * accessing stream (0 app, 1 kernel). An A-way cache holds the
     * set's top A stack entries, so a miss at A (distance >= A)
     * evicts stack[A-1], or fills a cold way when the set holds fewer
     * than A lines. Which stream filled an entry can differ by
     * associativity (a line re-fetched from distance d was refilled
     * only in the caches of at most d ways), so each entry keeps one
     * owner bit per associativity: bit A-1 set = the A-way cache's
     * copy was filled by the kernel stream. Forced inline: GCC kept
     * it out of line in the sweep's walk, a call per line.
     */
    [[gnu::always_inline]] void
    accessOwned(std::uint64_t line, unsigned m)
    {
        std::uint64_t set = line & set_mask_;
        std::uint64_t* stack = &stack_[set * max_assoc_];
        std::uint64_t* bits = &owner_bits_[set * max_assoc_];
        std::uint32_t depth = depth_[set];
        std::uint32_t d = 0;
        while (d < depth && stack[d] != line)
            ++d;
        const bool found = d < depth;
        ++dist_hist_[found ? d : max_assoc_];
        ++accesses_;
        // The line misses (and is refilled by stream m) in every cache
        // of a + 1 <= d ways. At each tracked one the victim is
        // stack[a], cold when the set holds no more than a lines.
        const std::uint32_t missed = found ? d : max_assoc_;
        const std::uint64_t refilled =
            missed >= 64 ? ~0ULL : (1ULL << missed) - 1;
        std::uint64_t* victims = &victims_[m * max_assoc_ * 3];
        for (std::uint64_t left = refilled & owner_assocs_; left != 0;
             left &= left - 1) {
            const auto a = static_cast<std::uint32_t>(std::countr_zero(left));
            ++victims[a * 3 + (a < depth ? (bits[a] >> a) & 1 : 2)];
        }
        const std::uint64_t mine =
            ((found ? bits[d] : 0) & ~refilled) | (m != 0 ? refilled : 0);
        std::uint32_t shift = found ? d : max_assoc_ - 1;
        if (!found && depth < max_assoc_) {
            shift = depth;
            depth_[set] = static_cast<std::uint8_t>(depth + 1);
        }
        for (std::uint32_t i = shift; i > 0; --i) {
            stack[i] = stack[i - 1];
            bits[i] = bits[i - 1];
        }
        stack[0] = line;
        bits[0] = mine;
    }

    /** accessOwned() misses in an `assoc`-way cache (one of
     *  `owner_assocs`) by stream `m` that displaced a line of stream
     *  `victim` (0 app, 1 kernel, 2 = cold fill). */
    std::uint64_t victims(std::uint32_t assoc, unsigned m,
                          unsigned victim) const;

    std::uint64_t accesses() const { return accesses_; }

    /** Hits in an `assoc`-way cache of numSets() sets (assoc <= cap). */
    std::uint64_t hitsUpTo(std::uint32_t assoc) const;

    /** Misses in an `assoc`-way cache of numSets() sets (assoc <= cap). */
    std::uint64_t
    missesAt(std::uint32_t assoc) const
    {
        return accesses_ - hitsUpTo(assoc);
    }

    /** Accesses with stack distance exactly d (d == maxAssoc() bucket
     *  collects all deeper/cold accesses). */
    std::uint64_t distanceCount(std::uint32_t d) const;

    std::uint32_t numSets() const { return set_mask_ + 1; }
    std::uint32_t maxAssoc() const { return max_assoc_; }

  private:
    std::uint64_t set_mask_;
    std::uint32_t max_assoc_;
    std::vector<std::uint64_t> stack_;     ///< num_sets * max_assoc, MRU-first
    std::vector<std::uint8_t> depth_;      ///< valid entries per set
    std::vector<std::uint64_t> dist_hist_; ///< [0, max_assoc]; last = beyond
    /** accessOwned() only: the tracked associativities, per stack
     *  entry an owner bit per assoc, and misses by
     *  [stream][assoc - 1][victim]. */
    std::uint64_t owner_assocs_ = 0;
    std::vector<std::uint64_t> owner_bits_;
    std::vector<std::uint64_t> victims_;
    std::uint64_t accesses_ = 0;
};

} // namespace spikesim::mem

#endif // SPIKESIM_MEM_LRUSTACK_HH
