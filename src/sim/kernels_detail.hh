#ifndef SPIKESIM_SIM_KERNELS_DETAIL_HH
#define SPIKESIM_SIM_KERNELS_DETAIL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/hierarchy.hh"
#include "mem/streambuf.hh"
#include "mem/threec.hh"
#include "program/program.hh"
#include "sim/kernels.hh"
#include "support/histogram.hh"
#include "support/panic.hh"

/**
 * @file
 * The fused replay kernels, one per simulator family, and the pieces
 * they share. sim/engine.cc runs each kernel on detail::Shard cells
 * (one CPU's slice, one config chunk); every kernel overwrites its
 * cell's outputs and nothing else.
 *
 * The i-cache, three-C, stream-buffer, iTLB and instrumented kernels
 * are one walk with different probes. The shared pieces are cursors
 * that the kernels' own loops call, not callbacks: GCC kept probe
 * lambdas out of line, a call per ref.
 *
 *  - InstrRefWalk: the per-CPU instruction-ref walk. It streams the
 *    addr/bytes columns kRefPrefetch refs ahead, skips Owner::Data
 *    refs, and hands each ref over as its [addr, last_byte] range.
 *
 *  - groupBySize: configs are grouped by line size (the iTLB: by fetch
 *    granularity), since configs of one line size step through the
 *    same line sequence.
 *
 *  - LineCursor: per group, every line of every ref counts as one
 *    access (line_steps), and a line equal to the group's previous
 *    line is skipped. A repeat line is the MRU entry of its set in
 *    every member cache (and the MRU page of every iTLB): a hit with
 *    no state change, so only the counter moves. Instruction streams
 *    are sequential, so this path takes a large share of fetches.
 *
 * The i-cache and three-C kernels also share one tag-table layout
 * (TagTables):
 *
 *  - Direct-mapped members share one inclusive check: the set masks
 *    at one line size are nested low-bit masks, so if the fewest-set
 *    table's slot holds the line, every table's slot does (the last
 *    write to the coarse slot wrote this line to all tables, and any
 *    later line that evicts it from a finer table would also have
 *    evicted it from the coarse one). One compare answers the whole
 *    member list; only on failure are the tables probed per member.
 *
 *  - Set-associative members keep true-LRU state as an age
 *    permutation (0 = MRU .. assoc-1 = LRU) per set, updated
 *    branch-free: age[w] += (age[w] < age[touched]); age[touched] = 0.
 *    Ages are initialized to way index, which reproduces the scalar
 *    SetAssocCache victim order exactly (invalid ways fill from the
 *    highest index down, then true LRU).
 *
 * Interference attribution needs the victim owner, so every i-cache
 * table slot also carries an owner byte (0 app / 1 kernel / 2 cold)
 * that is only written on fills, identical to the oracle's owner-tag
 * semantics.
 *
 * The hierarchy kernel (data refs too, one L1 per group of equal L1
 * geometry) and the layout-pricing kernel keep their own walks; the
 * hierarchy's flat per-CPU state also backs serve::ServiceModel.
 */

namespace spikesim::sim::detail {

inline constexpr std::uint64_t kInvalidTag = ~0ULL;
/** Victim-owner code for an invalid (cold) entry. */
inline constexpr std::uint8_t kOwnerCold = 2;

/** How many refs ahead the column prefetches run. */
inline constexpr std::size_t kRefPrefetch = 24;
/** Lead (in refs) for the tag-line prefetch of the biggest DM table. */
inline constexpr std::size_t kTagPrefetch = 4;

/** One instruction ref of a CPU's slice, as the walks see it. */
struct InstrRef
{
    std::uint64_t addr = 0;      ///< first byte
    std::uint64_t last_byte = 0; ///< last byte (inclusive)
    std::uint8_t owner = 0;      ///< mem::Owner::App or Owner::Kernel
    /** Address kTagPrefetch refs ahead (this ref's near the end). */
    std::uint64_t ahead = 0;
};

/**
 * The per-CPU instruction-ref walk: next() yields CPU `cpu`'s
 * instruction refs in trace order, skipping Owner::Data refs and
 * streaming the addr/bytes columns kRefPrefetch refs ahead.
 */
class InstrRefWalk
{
  public:
    InstrRefWalk(const ResolvedTraceSoA& soa, int cpu)
        : addrs_(soa.addr.data()), sizes_(soa.bytes.data()),
          owners_(soa.owner.data())
    {
        const auto [begin, end] = soa.cpuRange(cpu);
        i_ = begin;
        end_ = end;
    }

    /** Load the next instruction ref into `r`; false at the end. */
    bool
    next(InstrRef& r)
    {
        for (; i_ < end_; ++i_) {
            // Prefetching one address pulls its whole cache line of
            // packed 8-byte entries.
            if (i_ + kRefPrefetch < end_) {
                __builtin_prefetch(addrs_ + i_ + kRefPrefetch);
                __builtin_prefetch(sizes_ + i_ + kRefPrefetch);
            }
            if (owners_[i_] == static_cast<std::uint8_t>(mem::Owner::Data))
                continue;
            r.addr = addrs_[i_];
            r.last_byte = r.addr + sizes_[i_] - 1;
            r.owner = owners_[i_];
            r.ahead = addrs_[i_ + kTagPrefetch < end_ ? i_ + kTagPrefetch
                                                     : i_];
            ++i_;
            return true;
        }
        return false;
    }

  private:
    const std::uint64_t* addrs_;
    const std::uint32_t* sizes_;
    const std::uint8_t* owners_;
    std::size_t i_ = 0;
    std::size_t end_ = 0;
};

/** A cache config's line size, once its geometry checks out. */
inline std::uint32_t
checkedLineBytes(const mem::CacheConfig& c)
{
    const std::string err = c.check();
    SPIKESIM_ASSERT(err.empty(), "bad cache config: " << err);
    return c.line_bytes;
}

/**
 * Group configs [k0, k1) by the power-of-two size bytes(config) (line
 * size, or an iTLB spec's fetch granularity): each group's `shift` is
 * that size's log2, groups keep first-appearance order, and
 * add(group, config, slot) files each config under its chunk-relative
 * slot k - k0.
 */
template <typename Group, typename Config, typename Bytes, typename Add>
inline std::vector<Group>
groupBySize(const Config* configs, std::size_t k0, std::size_t k1,
            Bytes&& bytes, Add&& add)
{
    std::vector<Group> groups;
    for (std::size_t k = k0; k < k1; ++k) {
        const auto shift = static_cast<std::uint32_t>(
            std::bit_width(bytes(configs[k])) - 1);
        Group* g = nullptr;
        for (Group& cand : groups)
            if (cand.shift == shift)
                g = &cand;
        if (g == nullptr) {
            g = &groups.emplace_back();
            g->shift = shift;
        }
        add(*g, configs[k], k - k0);
    }
    return groups;
}

/** The lines of one ref that need a probe: [first, last], empty when
 *  first > last. */
struct LineSpan
{
    std::uint64_t first = 0;
    std::uint64_t last = 0;
};

/** One group's line-step cursor: the access count and the repeat-line
 *  skip every line-granular family shares. */
struct LineCursor
{
    std::uint32_t shift = 0; ///< log2 of the line (fetch) size
    std::uint64_t line_steps = 0;
    std::uint64_t last_line = kInvalidTag;

    /** Count every line of [addr, last_byte] as one access and return
     *  the lines to probe: all of them, minus a first line that repeats
     *  the previous ref's last line (lines only grow within a ref, so no
     *  later line can repeat). */
    LineSpan
    step(std::uint64_t addr, std::uint64_t last_byte)
    {
        const std::uint64_t first = addr >> shift;
        const std::uint64_t last = last_byte >> shift;
        line_steps += last - first + 1;
        const LineSpan span{first + (first == last_line ? 1 : 0), last};
        last_line = last;
        return span;
    }
};

/** One direct-mapped configuration of a line-size group. */
struct DmMember
{
    std::uint64_t mask = 0;   ///< sets - 1
    std::uint64_t offset = 0; ///< start of this table in dm_tags
    std::uint32_t sets = 0;
    std::size_t slot = 0; ///< config index relative to the chunk
};

/** One set-associative configuration of a line-size group. */
struct AssocMember
{
    std::size_t slot = 0;
    std::uint32_t assoc = 0;
    std::uint64_t set_mask = 0;
    std::size_t base = 0; ///< start in am_tags/am_ages (and owners)
};

/** The tag tables of one line-size group: concatenated direct-mapped
 *  tables, and age-permutation sets for the associative members. */
struct TagTables
{
    std::vector<DmMember> dm;
    std::size_t dm_min = 0; ///< member with the fewest sets
    std::size_t dm_big = 0; ///< member with the most sets (prefetch)
    std::vector<std::uint64_t> dm_tags;

    std::vector<AssocMember> am;
    std::vector<std::uint64_t> am_tags;
    std::vector<std::uint64_t> am_ages;

    /** File config `c` under chunk slot `slot`; true when it is
     *  direct-mapped. */
    bool
    addMember(const mem::CacheConfig& c, std::size_t slot)
    {
        const std::uint32_t sets = c.numSets();
        if (c.assoc == 1) {
            DmMember d;
            d.mask = sets - 1;
            d.sets = sets;
            d.slot = slot;
            dm.push_back(d);
            return true;
        }
        AssocMember a;
        a.slot = slot;
        a.assoc = c.assoc;
        a.set_mask = sets - 1;
        am.push_back(a);
        return false;
    }

    /** Lay out and reset the tables once every member is added. */
    void
    layoutTables()
    {
        std::uint64_t off = 0;
        for (std::size_t j = 0; j < dm.size(); ++j) {
            DmMember& d = dm[j];
            d.offset = off;
            off += d.sets;
            if (d.sets < dm[dm_min].sets)
                dm_min = j;
            if (d.sets > dm[dm_big].sets)
                dm_big = j;
        }
        dm_tags.assign(off, kInvalidTag);

        std::size_t am_off = 0;
        for (AssocMember& a : am) {
            a.base = am_off;
            am_off += static_cast<std::size_t>(a.set_mask + 1) * a.assoc;
        }
        am_tags.assign(am_off, kInvalidTag);
        am_ages.resize(am_off);
        for (const AssocMember& a : am)
            for (std::size_t s = 0; s <= a.set_mask; ++s)
                for (std::uint32_t w = 0; w < a.assoc; ++w)
                    am_ages[a.base + s * a.assoc + w] = w;
    }

    /** The inclusive check (needs a DM member): the fewest-set table
     *  holds `ln`, so every DM table does. */
    bool
    dmHit(std::uint64_t ln) const
    {
        const DmMember& mn = dm[dm_min];
        return dm_tags[mn.offset + (ln & mn.mask)] == ln;
    }

    /** Index of the first way of `ln`'s set in member `a`. */
    static std::size_t
    amSet(const AssocMember& a, std::uint64_t ln)
    {
        return a.base + (ln & a.set_mask) * a.assoc;
    }
};

/** Stats-only set-associative probe (no owner tags): true on hit,
 *  fills the LRU victim on miss. Same age-permutation scheme as
 *  ScalarProbe::amProbe. `tags`/`ages` point at the set; the age type
 *  only needs to hold assoc - 1. */
struct ScalarStatsProbe
{
    template <class Age>
    static bool
    amAccess(std::uint64_t* tags, Age* ages, std::uint32_t assoc,
             std::uint64_t ln)
    {
        std::uint32_t hit = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w)
            hit = tags[w] == ln ? w : hit;
        if (hit < assoc) {
            const Age h = ages[hit];
            for (std::uint32_t w = 0; w < assoc; ++w)
                ages[w] += static_cast<Age>(ages[w] < h);
            ages[hit] = 0;
            return true;
        }
        const Age lru = static_cast<Age>(assoc - 1);
        std::uint32_t v = 0;
        for (std::uint32_t w = 0; w < assoc; ++w)
            v = ages[w] == lru ? w : v;
        tags[v] = ln;
        for (std::uint32_t w = 0; w < assoc; ++w)
            ages[w] += static_cast<Age>(ages[w] < lru);
        ages[v] = 0;
        return false;
    }
};

/** All i-cache configurations sharing one line size, plus their cache
 *  state and victim-owner bytes. */
struct LineGroup : LineCursor, TagTables
{
    std::vector<std::uint8_t> dm_owners;
    std::vector<std::uint8_t> am_owners;
};

/** Branch-lean i-cache probes. */
struct ScalarProbe
{
    /** Probe every direct-mapped member (the inclusive check already
     *  failed); count misses and fill. */
    static void
    dmSlow(LineGroup& g, std::uint64_t ln, unsigned m,
           std::array<std::uint64_t, 6>* intf)
    {
        std::uint64_t* tags = g.dm_tags.data();
        std::uint8_t* own = g.dm_owners.data();
        for (const DmMember& d : g.dm) {
            const std::uint64_t idx = d.offset + (ln & d.mask);
            if (tags[idx] != ln) {
                ++intf[d.slot][m * 3 + own[idx]];
                tags[idx] = ln;
                own[idx] = static_cast<std::uint8_t>(m);
            }
        }
    }

    /** Probe one set-associative member with age-permutation LRU: the
     *  arithmetic of ScalarStatsProbe::amAccess plus the victim-owner
     *  bookkeeping, written out because layering it on amAccess (by a
     *  returned victim way or a miss callback) cost 14-22% on the
     *  scalar 4-way i-cache column. */
    static void
    amProbe(LineGroup& g, const AssocMember& a, std::uint64_t ln,
            unsigned m, std::array<std::uint64_t, 6>* intf)
    {
        const std::uint32_t assoc = a.assoc;
        const std::size_t set = TagTables::amSet(a, ln);
        std::uint64_t* tags = g.am_tags.data() + set;
        std::uint64_t* ages = g.am_ages.data() + set;
        std::uint8_t* own = g.am_owners.data() + set;

        std::uint32_t hit = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w)
            hit = tags[w] == ln ? w : hit;
        if (hit < assoc) {
            const std::uint64_t h = ages[hit];
            for (std::uint32_t w = 0; w < assoc; ++w)
                ages[w] += static_cast<std::uint64_t>(ages[w] < h);
            ages[hit] = 0;
            return;
        }
        // Miss: exactly one way carries age assoc-1 (the permutation
        // invariant), and it is the scalar cache's victim.
        const std::uint64_t lru = assoc - 1;
        std::uint32_t v = 0;
        for (std::uint32_t w = 0; w < assoc; ++w)
            v = ages[w] == lru ? w : v;
        ++intf[a.slot][m * 3 + own[v]];
        tags[v] = ln;
        own[v] = static_cast<std::uint8_t>(m);
        for (std::uint32_t w = 0; w < assoc; ++w)
            ages[w] += static_cast<std::uint64_t>(ages[w] < lru);
        ages[v] = 0;
    }
};

inline void
runIcacheShardImpl(const IcacheShard& sh)
{
    // Per config slot: interference counts indexed [m * 3 + victim].
    std::vector<std::array<std::uint64_t, 6>> intf(sh.k1 - sh.k0);
    std::vector<LineGroup> groups = groupBySize<LineGroup>(
        sh.configs, sh.k0, sh.k1, checkedLineBytes,
        [](LineGroup& g, const mem::CacheConfig& c, std::size_t slot) {
            g.addMember(c, slot);
        });
    for (LineGroup& g : groups) {
        g.layoutTables();
        g.dm_owners.assign(g.dm_tags.size(), kOwnerCold);
        g.am_owners.assign(g.am_tags.size(), kOwnerCold);
    }

    InstrRefWalk refs(*sh.soa, sh.cpu);
    for (InstrRef r; refs.next(r);) {
        const unsigned m =
            r.owner == static_cast<std::uint8_t>(mem::Owner::App) ? 0u
                                                                   : 1u;
        for (LineGroup& g : groups) {
            // Cover the probe latency of the biggest (least
            // cache-resident) direct-mapped table with a short-lead
            // slot prefetch.
            if (!g.dm.empty()) {
                const DmMember& big = g.dm[g.dm_big];
                __builtin_prefetch(
                    &g.dm_tags[big.offset +
                               ((r.ahead >> g.shift) & big.mask)]);
            }
            const LineSpan span = g.step(r.addr, r.last_byte);
            for (std::uint64_t ln = span.first; ln <= span.last; ++ln) {
                if (!g.dm.empty() && !g.dmHit(ln))
                    ScalarProbe::dmSlow(g, ln, m, intf.data());
                for (const AssocMember& a : g.am)
                    ScalarProbe::amProbe(g, a, ln, m, intf.data());
            }
        }
    }

    for (const LineGroup& g : groups) {
        const auto fold = [&](std::size_t slot) {
            ICacheReplayResult& r = sh.out[slot];
            const std::array<std::uint64_t, 6>& c = intf[slot];
            r.accesses = g.line_steps;
            for (int mm = 0; mm < 2; ++mm)
                for (int v = 0; v < 3; ++v)
                    r.interference.counts[mm][v] = c[mm * 3 + v];
            r.app_misses = c[0] + c[1] + c[2];
            r.kernel_misses = c[3] + c[4] + c[5];
            r.misses = r.app_misses + r.kernel_misses;
        };
        for (const DmMember& d : g.dm)
            fold(d.slot);
        for (const AssocMember& a : g.am)
            fold(a.slot);
    }
}

// ---------------------------------------------------------------------
// Flat hash structures for the three-C / iTLB / stream-buffer families.
//
// The scalar simulator objects lean on std::unordered_map and
// std::list; the kernels below replace them with flat, allocation-free
// (after construction) equivalents that compute the same integers:
//
//  - FlatLineSet: open-addressing first-touch set (no deletion).
//  - FlatFaLru: fully-associative LRU over line/page numbers as an
//    intrusive doubly-linked list over a fixed node pool plus a chained
//    hash index — O(1) access, exact FullyAssocLru semantics
//    (insert-at-front, evict-back once full).
// ---------------------------------------------------------------------

/** Mix for line/page-number hashing (finalizer of MurmurHash3). */
inline std::uint64_t
hashLine(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
}

/** Open-addressing set of line numbers; grows, never deletes. The
 *  empty sentinel is kInvalidTag, which no real line number can be. */
class FlatLineSet
{
  public:
    explicit FlatLineSet(std::size_t expected = 64)
    {
        std::size_t cap = 64;
        while (cap < expected * 2)
            cap <<= 1;
        slots_.assign(cap, kInvalidTag);
    }

    /** Insert; returns whether the line was already present. */
    bool
    testAndSet(std::uint64_t ln)
    {
        if ((count_ + 1) * 2 > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashLine(ln) & mask;
        while (slots_[i] != kInvalidTag) {
            if (slots_[i] == ln)
                return true;
            i = (i + 1) & mask;
        }
        slots_[i] = ln;
        ++count_;
        return false;
    }

  private:
    void
    grow()
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(old.size() * 2, kInvalidTag);
        const std::size_t mask = slots_.size() - 1;
        for (std::uint64_t v : old) {
            if (v == kInvalidTag)
                continue;
            std::size_t i = hashLine(v) & mask;
            while (slots_[i] != kInvalidTag)
                i = (i + 1) & mask;
            slots_[i] = v;
        }
    }

    std::vector<std::uint64_t> slots_;
    std::size_t count_ = 0;
};

/** Flat fully-associative LRU, bit-identical to mem::FullyAssocLru:
 *  hit moves to front; miss inserts at front and evicts the back once
 *  the capacity is exceeded. */
class FlatFaLru
{
  public:
    explicit FlatFaLru(std::uint32_t capacity) : cap_(capacity)
    {
        SPIKESIM_ASSERT(capacity > 0, "LRU needs capacity");
        line_.resize(cap_);
        prev_.resize(cap_);
        next_.resize(cap_);
        hnext_.resize(cap_);
        std::size_t b = 16;
        while (b < static_cast<std::size_t>(cap_) * 2)
            b <<= 1;
        bucket_.assign(b, kNull);
        bmask_ = static_cast<std::uint32_t>(b - 1);
    }

    /** Touch a line; true on hit. */
    bool
    access(std::uint64_t ln)
    {
        const std::uint32_t b =
            static_cast<std::uint32_t>(hashLine(ln)) & bmask_;
        for (std::uint32_t n = bucket_[b]; n != kNull; n = hnext_[n]) {
            if (line_[n] == ln) {
                moveToFront(n);
                return true;
            }
        }
        std::uint32_t n;
        if (count_ == cap_) {
            n = tail_;
            tail_ = prev_[n];
            if (tail_ != kNull)
                next_[tail_] = kNull;
            else
                head_ = kNull;
            chainRemove(n);
        } else {
            n = count_++;
        }
        line_[n] = ln;
        prev_[n] = kNull;
        next_[n] = head_;
        if (head_ != kNull)
            prev_[head_] = n;
        else
            tail_ = n;
        head_ = n;
        hnext_[n] = bucket_[b];
        bucket_[b] = n;
        return false;
    }

  private:
    void
    moveToFront(std::uint32_t n)
    {
        if (head_ == n)
            return;
        const std::uint32_t p = prev_[n];
        const std::uint32_t x = next_[n];
        next_[p] = x;
        if (x != kNull)
            prev_[x] = p;
        else
            tail_ = p;
        prev_[n] = kNull;
        next_[n] = head_;
        prev_[head_] = n;
        head_ = n;
    }

    void
    chainRemove(std::uint32_t n)
    {
        const std::uint32_t b =
            static_cast<std::uint32_t>(hashLine(line_[n])) & bmask_;
        std::uint32_t cur = bucket_[b];
        if (cur == n) {
            bucket_[b] = hnext_[n];
            return;
        }
        while (hnext_[cur] != n)
            cur = hnext_[cur];
        hnext_[cur] = hnext_[n];
    }

    static constexpr std::uint32_t kNull = 0xFFFFFFFFu;

    std::uint32_t cap_;
    std::uint32_t count_ = 0;
    std::uint32_t head_ = kNull;
    std::uint32_t tail_ = kNull;
    std::uint32_t bmask_ = 0;
    std::vector<std::uint64_t> line_;
    std::vector<std::uint32_t> prev_, next_, hnext_;
    std::vector<std::uint32_t> bucket_;
};

// ---------------------------------------------------------------------
// Three-C classification kernel.
//
// Exact port of mem::ClassifyingICache onto the grouped-column layout:
// per line-size group one shared first-touch set, one shared ideal
// FA-LRU per *distinct capacity* (ideal caches of equal capacity see
// the identical line-step sequence, so their state is identical and
// can be deduplicated), and the i-cache kernel's TagTables minus owner
// tags. Per non-repeat line-step the walk reads `seen` (before setting
// it), accesses every ideal LRU, and classifies each member's real
// miss as compulsory (!seen), capacity (!ideal_hit) or conflict — the
// oracle's exact decision tree. A repeat line is also the ideal LRUs'
// MRU entry and already touched, so the shared skip stays exact.
// ---------------------------------------------------------------------

/** All three-C configurations sharing one line size, plus state. */
struct ThreeCGroup : LineCursor, TagTables
{
    std::vector<std::uint32_t> dm_cap; ///< per dm member: ideal index
    std::vector<std::uint32_t> am_cap; ///< per am member: ideal index

    std::vector<FlatFaLru> ideal;      ///< one per distinct capacity
    std::vector<std::uint32_t> ideal_lines; ///< capacities (in lines)
    std::vector<std::uint8_t> ideal_hit;    ///< per-line-step scratch
    FlatLineSet touched;
};

inline std::vector<ThreeCGroup>
buildThreeCGroups(const mem::CacheConfig* configs, std::size_t k0,
                  std::size_t k1)
{
    std::vector<ThreeCGroup> groups = groupBySize<ThreeCGroup>(
        configs, k0, k1, checkedLineBytes,
        [](ThreeCGroup& g, const mem::CacheConfig& c, std::size_t slot) {
            const std::uint32_t lines = c.numLines();
            auto ci = static_cast<std::uint32_t>(g.ideal_lines.size());
            for (std::uint32_t j = 0; j < g.ideal_lines.size(); ++j)
                if (g.ideal_lines[j] == lines)
                    ci = j;
            if (ci == g.ideal_lines.size()) {
                g.ideal_lines.push_back(lines);
                g.ideal.emplace_back(lines);
            }
            (g.addMember(c, slot) ? g.dm_cap : g.am_cap).push_back(ci);
        });
    for (ThreeCGroup& g : groups) {
        g.layoutTables();
        g.ideal_hit.assign(g.ideal.size(), 0);
    }
    return groups;
}

/** The oracle's exact miss decision tree. c = [comp, cap, conf]. */
inline void
classifyThreeC(std::uint64_t* c, bool seen, bool ideal_hit)
{
    if (!seen)
        ++c[0];
    else if (!ideal_hit)
        ++c[1];
    else
        ++c[2];
}

inline void
runThreeCShardImpl(const Shard<mem::CacheConfig, mem::ThreeCStats>& sh)
{
    std::vector<ThreeCGroup> groups =
        buildThreeCGroups(sh.configs, sh.k0, sh.k1);
    // Per config slot: [compulsory, capacity, conflict].
    std::vector<std::array<std::uint64_t, 3>> cls(sh.k1 - sh.k0);

    InstrRefWalk refs(*sh.soa, sh.cpu);
    for (InstrRef r; refs.next(r);) {
        for (ThreeCGroup& g : groups) {
            const LineSpan span = g.step(r.addr, r.last_byte);
            for (std::uint64_t ln = span.first; ln <= span.last; ++ln) {
                const bool seen = g.touched.testAndSet(ln);
                for (std::size_t ci = 0; ci < g.ideal.size(); ++ci)
                    g.ideal_hit[ci] =
                        static_cast<std::uint8_t>(g.ideal[ci].access(ln));
                if (!g.dm.empty() && !g.dmHit(ln)) {
                    for (std::size_t j = 0; j < g.dm.size(); ++j) {
                        const DmMember& d = g.dm[j];
                        const std::uint64_t idx = d.offset + (ln & d.mask);
                        if (g.dm_tags[idx] != ln) {
                            g.dm_tags[idx] = ln;
                            classifyThreeC(cls[d.slot].data(), seen,
                                           g.ideal_hit[g.dm_cap[j]] != 0);
                        }
                    }
                }
                for (std::size_t j = 0; j < g.am.size(); ++j) {
                    const AssocMember& a = g.am[j];
                    const std::size_t set = TagTables::amSet(a, ln);
                    if (!ScalarStatsProbe::amAccess(g.am_tags.data() + set,
                                                    g.am_ages.data() + set,
                                                    a.assoc, ln))
                        classifyThreeC(cls[a.slot].data(), seen,
                                       g.ideal_hit[g.am_cap[j]] != 0);
                }
            }
        }
    }

    for (const ThreeCGroup& g : groups) {
        const auto fold = [&](std::size_t slot) {
            mem::ThreeCStats& o = sh.out[slot];
            o = mem::ThreeCStats();
            o.compulsory = cls[slot][0];
            o.capacity = cls[slot][1];
            o.conflict = cls[slot][2];
            o.base.accesses = g.line_steps;
            o.base.misses = o.compulsory + o.capacity + o.conflict;
        };
        for (const DmMember& d : g.dm)
            fold(d.slot);
        for (const AssocMember& a : g.am)
            fold(a.slot);
    }
}

// ---------------------------------------------------------------------
// iTLB kernel.
//
// mem::ITlb is an exact fully-associative LRU over virtual page
// numbers: a hit re-stamps (making the entry MRU) and the victim scan
// picks the last invalid entry, else the minimum stamp — which, with
// strictly increasing stamps, is precisely "evict LRU once full". The
// resident set after every access therefore equals FlatFaLru's, and so
// do the hit/miss counts (which slot holds an entry never matters).
// The one-entry last-page filter is a pure MRU no-op, mirrored here so
// the FA-LRU is only consulted on page changes.
// ---------------------------------------------------------------------

/** One iTLB spec within a fetch-granularity group. */
struct ITlbMember
{
    std::size_t slot = 0;
    std::uint32_t page_shift = 0;
    std::uint64_t last_page = kInvalidTag;
    std::uint64_t misses = 0;
    FlatFaLru tlb;

    ITlbMember(std::size_t s, std::uint32_t ps, std::uint32_t entries)
        : slot(s), page_shift(ps), tlb(entries)
    {
    }

    /** Look up the page of line address `la` behind the last-page
     *  filter, counting a miss. */
    void
    translate(std::uint64_t la)
    {
        const std::uint64_t page = la >> page_shift;
        if (page == last_page)
            return;
        last_page = page;
        misses += !tlb.access(page);
    }
};

/** All iTLB specs sharing one fetch granularity. */
struct ITlbGroup : LineCursor
{
    std::vector<ITlbMember> members;

    /** Fetch the byte range [addr, last_byte]: one lookup per line
     *  step, except that a repeat of the last fetched line is the MRU
     *  page of every member (a hit with no state change). */
    void
    walk(std::uint64_t addr, std::uint64_t last_byte)
    {
        const LineSpan span = step(addr, last_byte);
        for (std::uint64_t ln = span.first; ln <= span.last; ++ln)
            for (ITlbMember& m : members)
                m.translate(ln << shift);
    }
};

/** Group specs [k0, k1) by fetch granularity; member slots are
 *  relative to k0. */
inline std::vector<ITlbGroup>
buildITlbGroups(const ITlbSpec* specs, std::size_t k0, std::size_t k1)
{
    const auto fetch_bytes = [](const ITlbSpec& spec) {
        SPIKESIM_ASSERT(spec.fetch_bytes > 0 &&
                            (spec.fetch_bytes &
                             (spec.fetch_bytes - 1)) == 0,
                        "fetch granularity must be a power of two");
        SPIKESIM_ASSERT(spec.page_bytes > 0 &&
                            (spec.page_bytes & (spec.page_bytes - 1)) ==
                                0,
                        "page size must be a power of two");
        return spec.fetch_bytes;
    };
    return groupBySize<ITlbGroup>(
        specs, k0, k1, fetch_bytes,
        [](ITlbGroup& g, const ITlbSpec& spec, std::size_t slot) {
            g.members.emplace_back(
                slot,
                static_cast<std::uint32_t>(
                    std::bit_width(spec.page_bytes) - 1),
                spec.entries);
        });
}

/** Write every member's result into out[slot] (overwriting). */
inline void
foldITlbGroups(const std::vector<ITlbGroup>& groups, ITlbReplayResult* out)
{
    for (const ITlbGroup& g : groups) {
        for (const ITlbMember& m : g.members) {
            ITlbReplayResult& o = out[m.slot];
            o = ITlbReplayResult();
            o.accesses = g.line_steps;
            o.misses = m.misses;
        }
    }
}

inline void
runITlbShardImpl(const Shard<ITlbSpec, ITlbReplayResult>& sh)
{
    std::vector<ITlbGroup> groups = buildITlbGroups(sh.configs, sh.k0, sh.k1);
    InstrRefWalk refs(*sh.soa, sh.cpu);
    for (InstrRef r; refs.next(r);)
        for (ITlbGroup& g : groups)
            g.walk(r.addr, r.last_byte);
    foldITlbGroups(groups, sh.out);
}

// ---------------------------------------------------------------------
// Instrumented (per-word) kernel.
//
// Exact port of mem::InstrumentedICache onto the run-coalescing
// line-span walk: each instruction ref is split into maximal
// same-line word spans; the first word of a span pays the full probe
// (hit scan, else miss + retire + fill) and the remaining words are
// guaranteed hits on the same entry — the oracle's hit path is
// position-independent and side-effect-free until the hit is found,
// so touching the entry directly reproduces every counter, stamp and
// histogram update bit for bit. A one-entry MRU filter (last line +
// entry, re-validated against the tag) short-circuits the common
// sequential-fetch probe.
// ---------------------------------------------------------------------

/**
 * Per-config output of one instrumented-replay shard cell. Histograms
 * are default-sized like sim::WordStats; the kernel replaces them with
 * correctly-sized ones for the config's line geometry.
 */
struct InstrShardOut
{
    support::Histogram words_used{65};
    support::Histogram word_reuse{16};
    support::Log2Histogram lifetimes{32};
    std::uint64_t misses = 0;
    /** Lines retired (= word_reuse sample count / words-per-line). */
    std::uint64_t samples = 0;
    double unused_word_fraction = 0.0;
};

/** One instrumented configuration within a line-size group. */
struct InstrMember
{
    std::size_t slot = 0;
    std::uint32_t assoc = 0;
    std::uint32_t set_mask = 0;

    std::vector<std::uint8_t> valid;
    std::vector<std::uint64_t> tag;
    std::vector<std::uint64_t> stamp;
    std::vector<std::uint64_t> fill;
    std::vector<std::uint64_t> wmask;
    std::vector<std::uint16_t> counts; ///< entries * words-per-line

    support::Histogram words_used;
    support::Histogram word_reuse;
    support::Log2Histogram lifetimes;
    std::uint64_t now = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fetched = 0;
    std::uint64_t unused = 0;

    std::uint64_t last_line = kInvalidTag;
    std::size_t last_entry = 0;

    InstrMember(std::size_t s, const mem::CacheConfig& c,
                std::uint32_t wpl)
        : slot(s), assoc(c.assoc), set_mask(c.numSets() - 1),
          words_used(wpl + 1), word_reuse(16), lifetimes(32)
    {
        const std::size_t n =
            static_cast<std::size_t>(c.numSets()) * c.assoc;
        valid.assign(n, 0);
        tag.assign(n, 0);
        stamp.assign(n, 0);
        fill.assign(n, 0);
        wmask.assign(n, 0);
        counts.assign(n * wpl, 0);
    }
};

/** All instrumented configurations sharing one line size. */
struct InstrGroup
{
    std::uint32_t shift = 0;
    std::uint32_t wpl = 0; ///< words per line
    std::vector<InstrMember> members;
};

/** Retire one entry into the histograms (oracle retire(), verbatim). */
inline void
instrRetire(InstrMember& m, std::uint32_t wpl, std::size_t idx)
{
    if (!m.valid[idx])
        return;
    m.words_used.record(
        static_cast<std::uint64_t>(std::popcount(m.wmask[idx])));
    m.lifetimes.record(m.now - m.fill[idx]);
    std::uint16_t* counts = &m.counts[idx * wpl];
    for (std::uint32_t w = 0; w < wpl; ++w) {
        m.word_reuse.record(counts[w]);
        ++m.fetched;
        if (counts[w] == 0)
            ++m.unused;
        counts[w] = 0;
    }
    m.valid[idx] = 0;
    m.wmask[idx] = 0;
}

/** Feed one same-line span of `span` words starting at `word0`. */
inline void
instrSpan(InstrMember& m, std::uint32_t wpl, std::uint64_t line,
          std::uint32_t word0, std::uint32_t span)
{
    ++m.now;
    std::size_t entry;
    if (line == m.last_line && m.valid[m.last_entry] != 0 &&
        m.tag[m.last_entry] == line) {
        // MRU hit: identical effects to the scan finding this entry.
        entry = m.last_entry;
        m.stamp[entry] = m.now;
        m.wmask[entry] |= 1ULL << word0;
        std::uint16_t& c = m.counts[entry * wpl + word0];
        if (c < 0xffff)
            ++c;
        ++m.hits;
    } else {
        const std::size_t base =
            static_cast<std::size_t>(static_cast<std::uint32_t>(line) &
                                     m.set_mask) *
            m.assoc;
        std::size_t found = kInvalidTag;
        std::size_t victim = base;
        for (std::uint32_t w = 0; w < m.assoc; ++w) {
            const std::size_t idx = base + w;
            if (m.valid[idx] != 0 && m.tag[idx] == line) {
                found = idx;
                break;
            }
            // Oracle victim scan: last invalid way wins; else min stamp.
            if (m.valid[idx] == 0)
                victim = idx;
            else if (m.valid[victim] != 0 &&
                     m.stamp[idx] < m.stamp[victim])
                victim = idx;
        }
        if (found != kInvalidTag) {
            entry = found;
            m.stamp[entry] = m.now;
            m.wmask[entry] |= 1ULL << word0;
            std::uint16_t& c = m.counts[entry * wpl + word0];
            if (c < 0xffff)
                ++c;
            ++m.hits;
        } else {
            ++m.misses;
            instrRetire(m, wpl, victim);
            entry = victim;
            m.valid[entry] = 1;
            m.tag[entry] = line;
            m.stamp[entry] = m.now;
            m.fill[entry] = m.now;
            m.wmask[entry] = 1ULL << word0;
            m.counts[entry * wpl + word0] = 1;
        }
    }
    // The span's remaining words are consecutive indices of the same
    // line: guaranteed hits on `entry`, one oracle fetchWord() each.
    for (std::uint32_t s = 1; s < span; ++s) {
        ++m.now;
        m.stamp[entry] = m.now;
        m.wmask[entry] |= 1ULL << (word0 + s);
        std::uint16_t& c = m.counts[entry * wpl + word0 + s];
        if (c < 0xffff)
            ++c;
        ++m.hits;
    }
    m.last_line = line;
    m.last_entry = entry;
}

inline void
runInstrShardImpl(const Shard<mem::CacheConfig, InstrShardOut>& sh,
                  bool flush_at_end)
{
    std::vector<InstrGroup> groups = groupBySize<InstrGroup>(
        sh.configs, sh.k0, sh.k1, checkedLineBytes,
        [](InstrGroup& g, const mem::CacheConfig& c, std::size_t slot) {
            SPIKESIM_ASSERT(c.line_bytes / 4 <= 64,
                            "line too wide for 64-bit word masks");
            g.wpl = c.line_bytes / 4;
            g.members.emplace_back(slot, c, g.wpl);
        });

    InstrRefWalk refs(*sh.soa, sh.cpu);
    for (InstrRef r; refs.next(r);) {
        const auto words =
            static_cast<std::uint32_t>((r.last_byte - r.addr + 1) / 4);
        for (InstrGroup& g : groups) {
            std::uint32_t w = 0;
            while (w < words) {
                const std::uint64_t wa = r.addr + 4ULL * w;
                const std::uint64_t line = wa >> g.shift;
                const std::uint64_t next = (line + 1) << g.shift;
                // Words at wa, wa+4, ... stay on `line` while below
                // `next`: ceil((next - wa) / 4) of them.
                const std::uint32_t span =
                    static_cast<std::uint32_t>(std::min<std::uint64_t>(
                        words - w, (next - wa + 3) >> 2));
                const std::uint32_t word0 =
                    static_cast<std::uint32_t>(wa >> 2) & (g.wpl - 1);
                for (InstrMember& m : g.members)
                    instrSpan(m, g.wpl, line, word0, span);
                w += span;
            }
        }
    }

    for (InstrGroup& g : groups) {
        for (InstrMember& m : g.members) {
            if (flush_at_end)
                for (std::size_t e = 0; e < m.valid.size(); ++e)
                    instrRetire(m, g.wpl, e);
            InstrShardOut& o = sh.out[m.slot];
            o.misses = m.misses;
            o.samples = m.word_reuse.totalSamples();
            o.unused_word_fraction =
                m.fetched == 0
                    ? 0.0
                    : static_cast<double>(m.unused) /
                          static_cast<double>(m.fetched);
            o.words_used = std::move(m.words_used);
            o.word_reuse = std::move(m.word_reuse);
            o.lifetimes = std::move(m.lifetimes);
        }
    }
}

// ---------------------------------------------------------------------
// Stream-buffer kernel.
//
// Exact port of mem::StreamBufferICache: per line-step the L1 is
// probed (and filled on miss — the demand fetch happens whether or not
// a buffer supplies the line); on an L1 miss the buffer heads are
// scanned in array order and the first match streams ahead; otherwise
// the first invalid buffer (else the minimum-stamp buffer) is
// reallocated. The oracle stamps buffers with a per-access clock; only
// the *order* of stamp assignments ever matters (stamps are compared
// with strict <, and each assignment uses a fresh clock value), so the
// kernel's per-member assignment counter reproduces every victim
// decision. Repeat lines are guaranteed L1 MRU hits and touch neither
// the buffers nor the clock order — the usual fast path.
// ---------------------------------------------------------------------

/** One stream-buffer configuration within a line-size group. */
struct StreamBufMember
{
    std::size_t slot = 0;
    std::uint32_t assoc = 0; ///< 1 = direct-mapped L1
    std::uint64_t set_mask = 0;
    std::size_t base = 0; ///< into the group tag/age arrays

    std::vector<std::uint64_t> buf_next;
    std::vector<std::uint64_t> buf_stamp;
    std::vector<std::uint8_t> buf_valid;
    std::uint64_t ctr = 0; ///< stamp-assignment order clock
    std::uint64_t l1_misses = 0;
    std::uint64_t demand_misses = 0;
};

/** All stream-buffer configurations sharing one line size. */
struct StreamBufGroup : LineCursor
{
    std::vector<StreamBufMember> members;
    std::vector<std::uint64_t> tags;
    std::vector<std::uint64_t> ages;
};

inline std::vector<StreamBufGroup>
buildStreamBufGroups(const mem::CacheConfig* configs, std::size_t k0,
                     std::size_t k1, int num_buffers)
{
    SPIKESIM_ASSERT(num_buffers > 0, "need at least one stream buffer");
    const auto nb = static_cast<std::size_t>(num_buffers);
    std::vector<StreamBufGroup> groups = groupBySize<StreamBufGroup>(
        configs, k0, k1, checkedLineBytes,
        [nb](StreamBufGroup& g, const mem::CacheConfig& c,
             std::size_t slot) {
            StreamBufMember m;
            m.slot = slot;
            m.assoc = c.assoc;
            m.set_mask = c.numSets() - 1;
            m.buf_next.assign(nb, 0);
            m.buf_stamp.assign(nb, 0);
            m.buf_valid.assign(nb, 0);
            g.members.push_back(std::move(m));
        });
    for (StreamBufGroup& g : groups) {
        std::size_t off = 0;
        for (StreamBufMember& m : g.members) {
            m.base = off;
            off += static_cast<std::size_t>(m.set_mask + 1) * m.assoc;
        }
        g.tags.assign(off, kInvalidTag);
        g.ages.resize(off);
        for (const StreamBufMember& m : g.members)
            if (m.assoc > 1)
                for (std::size_t s = 0; s <= m.set_mask; ++s)
                    for (std::uint32_t w = 0; w < m.assoc; ++w)
                        g.ages[m.base + s * m.assoc + w] = w;
    }
    return groups;
}

inline void
runStreamBufShardImpl(
    const Shard<mem::CacheConfig, mem::StreamBufferStats>& sh,
    int num_buffers)
{
    std::vector<StreamBufGroup> groups =
        buildStreamBufGroups(sh.configs, sh.k0, sh.k1, num_buffers);
    const auto nb = static_cast<std::size_t>(num_buffers);
    InstrRefWalk refs(*sh.soa, sh.cpu);
    for (InstrRef r; refs.next(r);) {
        for (StreamBufGroup& g : groups) {
            const LineSpan span = g.step(r.addr, r.last_byte);
            for (std::uint64_t ln = span.first; ln <= span.last; ++ln) {
                for (StreamBufMember& m : g.members) {
                    bool hit;
                    if (m.assoc == 1) {
                        const std::size_t idx =
                            m.base + (ln & m.set_mask);
                        hit = g.tags[idx] == ln;
                        if (!hit)
                            g.tags[idx] = ln;
                    } else {
                        const std::size_t set =
                            (ln & m.set_mask) * m.assoc;
                        hit = ScalarStatsProbe::amAccess(
                            g.tags.data() + m.base + set,
                            g.ages.data() + m.base + set, m.assoc, ln);
                    }
                    if (hit)
                        continue;
                    ++m.l1_misses;
                    bool streamed = false;
                    for (std::size_t b = 0; b < nb; ++b) {
                        if (m.buf_valid[b] != 0 &&
                            m.buf_next[b] == ln) {
                            m.buf_next[b] = ln + 1;
                            m.buf_stamp[b] = ++m.ctr;
                            streamed = true;
                            break;
                        }
                    }
                    if (streamed)
                        continue;
                    ++m.demand_misses;
                    std::size_t v = 0;
                    for (std::size_t b = 0; b < nb; ++b) {
                        if (m.buf_valid[b] == 0) {
                            v = b;
                            break;
                        }
                        if (m.buf_stamp[b] < m.buf_stamp[v])
                            v = b;
                    }
                    m.buf_valid[v] = 1;
                    m.buf_next[v] = ln + 1;
                    m.buf_stamp[v] = ++m.ctr;
                }
            }
        }
    }

    for (const StreamBufGroup& g : groups) {
        for (const StreamBufMember& m : g.members) {
            mem::StreamBufferStats& o = sh.out[m.slot];
            o = mem::StreamBufferStats();
            o.l1.accesses = g.line_steps;
            o.l1.misses = m.l1_misses;
            o.stream.accesses = m.l1_misses;
            o.stream.misses = m.demand_misses;
        }
    }
}

// ---------------------------------------------------------------------
// Hierarchy kernel.
//
// Flat per-CPU state for the L1 I/D + unified L2 + iTLB hierarchy of
// mem::MemoryHierarchy, shared by the fused hierarchy replay below and
// by serve::ServiceModel (which adds a tenant salt and prices each
// outcome in cycles at its call site):
//
//  - FlatCache: the age-permutation LRU tables of the three-C kernel
//    (ages initialized to way index, so invalid ways fill from the
//    highest index down, then true LRU — mem::SetAssocCache's victim
//    order), minus owner tags, with a direct-mapped fast path.
//
//  - HierarchyTail::translate: FlatFaLru plus the one-entry last-page
//    filter. mem::ITlb is an exact FA-LRU (see the iTLB kernel), and
//    its hit sequence does not depend on which slot holds a page.
//
//  - Repeat line: a fetch of the line this L1 fetched last is the MRU
//    entry of its L1I set, and (same page, nothing translated since) the
//    MRU page of every iTLB fed only by this L1 — a hit in both with no
//    state change, so only the access counter moves.
//
//  - Grouping: configs with identical l1i, l1d and page_bytes see the
//    identical L1 access sequence, so one L1 simulation serves them
//    all. Its misses, in trace order, feed each member's own L2, and
//    its page changes each member's own iTLB. Fig 15's 21264 and 21364
//    presets share L1 geometry, so their column walks L1 once.
// ---------------------------------------------------------------------

/** Stats-only set-associative LRU cache over line numbers; hit/miss
 *  sequence identical to mem::SetAssocCache. */
class FlatCache
{
  public:
    explicit FlatCache(const mem::CacheConfig& c)
    {
        const std::string err = c.check();
        SPIKESIM_ASSERT(err.empty(), "bad cache config: " << err);
        SPIKESIM_ASSERT(c.assoc <= 255, "associativity above 255");
        shift_ = static_cast<std::uint32_t>(
            std::bit_width(c.line_bytes) - 1);
        assoc_ = c.assoc;
        set_mask_ = c.numSets() - 1;
        tags_.assign(c.numLines(), kInvalidTag);
        if (assoc_ > 1) {
            ages_.resize(c.numLines());
            for (std::size_t i = 0; i < ages_.size(); ++i)
                ages_[i] = static_cast<std::uint8_t>(i % assoc_);
        }
    }

    /** log2 of the line size: byte address >> shift() = line number. */
    std::uint32_t shift() const { return shift_; }

    /** Touch line number `ln`: true on hit, else fill the LRU way. */
    bool
    access(std::uint64_t ln)
    {
        const std::size_t set = ln & set_mask_;
        if (assoc_ == 1) {
            const bool hit = tags_[set] == ln;
            tags_[set] = ln;
            return hit;
        }
        return ScalarStatsProbe::amAccess(tags_.data() + set * assoc_,
                                          ages_.data() + set * assoc_,
                                          assoc_, ln);
    }

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> ages_;
    std::uint64_t set_mask_ = 0;
    std::uint32_t assoc_ = 1;
    std::uint32_t shift_ = 0;
};

/** One processor's private L1 I/D pair. */
struct HierarchyL1
{
    FlatCache icache;
    FlatCache dcache;
    std::uint64_t last_iline = kInvalidTag;

    explicit HierarchyL1(const mem::HierarchyConfig& c)
        : icache(c.l1i), dcache(c.l1d)
    {
    }

    /** Fetch instruction line `ln`; true on hit. */
    bool
    fetch(std::uint64_t ln)
    {
        if (ln == last_iline)
            return true; // repeat line: the set's MRU entry
        last_iline = ln;
        return icache.access(ln);
    }
};

/** The unified L2 and iTLB behind one or more L1s. */
struct HierarchyTail
{
    FlatCache l2;
    FlatFaLru tlb;
    std::uint32_t page_shift = 0;
    std::uint64_t last_page = kInvalidTag;

    explicit HierarchyTail(const mem::HierarchyConfig& c)
        : l2(c.l2), tlb(c.itlb_entries)
    {
        SPIKESIM_ASSERT(c.page_bytes > 0 &&
                            (c.page_bytes & (c.page_bytes - 1)) == 0,
                        "page size must be a power of two");
        page_shift =
            static_cast<std::uint32_t>(std::bit_width(c.page_bytes) - 1);
    }

    /** Translate the page of byte address `addr`; true on hit. */
    bool
    translate(std::uint64_t addr)
    {
        const std::uint64_t page = addr >> page_shift;
        if (page == last_page)
            return true;
        last_page = page;
        return tlb.access(page);
    }

    /** Access the L2 at (pseudo-physical) byte address `paddr`. */
    bool
    l2Access(std::uint64_t paddr)
    {
        return l2.access(paddr >> l2.shift());
    }
};

/** One config of a hierarchy group: its own L2 + iTLB and counters. */
struct HierarchyMember
{
    std::size_t slot = 0;
    HierarchyTail tail;
    std::uint64_t l2i_misses = 0;
    std::uint64_t l2d_misses = 0;
    std::uint64_t itlb_misses = 0;

    HierarchyMember(std::size_t s, const mem::HierarchyConfig& c)
        : slot(s), tail(c)
    {
    }
};

/** The configs of a shard that share one L1 simulation. */
struct HierarchyGroup
{
    const mem::HierarchyConfig* config; ///< first member's config
    HierarchyL1 l1;
    std::vector<HierarchyMember> members;
    support::AccessStats l1i;
    support::AccessStats l1d;

    explicit HierarchyGroup(const mem::HierarchyConfig& c)
        : config(&c), l1(c)
    {
    }
};

inline bool
sameL1Geometry(const mem::HierarchyConfig& a,
               const mem::HierarchyConfig& b)
{
    const auto same = [](const mem::CacheConfig& x,
                         const mem::CacheConfig& y) {
        return x.size_bytes == y.size_bytes &&
               x.line_bytes == y.line_bytes && x.assoc == y.assoc;
    };
    return same(a.l1i, b.l1i) && same(a.l1d, b.l1d) &&
           a.page_bytes == b.page_bytes;
}

inline void
runHierarchyShardImpl(
    const Shard<mem::HierarchyConfig, mem::HierarchyStats>& sh,
    std::uint64_t& instrs, std::uint64_t& fetch_breaks)
{
    const ResolvedTraceSoA& soa = *sh.soa;
    std::vector<HierarchyGroup> groups;
    for (std::size_t k = sh.k0; k < sh.k1; ++k) {
        HierarchyGroup* g = nullptr;
        for (HierarchyGroup& cand : groups)
            if (sameL1Geometry(*cand.config, sh.configs[k]))
                g = &cand;
        if (g == nullptr) {
            groups.emplace_back(sh.configs[k]);
            g = &groups.back();
        }
        g->members.emplace_back(k - sh.k0, sh.configs[k]);
    }

    const auto [begin, end] = soa.cpuRange(sh.cpu);
    const std::uint64_t* addrs = soa.addr.data();
    const std::uint32_t* sizes = soa.bytes.data();
    const std::uint8_t* owners = soa.owner.data();
    std::uint64_t expected = ~0ULL;
    std::uint64_t n_instrs = 0;
    std::uint64_t breaks = 0;

    for (std::size_t i = begin; i < end; ++i) {
        if (i + kRefPrefetch < end) {
            __builtin_prefetch(addrs + i + kRefPrefetch);
            __builtin_prefetch(sizes + i + kRefPrefetch);
        }
        const std::uint64_t addr = addrs[i];
        if (owners[i] == static_cast<std::uint8_t>(mem::Owner::Data)) {
            for (HierarchyGroup& g : groups) {
                const std::uint32_t shift = g.l1.dcache.shift();
                const std::uint64_t ln = addr >> shift;
                const bool hit = g.l1.dcache.access(ln);
                g.l1d.record(!hit);
                if (hit)
                    continue;
                const std::uint64_t pa =
                    mem::pseudoPhysical(ln << shift, g.config->page_bytes);
                for (HierarchyMember& m : g.members)
                    m.l2d_misses += !m.tail.l2Access(pa);
            }
            continue;
        }
        const std::uint64_t last_byte = addr + sizes[i] - 1;
        n_instrs += sizes[i] / program::kInstrBytes;
        if (addr != expected)
            ++breaks;
        expected = last_byte + 1;
        for (HierarchyGroup& g : groups) {
            const std::uint32_t shift = g.l1.icache.shift();
            std::uint64_t ln = addr >> shift;
            const std::uint64_t ln_end = last_byte >> shift;
            g.l1i.accesses += ln_end - ln + 1;
            for (; ln <= ln_end; ++ln) {
                if (ln == g.l1.last_iline)
                    continue; // MRU in the L1I and every member iTLB
                g.l1.last_iline = ln;
                const std::uint64_t la = ln << shift;
                for (HierarchyMember& m : g.members)
                    m.itlb_misses += !m.tail.translate(la);
                if (g.l1.icache.access(ln))
                    continue;
                ++g.l1i.misses;
                const std::uint64_t pa =
                    mem::pseudoPhysical(la, g.config->page_bytes);
                for (HierarchyMember& m : g.members)
                    m.l2i_misses += !m.tail.l2Access(pa);
            }
        }
    }

    for (const HierarchyGroup& g : groups) {
        for (const HierarchyMember& m : g.members) {
            mem::HierarchyStats& o = sh.out[m.slot];
            o = mem::HierarchyStats();
            o.l1i = g.l1i;
            o.l1d = g.l1d;
            o.l2i.accesses = g.l1i.misses;
            o.l2i.misses = m.l2i_misses;
            o.l2d.accesses = g.l1d.misses;
            o.l2d.misses = m.l2d_misses;
            o.itlb_misses = m.itlb_misses;
        }
    }
    instrs = n_instrs;
    fetch_breaks = breaks;
}

// ---------------------------------------------------------------------
// Layout pricing kernel.
//
// Prices one candidate layout on one CPU's slice of a BlockStream (see
// sim/soa.hh) in a single walk: each tagged block id gathers its
// (addr, size) from the layout's block tables, zero-sized blocks are
// skipped, and every remaining ref feeds one stats-only FlatCache plus
// the iTLB groups. The cache follows the i-cache kernel's repeat-line
// rule (a repeat of the last fetched line is its set's MRU entry: a
// hit with no state change) and each iTLB group its own, exactly as
// runITlbShardImpl. An iTLB group whose fetch granularity equals the
// cache line sees the cache's line sequence, so it is fed from inside
// the cache's line loop instead of re-walking the ref.
// ---------------------------------------------------------------------

/** One image's block tables under a layout, by global block id. */
struct PriceImage
{
    const std::uint64_t* addr = nullptr;
    const std::uint32_t* size = nullptr; ///< instructions
};

/** A layout's block tables for a walk over a BlockStream, checked to
 *  cover the stream's `blocks` ids of that image (empty when the
 *  stream has none; `layout` may then be null). */
inline PriceImage
imageTables(const core::Layout* layout, std::uint32_t blocks)
{
    if (blocks == 0)
        return {};
    SPIKESIM_ASSERT(layout != nullptr,
                    "replaying kernel events requires a kernel layout");
    SPIKESIM_ASSERT(blocks <= layout->blockSizes().size(),
                    "layout covers " << layout->blockSizes().size()
                                     << " blocks, stream needs "
                                     << blocks);
    return {layout->blockAddrs().data(), layout->blockSizes().data()};
}

/** One CPU's pricing walk: inputs, and outputs written (not summed). */
struct PriceShard
{
    const std::uint32_t* ids = nullptr;
    std::size_t n = 0;
    PriceImage app;
    PriceImage kernel;
    const mem::CacheConfig* config = nullptr;
    const ITlbSpec* specs = nullptr;
    std::size_t n_specs = 0;
    support::AccessStats* icache = nullptr;
    ITlbReplayResult* itlb = nullptr; ///< n_specs results
};

inline void
runPriceImpl(const PriceShard& sh)
{
    FlatCache cache(*sh.config);
    const std::uint32_t shift = cache.shift();
    std::vector<ITlbGroup> groups =
        buildITlbGroups(sh.specs, 0, sh.n_specs);
    ITlbGroup* same = nullptr;
    std::vector<ITlbGroup*> others;
    for (ITlbGroup& g : groups) {
        if (g.shift == shift)
            same = &g;
        else
            others.push_back(&g);
    }

    std::uint64_t last = kInvalidTag;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < sh.n; ++i) {
        const std::uint32_t id = sh.ids[i];
        const PriceImage& img =
            (id & kKernelBlockTag) != 0 ? sh.kernel : sh.app;
        const std::uint32_t g = id & ~kKernelBlockTag;
        const std::uint32_t size = img.size[g];
        if (size == 0)
            continue;
        const std::uint64_t addr = img.addr[g];
        const std::uint64_t last_byte =
            addr + static_cast<std::uint64_t>(size) * program::kInstrBytes -
            1;
        std::uint64_t ln = addr >> shift;
        const std::uint64_t ln_end = last_byte >> shift;
        accesses += ln_end - ln + 1;
        for (; ln <= ln_end; ++ln) {
            if (ln == last)
                continue;
            last = ln;
            misses += !cache.access(ln);
            if (same != nullptr)
                for (ITlbMember& m : same->members)
                    m.translate(ln << shift);
        }
        for (ITlbGroup* o : others)
            o->walk(addr, last_byte);
    }
    if (same != nullptr) {
        same->line_steps = accesses;
        same->last_line = last;
    }

    sh.icache->accesses = accesses;
    sh.icache->misses = misses;
    foldITlbGroups(groups, sh.itlb);
}

} // namespace spikesim::sim::detail

#endif // SPIKESIM_SIM_KERNELS_DETAIL_HH
