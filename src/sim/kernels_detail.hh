#ifndef SPIKESIM_SIM_KERNELS_DETAIL_HH
#define SPIKESIM_SIM_KERNELS_DETAIL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/hierarchy.hh"
#include "program/program.hh"
#include "sim/kernels.hh"
#include "support/panic.hh"

/**
 * @file
 * Shared implementation of the fused replay kernels: state layout and
 * construction, the outer SoA walks with their fast paths, and the
 * scalar probe sets, for the i-cache, three-C, iTLB and stream-buffer
 * families, plus the scalar-only instrumented and hierarchy kernels
 * (the latter's flat state also backs serve::ServiceModel). The scalar
 * TU (kernels.cc) and the vector TUs
 * (kernels_avx2.cc / kernels_avx512.cc via kernels_vec.hh) instantiate
 * the same templates with their probe traits, so the kernels can only
 * differ in probe arithmetic — never in state layout, walk order, or
 * counting — which is what keeps them bit-identical to each other and
 * to the scalar Replayer oracle.
 *
 * Algorithm (per CPU, per line-size group of the config chunk):
 *
 *  - Repeat line: a line equal to this group's previous line is the
 *    MRU entry of its set in every member cache — a guaranteed hit
 *    with no LRU state change (re-stamping the MRU entry is a no-op),
 *    so only the access counter moves. Instruction streams are
 *    sequential, so this path takes a large share of fetches.
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
 * Interference attribution needs the victim owner, so every table
 * slot carries an owner byte (0 app / 1 kernel / 2 cold) that is only
 * written on fills — identical to the oracle's owner-tag semantics.
 */

namespace spikesim::sim::detail {

inline constexpr std::uint64_t kInvalidTag = ~0ULL;
/** Victim-owner code for an invalid (cold) entry. */
inline constexpr std::uint8_t kOwnerCold = 2;

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
    std::size_t base = 0; ///< start in am_tags/am_ages/am_owners
};

/** All configurations sharing one line size, plus their cache state. */
struct LineGroup
{
    std::uint32_t line = 0;
    std::uint32_t shift = 0;

    std::vector<DmMember> dm;
    std::size_t dm_min = 0; ///< member with the fewest sets
    std::size_t dm_big = 0; ///< member with the most sets (prefetch)
    std::vector<std::uint64_t> dm_tags;
    std::vector<std::uint8_t> dm_owners;

    std::vector<AssocMember> am;
    std::vector<std::uint64_t> am_tags;
    std::vector<std::uint64_t> am_ages;
    std::vector<std::uint8_t> am_owners;

    std::uint64_t accesses = 0;
    std::uint64_t last_line = kInvalidTag;
};

struct IcacheState
{
    std::vector<LineGroup> groups;
    /** Per config slot: interference counts indexed [m * 3 + victim]. */
    std::vector<std::array<std::uint64_t, 6>> intf;
};

inline IcacheState
buildIcacheState(const mem::CacheConfig* configs, std::size_t k0,
                 std::size_t k1)
{
    IcacheState st;
    st.intf.assign(k1 - k0, {});
    for (std::size_t k = k0; k < k1; ++k) {
        const mem::CacheConfig& c = configs[k];
        const std::string err = c.check();
        SPIKESIM_ASSERT(err.empty(), "bad cache config: " << err);
        LineGroup* g = nullptr;
        for (LineGroup& cand : st.groups)
            if (cand.line == c.line_bytes)
                g = &cand;
        if (g == nullptr) {
            st.groups.emplace_back();
            g = &st.groups.back();
            g->line = c.line_bytes;
            g->shift = static_cast<std::uint32_t>(
                std::bit_width(c.line_bytes) - 1);
        }
        const std::uint32_t sets = c.numSets();
        if (c.assoc == 1) {
            DmMember d;
            d.mask = sets - 1;
            d.sets = sets;
            d.slot = k - k0;
            g->dm.push_back(d);
        } else {
            AssocMember a;
            a.slot = k - k0;
            a.assoc = c.assoc;
            a.set_mask = sets - 1;
            g->am.push_back(a);
        }
    }
    for (LineGroup& g : st.groups) {
        std::uint64_t off = 0;
        for (std::size_t j = 0; j < g.dm.size(); ++j) {
            DmMember& d = g.dm[j];
            d.offset = off;
            off += d.sets;
            if (d.sets < g.dm[g.dm_min].sets)
                g.dm_min = j;
            if (d.sets > g.dm[g.dm_big].sets)
                g.dm_big = j;
        }
        g.dm_tags.assign(off, kInvalidTag);
        g.dm_owners.assign(off, kOwnerCold);

        std::size_t am_off = 0;
        for (AssocMember& a : g.am) {
            a.base = am_off;
            am_off += static_cast<std::size_t>(a.set_mask + 1) * a.assoc;
        }
        g.am_tags.assign(am_off, kInvalidTag);
        g.am_owners.assign(am_off, kOwnerCold);
        g.am_ages.resize(am_off);
        for (const AssocMember& a : g.am)
            for (std::size_t s = 0; s <= a.set_mask; ++s)
                for (std::uint32_t w = 0; w < a.assoc; ++w)
                    g.am_ages[a.base + s * a.assoc + w] = w;
    }
    return st;
}

/** Fold one shard's i-cache state into the output results. Shared by
 *  the scalar per-ref walk and the vector run-coalescing walk. */
inline void
foldIcacheState(const IcacheState& st, const IcacheShard& sh)
{
    for (const LineGroup& g : st.groups) {
        const auto fold = [&](std::size_t slot) {
            ICacheReplayResult& r = sh.out[slot];
            const std::array<std::uint64_t, 6>& c = st.intf[slot];
            r.accesses = g.accesses;
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

/** Branch-lean reference probes; also the tail/odd-assoc fallback of
 *  the AVX2 traits. */
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

    /** Probe one set-associative member with age-permutation LRU. */
    static void
    amProbe(LineGroup& g, const AssocMember& a, std::uint64_t ln,
            unsigned m, std::array<std::uint64_t, 6>* intf)
    {
        const std::uint32_t assoc = a.assoc;
        const std::size_t set = ln & a.set_mask;
        std::uint64_t* tags = g.am_tags.data() + a.base + set * assoc;
        std::uint64_t* ages = g.am_ages.data() + a.base + set * assoc;
        std::uint8_t* own = g.am_owners.data() + a.base + set * assoc;

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

/** How many refs ahead the column prefetches run. */
inline constexpr std::size_t kRefPrefetch = 24;
/** Lead (in refs) for the tag-line prefetch of the biggest DM table. */
inline constexpr std::size_t kTagPrefetch = 4;

template <class Probe>
inline void
runIcacheShardImpl(const IcacheShard& sh)
{
    const ResolvedTraceSoA& soa = *sh.soa;
    IcacheState st = buildIcacheState(sh.configs, sh.k0, sh.k1);
    const auto [begin, end] = soa.cpuRange(sh.cpu);
    const std::uint64_t* addrs = soa.addr.data();
    const std::uint32_t* sizes = soa.bytes.data();
    const std::uint8_t* owners = soa.owner.data();

    for (std::size_t i = begin; i < end; ++i) {
        // Stream the upcoming ref columns; prefetching one address
        // pulls its whole cache line of packed 8-byte entries.
        if (i + kRefPrefetch < end) {
            __builtin_prefetch(addrs + i + kRefPrefetch);
            __builtin_prefetch(sizes + i + kRefPrefetch);
        }
        if (owners[i] ==
            static_cast<std::uint8_t>(mem::Owner::Data))
            continue;
        const unsigned m =
            owners[i] == static_cast<std::uint8_t>(mem::Owner::App)
                ? 0u
                : 1u;
        const std::uint64_t addr = addrs[i];
        const std::uint64_t last_byte = addr + sizes[i] - 1;
        // Cover the probe latency of the biggest (least cache-resident)
        // direct-mapped table with a short-lead slot prefetch.
        const std::uint64_t next_addr =
            addrs[i + kTagPrefetch < end ? i + kTagPrefetch : i];
        for (LineGroup& g : st.groups) {
            if (!g.dm.empty()) {
                const DmMember& big = g.dm[g.dm_big];
                __builtin_prefetch(
                    &g.dm_tags[big.offset +
                               ((next_addr >> g.shift) & big.mask)]);
            }
            std::uint64_t ln = addr >> g.shift;
            const std::uint64_t ln_end = last_byte >> g.shift;
            g.accesses += ln_end - ln + 1;
            std::uint64_t last = g.last_line;
            for (; ln <= ln_end; ++ln) {
                if (ln == last)
                    continue;
                last = ln;
                if (!g.dm.empty()) {
                    const DmMember& mn = g.dm[g.dm_min];
                    if (g.dm_tags[mn.offset + (ln & mn.mask)] != ln)
                        Probe::dmSlow(g, ln, m, st.intf.data());
                }
                for (const AssocMember& a : g.am)
                    Probe::amProbe(g, a, ln, m, st.intf.data());
            }
            g.last_line = last;
        }
    }

    foldIcacheState(st, sh);
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

// ---------------------------------------------------------------------
// Three-C classification kernel.
//
// Exact port of mem::ClassifyingICache onto the grouped-column layout:
// per line-size group one shared first-touch set, one shared ideal
// FA-LRU per *distinct capacity* (ideal caches of equal capacity see
// the identical line-step sequence, so their state is identical and
// can be deduplicated), and the same DM/assoc real-cache machinery as
// the i-cache kernel minus owner tags. Per non-repeat line-step the
// walk reads `seen` (before setting it), accesses every ideal LRU, and
// classifies each member's real miss as compulsory (!seen), capacity
// (!ideal_hit) or conflict — the oracle's exact decision tree. The
// repeat-line fast path is valid for the same reason as the i-cache
// kernel: a repeated line is MRU everywhere (real sets, ideal LRU) and
// already touched, so only the access counter moves.
// ---------------------------------------------------------------------

/** All three-C configurations sharing one line size, plus state. */
struct ThreeCGroup
{
    std::uint32_t line = 0;
    std::uint32_t shift = 0;

    std::vector<DmMember> dm;
    std::size_t dm_min = 0;
    std::vector<std::uint64_t> dm_tags;
    std::vector<std::uint32_t> dm_cap; ///< per dm member: ideal index

    std::vector<AssocMember> am;
    std::vector<std::uint64_t> am_tags;
    std::vector<std::uint64_t> am_ages;
    std::vector<std::uint32_t> am_cap; ///< per am member: ideal index

    std::vector<FlatFaLru> ideal;      ///< one per distinct capacity
    std::vector<std::uint32_t> ideal_lines; ///< capacities (in lines)
    std::vector<std::uint8_t> ideal_hit;    ///< per-line-step scratch
    FlatLineSet touched;

    std::uint64_t line_steps = 0;
    std::uint64_t last_line = kInvalidTag;
};

inline std::vector<ThreeCGroup>
buildThreeCGroups(const mem::CacheConfig* configs, std::size_t k0,
                  std::size_t k1)
{
    std::vector<ThreeCGroup> groups;
    for (std::size_t k = k0; k < k1; ++k) {
        const mem::CacheConfig& c = configs[k];
        const std::string err = c.check();
        SPIKESIM_ASSERT(err.empty(), "bad cache config: " << err);
        ThreeCGroup* g = nullptr;
        for (ThreeCGroup& cand : groups)
            if (cand.line == c.line_bytes)
                g = &cand;
        if (g == nullptr) {
            groups.emplace_back();
            g = &groups.back();
            g->line = c.line_bytes;
            g->shift = static_cast<std::uint32_t>(
                std::bit_width(c.line_bytes) - 1);
        }
        const std::uint32_t lines = c.numLines();
        std::uint32_t ci = static_cast<std::uint32_t>(g->ideal_lines.size());
        for (std::uint32_t j = 0; j < g->ideal_lines.size(); ++j)
            if (g->ideal_lines[j] == lines)
                ci = j;
        if (ci == g->ideal_lines.size()) {
            g->ideal_lines.push_back(lines);
            g->ideal.emplace_back(lines);
        }
        const std::uint32_t sets = c.numSets();
        if (c.assoc == 1) {
            DmMember d;
            d.mask = sets - 1;
            d.sets = sets;
            d.slot = k - k0;
            g->dm.push_back(d);
            g->dm_cap.push_back(ci);
        } else {
            AssocMember a;
            a.slot = k - k0;
            a.assoc = c.assoc;
            a.set_mask = sets - 1;
            g->am.push_back(a);
            g->am_cap.push_back(ci);
        }
    }
    for (ThreeCGroup& g : groups) {
        std::uint64_t off = 0;
        for (std::size_t j = 0; j < g.dm.size(); ++j) {
            DmMember& d = g.dm[j];
            d.offset = off;
            off += d.sets;
            if (d.sets < g.dm[g.dm_min].sets)
                g.dm_min = j;
        }
        g.dm_tags.assign(off, kInvalidTag);

        std::size_t am_off = 0;
        for (AssocMember& a : g.am) {
            a.base = am_off;
            am_off += static_cast<std::size_t>(a.set_mask + 1) * a.assoc;
        }
        g.am_tags.assign(am_off, kInvalidTag);
        g.am_ages.resize(am_off);
        for (const AssocMember& a : g.am)
            for (std::size_t s = 0; s <= a.set_mask; ++s)
                for (std::uint32_t w = 0; w < a.assoc; ++w)
                    g.am_ages[a.base + s * a.assoc + w] = w;
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

template <class Probe>
inline void
runThreeCShardImpl(const ThreeCShard& sh)
{
    const ResolvedTraceSoA& soa = *sh.soa;
    std::vector<ThreeCGroup> groups =
        buildThreeCGroups(sh.configs, sh.k0, sh.k1);
    // Per config slot: [compulsory, capacity, conflict].
    std::vector<std::array<std::uint64_t, 3>> cls(sh.k1 - sh.k0, std::array<std::uint64_t, 3>{});

    const auto [begin, end] = soa.cpuRange(sh.cpu);
    const std::uint64_t* addrs = soa.addr.data();
    const std::uint32_t* sizes = soa.bytes.data();
    const std::uint8_t* owners = soa.owner.data();

    for (std::size_t i = begin; i < end; ++i) {
        if (i + kRefPrefetch < end) {
            __builtin_prefetch(addrs + i + kRefPrefetch);
            __builtin_prefetch(sizes + i + kRefPrefetch);
        }
        if (owners[i] == static_cast<std::uint8_t>(mem::Owner::Data))
            continue;
        const std::uint64_t addr = addrs[i];
        const std::uint64_t last_byte = addr + sizes[i] - 1;
        for (ThreeCGroup& g : groups) {
            std::uint64_t ln = addr >> g.shift;
            const std::uint64_t ln_end = last_byte >> g.shift;
            g.line_steps += ln_end - ln + 1;
            std::uint64_t last = g.last_line;
            for (; ln <= ln_end; ++ln) {
                if (ln == last)
                    continue;
                last = ln;
                const bool seen = g.touched.testAndSet(ln);
                for (std::size_t ci = 0; ci < g.ideal.size(); ++ci)
                    g.ideal_hit[ci] =
                        static_cast<std::uint8_t>(g.ideal[ci].access(ln));
                if (!g.dm.empty()) {
                    const DmMember& mn = g.dm[g.dm_min];
                    if (g.dm_tags[mn.offset + (ln & mn.mask)] != ln) {
                        for (std::size_t j = 0; j < g.dm.size(); ++j) {
                            const DmMember& d = g.dm[j];
                            const std::uint64_t idx =
                                d.offset + (ln & d.mask);
                            if (g.dm_tags[idx] != ln) {
                                g.dm_tags[idx] = ln;
                                classifyThreeC(
                                    cls[d.slot].data(), seen,
                                    g.ideal_hit[g.dm_cap[j]] != 0);
                            }
                        }
                    }
                }
                for (std::size_t j = 0; j < g.am.size(); ++j) {
                    const AssocMember& a = g.am[j];
                    const std::size_t set = ln & a.set_mask;
                    std::uint64_t* tags =
                        g.am_tags.data() + a.base + set * a.assoc;
                    std::uint64_t* ages =
                        g.am_ages.data() + a.base + set * a.assoc;
                    if (!Probe::amAccess(tags, ages, a.assoc, ln))
                        classifyThreeC(cls[a.slot].data(), seen,
                                       g.ideal_hit[g.am_cap[j]] != 0);
                }
            }
            g.last_line = last;
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
// the FA-LRU is only consulted on page changes. Specs are grouped by
// fetch granularity (their line-step walks differ); there is no
// vector-profitable arithmetic, so one scalar implementation serves
// every KernelKind.
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
struct ITlbGroup
{
    std::uint32_t fetch = 0;
    std::uint32_t shift = 0;
    std::vector<ITlbMember> members;
    std::uint64_t line_steps = 0;
    std::uint64_t last_line = kInvalidTag;

    /** Fetch the byte range [addr, last_byte]: one lookup per line
     *  step, except that a repeat of the last fetched line is the MRU
     *  page of every member (a hit with no state change). */
    void
    walk(std::uint64_t addr, std::uint64_t last_byte)
    {
        std::uint64_t ln = addr >> shift;
        const std::uint64_t ln_end = last_byte >> shift;
        line_steps += ln_end - ln + 1;
        std::uint64_t last = last_line;
        for (; ln <= ln_end; ++ln) {
            if (ln == last)
                continue;
            last = ln;
            for (ITlbMember& m : members)
                m.translate(ln << shift);
        }
        last_line = last;
    }
};

/** Group specs [k0, k1) by fetch granularity; member slots are
 *  relative to k0. */
inline std::vector<ITlbGroup>
buildITlbGroups(const ITlbSpec* specs, std::size_t k0, std::size_t k1)
{
    std::vector<ITlbGroup> groups;
    for (std::size_t k = k0; k < k1; ++k) {
        const ITlbSpec& spec = specs[k];
        SPIKESIM_ASSERT(spec.fetch_bytes > 0 &&
                            (spec.fetch_bytes &
                             (spec.fetch_bytes - 1)) == 0,
                        "fetch granularity must be a power of two");
        SPIKESIM_ASSERT(spec.page_bytes > 0 &&
                            (spec.page_bytes & (spec.page_bytes - 1)) ==
                                0,
                        "page size must be a power of two");
        ITlbGroup* g = nullptr;
        for (ITlbGroup& cand : groups)
            if (cand.fetch == spec.fetch_bytes)
                g = &cand;
        if (g == nullptr) {
            groups.emplace_back();
            g = &groups.back();
            g->fetch = spec.fetch_bytes;
            g->shift = static_cast<std::uint32_t>(
                std::bit_width(spec.fetch_bytes) - 1);
        }
        g->members.emplace_back(
            k - k0,
            static_cast<std::uint32_t>(
                std::bit_width(spec.page_bytes) - 1),
            spec.entries);
    }
    return groups;
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
runITlbShardImpl(const ITlbShard& sh)
{
    const ResolvedTraceSoA& soa = *sh.soa;
    std::vector<ITlbGroup> groups = buildITlbGroups(sh.specs, sh.k0, sh.k1);

    const auto [begin, end] = soa.cpuRange(sh.cpu);
    const std::uint64_t* addrs = soa.addr.data();
    const std::uint32_t* sizes = soa.bytes.data();
    const std::uint8_t* owners = soa.owner.data();

    for (std::size_t i = begin; i < end; ++i) {
        if (i + kRefPrefetch < end) {
            __builtin_prefetch(addrs + i + kRefPrefetch);
            __builtin_prefetch(sizes + i + kRefPrefetch);
        }
        if (owners[i] == static_cast<std::uint8_t>(mem::Owner::Data))
            continue;
        const std::uint64_t addr = addrs[i];
        const std::uint64_t last_byte = addr + sizes[i] - 1;
        for (ITlbGroup& g : groups)
            g.walk(addr, last_byte);
    }

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
// sequential-fetch probe. Per-word histogram updates carry serial
// dependences (timestamps, saturating counters), so there is no
// profitable vector form and one scalar implementation serves every
// KernelKind.
// ---------------------------------------------------------------------

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
    std::uint32_t line = 0;
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
runInstrShardImpl(const InstrShard& sh)
{
    const ResolvedTraceSoA& soa = *sh.soa;
    std::vector<InstrGroup> groups;
    for (std::size_t k = sh.k0; k < sh.k1; ++k) {
        const mem::CacheConfig& cfg = sh.configs[k];
        const std::string err = cfg.check();
        SPIKESIM_ASSERT(err.empty(), "bad cache config: " << err);
        SPIKESIM_ASSERT(cfg.line_bytes / 4 <= 64,
                        "line too wide for 64-bit word masks");
        InstrGroup* g = nullptr;
        for (InstrGroup& cand : groups)
            if (cand.line == cfg.line_bytes)
                g = &cand;
        if (g == nullptr) {
            groups.emplace_back();
            g = &groups.back();
            g->line = cfg.line_bytes;
            g->shift = static_cast<std::uint32_t>(
                std::bit_width(cfg.line_bytes) - 1);
            g->wpl = cfg.line_bytes / 4;
        }
        g->members.emplace_back(k - sh.k0, cfg, g->wpl);
    }

    const auto [begin, end] = soa.cpuRange(sh.cpu);
    const std::uint64_t* addrs = soa.addr.data();
    const std::uint32_t* sizes = soa.bytes.data();
    const std::uint8_t* owners = soa.owner.data();

    for (std::size_t i = begin; i < end; ++i) {
        if (i + kRefPrefetch < end) {
            __builtin_prefetch(addrs + i + kRefPrefetch);
            __builtin_prefetch(sizes + i + kRefPrefetch);
        }
        if (owners[i] == static_cast<std::uint8_t>(mem::Owner::Data))
            continue;
        const std::uint64_t addr = addrs[i];
        const std::uint32_t words = sizes[i] / 4;
        for (InstrGroup& g : groups) {
            std::uint32_t w = 0;
            while (w < words) {
                const std::uint64_t wa = addr + 4ULL * w;
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
            if (sh.flush_at_end)
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
struct StreamBufGroup
{
    std::uint32_t line = 0;
    std::uint32_t shift = 0;
    std::vector<StreamBufMember> members;
    std::vector<std::uint64_t> tags;
    std::vector<std::uint64_t> ages;
    std::uint64_t line_steps = 0;
    std::uint64_t last_line = kInvalidTag;
};

inline std::vector<StreamBufGroup>
buildStreamBufGroups(const mem::CacheConfig* configs, std::size_t k0,
                     std::size_t k1, int num_buffers)
{
    SPIKESIM_ASSERT(num_buffers > 0, "need at least one stream buffer");
    std::vector<StreamBufGroup> groups;
    for (std::size_t k = k0; k < k1; ++k) {
        const mem::CacheConfig& c = configs[k];
        const std::string err = c.check();
        SPIKESIM_ASSERT(err.empty(), "bad cache config: " << err);
        StreamBufGroup* g = nullptr;
        for (StreamBufGroup& cand : groups)
            if (cand.line == c.line_bytes)
                g = &cand;
        if (g == nullptr) {
            groups.emplace_back();
            g = &groups.back();
            g->line = c.line_bytes;
            g->shift = static_cast<std::uint32_t>(
                std::bit_width(c.line_bytes) - 1);
        }
        StreamBufMember m;
        m.slot = k - k0;
        m.assoc = c.assoc;
        m.set_mask = c.numSets() - 1;
        m.buf_next.assign(static_cast<std::size_t>(num_buffers), 0);
        m.buf_stamp.assign(static_cast<std::size_t>(num_buffers), 0);
        m.buf_valid.assign(static_cast<std::size_t>(num_buffers), 0);
        g->members.push_back(std::move(m));
    }
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

template <class Probe>
inline void
runStreamBufShardImpl(const StreamBufShard& sh)
{
    const ResolvedTraceSoA& soa = *sh.soa;
    std::vector<StreamBufGroup> groups = buildStreamBufGroups(
        sh.configs, sh.k0, sh.k1, sh.num_buffers);
    const std::size_t nb = static_cast<std::size_t>(sh.num_buffers);

    const auto [begin, end] = soa.cpuRange(sh.cpu);
    const std::uint64_t* addrs = soa.addr.data();
    const std::uint32_t* sizes = soa.bytes.data();
    const std::uint8_t* owners = soa.owner.data();

    for (std::size_t i = begin; i < end; ++i) {
        if (i + kRefPrefetch < end) {
            __builtin_prefetch(addrs + i + kRefPrefetch);
            __builtin_prefetch(sizes + i + kRefPrefetch);
        }
        if (owners[i] == static_cast<std::uint8_t>(mem::Owner::Data))
            continue;
        const std::uint64_t addr = addrs[i];
        const std::uint64_t last_byte = addr + sizes[i] - 1;
        for (StreamBufGroup& g : groups) {
            std::uint64_t ln = addr >> g.shift;
            const std::uint64_t ln_end = last_byte >> g.shift;
            g.line_steps += ln_end - ln + 1;
            std::uint64_t last = g.last_line;
            for (; ln <= ln_end; ++ln) {
                if (ln == last)
                    continue;
                last = ln;
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
                        hit = Probe::amAccess(
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
            g.last_line = last;
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
runHierarchyShardImpl(const HierarchyShard& sh)
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
    std::uint64_t instrs = 0;
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
        instrs += sizes[i] / program::kInstrBytes;
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
    *sh.instrs = instrs;
    *sh.fetch_breaks = breaks;
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
