#include "sim/kernels_detail.hh"

#if defined(SPIKESIM_AVX2_TU)

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include <immintrin.h>

/**
 * @file
 * The AVX2 i-cache kernel. Only this TU's own code is compiled for
 * AVX2: the target pragma below comes after every include, so the
 * inline helpers it shares with the scalar kernels (kernels_detail.hh,
 * the standard library) are emitted without VEX instructions, and the
 * linker may keep either TU's weak copy of them. Nothing here runs
 * unless sim::resolveKernel() confirmed the host CPU reports AVX2.
 *
 * Instead of gathering scattered tag slots per line, the walk
 * exploits what an instruction trace actually looks like:
 *
 *  1. Run coalescing. Maximal chains of same-owner refs where each
 *     ref starts exactly where the previous one ended are merged into
 *     one byte run [first, run_end). Per line-size group the run spans
 *     lines [L0, L1]; the scalar walk's access counter over the same
 *     refs is (L1-L0+1) plus one extra access per interior ref
 *     boundary that is not line-aligned (the boundary line is counted
 *     by both refs), recovered O(1) per group from a ctz histogram of
 *     the boundary addresses. The scalar walk's repeat-line skip makes
 *     every line in [L0, L1] hit exactly one state update, minus L0
 *     when it equals the group's previous last line — so the span walk
 *     is bit-identical by construction.
 *
 *  2. Gather-free DM probes. Within a span, consecutive lines map to
 *     consecutive slots of a direct-mapped table until the set index
 *     wraps (slot = offset + (ln & mask)), so the fewest-set member's
 *     inclusive fast-path check becomes a contiguous vector load
 *     compared against an iota of line numbers — no gather. Lines
 *     whose lane misses fall back to the scalar all-members fill,
 *     which is the rare case by the inclusion invariant.
 *
 *  3. Group pairing. Two line-size groups' span loops advance in
 *     lockstep, issuing both tag loads before either fixup, covering
 *     one group's load latency with the other's compare.
 *
 * Set-associative members use whole-set vector probes (4/8-way tag
 * compare + branch-free LRU age update, scalar fallback otherwise),
 * applied per line of the span.
 */

#pragma GCC push_options
#pragma GCC target("avx2")

namespace spikesim::sim::detail {
namespace {

/** Largest supported line shift for the boundary-alignment histogram
 *  (16 MB lines — far beyond any simulated geometry). */
inline constexpr std::size_t kMaxLineShift = 24;

/** Lane mask (4 bits) of 64-bit lanes equal to `ln`. */
inline unsigned
eqMask4(__m256i tags, __m256i vln)
{
    const __m256i eq = _mm256_cmpeq_epi64(tags, vln);
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
}

/** ages[w] += (ages[w] < h) for four ways at once. */
inline __m256i
bumpYounger(__m256i ages, __m256i h)
{
    // Ages are tiny non-negative integers, so signed compare is exact;
    // subtracting the all-ones mask adds one to the younger lanes.
    return _mm256_sub_epi64(ages, _mm256_cmpgt_epi64(h, ages));
}

/** Whole-set vector probes for the interference-tracking i-cache
 *  members (owner tags), with scalar fallback for odd widths. */
struct VecAmProbe
{
    static void
    amProbe(LineGroup& g, const AssocMember& a, std::uint64_t ln,
            unsigned m, std::array<std::uint64_t, 6>* intf)
    {
        switch (a.assoc) {
        case 4:
            probe4(g, a, ln, m, intf);
            return;
        case 8:
            probe8(g, a, ln, m, intf);
            return;
        default:
            ScalarProbe::amProbe(g, a, ln, m, intf);
            return;
        }
    }

  private:
    static void
    probe4(LineGroup& g, const AssocMember& a, std::uint64_t ln,
           unsigned m, std::array<std::uint64_t, 6>* intf)
    {
        const std::size_t set = ln & a.set_mask;
        std::uint64_t* tags = g.am_tags.data() + a.base + set * 4;
        std::uint64_t* ages = g.am_ages.data() + a.base + set * 4;
        std::uint8_t* own = g.am_owners.data() + a.base + set * 4;

        const __m256i vln =
            _mm256_set1_epi64x(static_cast<long long>(ln));
        const __m256i vtags = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(tags));
        __m256i vages = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(ages));
        const unsigned hit = eqMask4(vtags, vln);
        if (hit != 0) {
            const unsigned h =
                static_cast<unsigned>(__builtin_ctz(hit));
            const __m256i vh = _mm256_set1_epi64x(
                static_cast<long long>(ages[h]));
            vages = bumpYounger(vages, vh);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages),
                                vages);
            ages[h] = 0;
            return;
        }
        const __m256i vlru = _mm256_set1_epi64x(3);
        const unsigned vict_mask = eqMask4(vages, vlru);
        const unsigned v =
            static_cast<unsigned>(__builtin_ctz(vict_mask));
        ++intf[a.slot][m * 3 + own[v]];
        tags[v] = ln;
        own[v] = static_cast<std::uint8_t>(m);
        vages = bumpYounger(vages, vlru);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages), vages);
        ages[v] = 0;
    }

    static void
    probe8(LineGroup& g, const AssocMember& a, std::uint64_t ln,
           unsigned m, std::array<std::uint64_t, 6>* intf)
    {
        const std::size_t set = ln & a.set_mask;
        std::uint64_t* tags = g.am_tags.data() + a.base + set * 8;
        std::uint64_t* ages = g.am_ages.data() + a.base + set * 8;
        std::uint8_t* own = g.am_owners.data() + a.base + set * 8;

        const __m256i vln =
            _mm256_set1_epi64x(static_cast<long long>(ln));
        const __m256i t_lo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(tags));
        const __m256i t_hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(tags + 4));
        __m256i a_lo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(ages));
        __m256i a_hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(ages + 4));
        const unsigned hit =
            eqMask4(t_lo, vln) | (eqMask4(t_hi, vln) << 4);
        if (hit != 0) {
            const unsigned h =
                static_cast<unsigned>(__builtin_ctz(hit));
            const __m256i vh = _mm256_set1_epi64x(
                static_cast<long long>(ages[h]));
            a_lo = bumpYounger(a_lo, vh);
            a_hi = bumpYounger(a_hi, vh);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages), a_lo);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages + 4),
                                a_hi);
            ages[h] = 0;
            return;
        }
        const __m256i vlru = _mm256_set1_epi64x(7);
        const unsigned vict_mask =
            eqMask4(a_lo, vlru) | (eqMask4(a_hi, vlru) << 4);
        const unsigned v =
            static_cast<unsigned>(__builtin_ctz(vict_mask));
        ++intf[a.slot][m * 3 + own[v]];
        tags[v] = ln;
        own[v] = static_cast<std::uint8_t>(m);
        a_lo = bumpYounger(a_lo, vlru);
        a_hi = bumpYounger(a_hi, vlru);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages), a_lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ages + 4), a_hi);
        ages[v] = 0;
    }
};

/** Lines per vector tag probe (four 64-bit lanes). */
inline constexpr std::size_t kLanes = 4;

/** Bitmask of lanes where tags[i] != ln0 + i, i in [0, kLanes). */
inline unsigned
missMask(const std::uint64_t* tags, std::uint64_t ln0)
{
    const __m256i iota = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(ln0)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256i vtags =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags));
    return ~eqMask4(vtags, iota) & 0xfu;
}

/**
 * Cursor over one group's DM span [ln, l1], tracking the contiguous
 * slot segment of the fewest-set member (slots are consecutive until
 * the index mask wraps).
 */
struct DmSpanCursor
{
    LineGroup* g;
    std::uint64_t ln, l1;
    std::uint64_t seg_end = 0, idx = 0;
    unsigned m;

    DmSpanCursor(LineGroup& grp, std::uint64_t start, std::uint64_t stop,
                 unsigned mm)
        : g(&grp), ln(start), l1(stop), m(mm)
    {
        reseg();
    }

    void
    reseg()
    {
        const DmMember& mn = g->dm[g->dm_min];
        seg_end = std::min(l1, ln | mn.mask);
        idx = mn.offset + (ln & mn.mask);
    }

    bool done() const { return ln > l1; }

    bool vecReady() const { return ln + kLanes <= seg_end + 1; }
};

/** Apply one vector probe's miss mask (bit per lane, lane i = line
 *  ln+i) and advance the cursor by a full vector. */
inline void
dmFix(DmSpanCursor& c, unsigned miss, std::array<std::uint64_t, 6>* intf)
{
    while (miss != 0) {
        const unsigned lane =
            static_cast<unsigned>(std::countr_zero(miss));
        miss &= miss - 1;
        ScalarProbe::dmSlow(*c.g, c.ln + lane, c.m, intf);
    }
    c.ln += kLanes;
    c.idx += kLanes;
    if (c.ln > c.seg_end && !c.done())
        c.reseg();
}

/** Finish the (sub-vector-width) tail of the current slot segment. */
inline void
dmScalarSeg(DmSpanCursor& c, std::array<std::uint64_t, 6>* intf)
{
    std::uint64_t* tags = c.g->dm_tags.data();
    for (; c.ln <= c.seg_end; ++c.ln, ++c.idx)
        if (tags[c.idx] != c.ln)
            ScalarProbe::dmSlow(*c.g, c.ln, c.m, intf);
    if (!c.done())
        c.reseg();
}

inline void
dmSpanSingle(DmSpanCursor& c, std::array<std::uint64_t, 6>* intf)
{
    while (!c.done()) {
        if (c.vecReady()) {
            const unsigned miss =
                missMask(c.g->dm_tags.data() + c.idx, c.ln);
            dmFix(c, miss, intf);
        } else {
            dmScalarSeg(c, intf);
        }
    }
}

/** Walk two groups' spans in lockstep: both tag loads issue before
 *  either fixup, so one group's load latency hides under the other's
 *  compare. */
inline void
dmSpanPair(DmSpanCursor& a, DmSpanCursor& b,
           std::array<std::uint64_t, 6>* intf)
{
    while (!a.done() && !b.done()) {
        const bool ra = a.vecReady();
        const bool rb = b.vecReady();
        if (ra && rb) {
            const unsigned ma =
                missMask(a.g->dm_tags.data() + a.idx, a.ln);
            const unsigned mb =
                missMask(b.g->dm_tags.data() + b.idx, b.ln);
            dmFix(a, ma, intf);
            dmFix(b, mb, intf);
        } else if (!ra) {
            dmScalarSeg(a, intf);
        } else {
            dmScalarSeg(b, intf);
        }
    }
    dmSpanSingle(a, intf);
    dmSpanSingle(b, intf);
}

/** The run-coalescing i-cache shard walk. */
inline void
runIcacheShardRuns(const IcacheShard& sh)
{
    const ResolvedTraceSoA& soa = *sh.soa;
    IcacheState st = buildIcacheState(sh.configs, sh.k0, sh.k1);
    std::size_t max_shift = 0;
    std::size_t min_shift = kMaxLineShift;
    for (const LineGroup& g : st.groups) {
        SPIKESIM_ASSERT(g.shift <= kMaxLineShift,
                        "line size exceeds the vector walk's bound");
        max_shift =
            std::max(max_shift, static_cast<std::size_t>(g.shift));
        min_shift =
            std::min(min_shift, static_cast<std::size_t>(g.shift));
    }
    const auto [begin, end] = soa.cpuRange(sh.cpu);
    const std::uint64_t* addrs = soa.addr.data();
    const std::uint32_t* sizes = soa.bytes.data();
    const std::uint8_t* owners = soa.owner.data();
    const std::uint8_t data8 =
        static_cast<std::uint8_t>(mem::Owner::Data);
    const std::uint8_t app8 = static_cast<std::uint8_t>(mem::Owner::App);

    std::vector<DmSpanCursor> dmspans;
    dmspans.reserve(st.groups.size());
    struct AmSpan
    {
        LineGroup* g;
        std::uint64_t start, stop;
    };
    std::vector<AmSpan> amspans;
    amspans.reserve(st.groups.size());
    // tz[t] accumulates interior ref boundaries whose address has t
    // trailing zero bits; after the in-place exclusive prefix pass,
    // tz[s] is the number of boundaries *below* s bits of alignment —
    // exactly the double-counted lines of a group with line shift s.
    std::array<std::uint32_t, kMaxLineShift + 1> tz;

    std::size_t i = begin;
    while (i < end) {
        if (i + kRefPrefetch < end) {
            __builtin_prefetch(addrs + i + kRefPrefetch);
            __builtin_prefetch(sizes + i + kRefPrefetch);
        }
        if (owners[i] == data8) {
            ++i;
            continue;
        }
        const std::uint8_t own8 = owners[i];
        const unsigned m = own8 == app8 ? 0u : 1u;
        const std::uint64_t first = addrs[i];
        std::uint64_t run_end = first + sizes[i];
        std::uint32_t nb = 0;
        std::size_t j = i + 1;
        while (j < end && owners[j] == own8 && addrs[j] == run_end) {
            if (j + kRefPrefetch < end) {
                __builtin_prefetch(addrs + j + kRefPrefetch);
                __builtin_prefetch(sizes + j + kRefPrefetch);
            }
            // The histogram only matters once a boundary exists, and
            // only up to the coarsest line shift in this config chunk
            // (finer-aligned boundaries are aligned for every group).
            if (nb++ == 0)
                std::fill(tz.begin(), tz.begin() + max_shift + 1, 0u);
            ++tz[std::min<std::size_t>(
                static_cast<std::size_t>(std::countr_zero(run_end)),
                max_shift)];
            run_end += sizes[j];
            ++j;
        }
        i = j;
        if (nb != 0) {
            std::uint32_t acc = 0;
            for (std::size_t t = 0; t <= max_shift; ++t) {
                const std::uint32_t cur = tz[t];
                tz[t] = acc;
                acc += cur;
            }
        }
        const std::uint64_t last_byte = run_end - 1;

        // Short-run fast path: the finest-shift group has the widest
        // line span, so if even it cannot fill one vector of lanes no
        // group can — probe scalar without any cursor setup. Results
        // are identical either way (the cursor path would route every
        // line through the same scalar probes).
        if ((last_byte >> min_shift) - (first >> min_shift) + 1 <
            kLanes) {
            for (LineGroup& g : st.groups) {
                const std::uint64_t l0 = first >> g.shift;
                const std::uint64_t l1 = last_byte >> g.shift;
                g.line_steps +=
                    (l1 - l0 + 1) + (nb != 0 ? tz[g.shift] : 0u);
                const std::uint64_t start =
                    l0 + (l0 == g.last_line ? 1 : 0);
                g.last_line = l1;
                if (start > l1)
                    continue;
                if (!g.dm.empty()) {
                    const DmMember& mn = g.dm[g.dm_min];
                    const std::uint64_t* tags = g.dm_tags.data();
                    for (std::uint64_t ln = start; ln <= l1; ++ln)
                        if (tags[mn.offset + (ln & mn.mask)] != ln)
                            ScalarProbe::dmSlow(g, ln, m,
                                                st.intf.data());
                }
                for (const AssocMember& a : g.am)
                    for (std::uint64_t ln = start; ln <= l1; ++ln)
                        VecAmProbe::amProbe(g, a, ln, m,
                                            st.intf.data());
            }
            continue;
        }

        dmspans.clear();
        amspans.clear();
        for (LineGroup& g : st.groups) {
            const std::uint64_t l0 = first >> g.shift;
            const std::uint64_t l1 = last_byte >> g.shift;
            g.line_steps += (l1 - l0 + 1) + (nb != 0 ? tz[g.shift] : 0u);
            const std::uint64_t start =
                l0 + (l0 == g.last_line ? 1 : 0);
            g.last_line = l1;
            if (start > l1)
                continue;
            if (!g.dm.empty())
                dmspans.emplace_back(g, start, l1, m);
            if (!g.am.empty())
                amspans.push_back(AmSpan{&g, start, l1});
        }

        std::size_t p = 0;
        for (; p + 1 < dmspans.size(); p += 2)
            dmSpanPair(dmspans[p], dmspans[p + 1], st.intf.data());
        if (p < dmspans.size())
            dmSpanSingle(dmspans[p], st.intf.data());

        for (const AmSpan& s : amspans)
            for (std::uint64_t ln = s.start; ln <= s.stop; ++ln)
                for (const AssocMember& a : s.g->am)
                    VecAmProbe::amProbe(*s.g, a, ln, m,
                                        st.intf.data());
    }

    foldIcacheState(st, sh);
}

} // namespace

void
icacheShardAvx2(const IcacheShard& shard)
{
    runIcacheShardRuns(shard);
}

} // namespace spikesim::sim::detail

#pragma GCC pop_options

#endif // SPIKESIM_AVX2_TU
