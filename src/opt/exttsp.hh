#ifndef SPIKESIM_OPT_EXTTSP_HH
#define SPIKESIM_OPT_EXTTSP_HH

#include <cstdint>
#include <vector>

#include "core/layout.hh"
#include "profile/profile.hh"
#include "program/program.hh"

/**
 * @file
 * ExtTSP-style layout cost model (Newell & Pupyrev, "Improved Basic
 * Block Reordering"). Where the paper's greedy pipeline follows one
 * merge rule (heaviest edge becomes a fall-through), ExtTSP assigns a
 * *score* to a whole layout and lets a search optimize it directly:
 *
 *   score = sum over profiled transfer edges (s -> t, count w) of
 *           w * k(kind, distance)
 *
 * with k = 1 for an exact fall-through (the jump distance is zero),
 * a linearly decaying bonus for short forward jumps (the target is
 * likely in an already-fetched or prefetched line), a smaller, faster-
 * decaying bonus for short backward jumps (loop bodies resident in the
 * i-cache), and an additive co-residency bonus when source and target
 * share one i-cache line (a transfer inside a line can never miss).
 *
 * The model is a cheap proxy for replayed i-cache misses: it needs no
 * trace, so an annealer can score many candidate layouts per second and
 * reserve the replay engine for periodic ground-truth re-ranks
 * (opt/search.hh). extTspScore is the oracle over a materialized
 * core::Layout; ExtTspScorer is the search's production path, which
 * resolves the edge table once and then costs O(blocks + profiled
 * edges) per candidate, bit-equal to the oracle.
 */

namespace spikesim::opt {

/** Knobs of the ExtTSP score. Defaults follow Newell & Pupyrev scaled
 *  to this repo's 4-byte instructions, plus the line-co-residency term
 *  (AI-PROPELLER-style) that ties the proxy to i-cache geometry. */
struct ExtTspParams
{
    /** Weight of an exact fall-through (distance 0). */
    double fallthrough_weight = 1.0;
    /** Peak weight of a short forward jump, decaying linearly to zero
     *  at forward_window_bytes. */
    double forward_weight = 0.1;
    std::uint32_t forward_window_bytes = 1024;
    /** Peak weight of a short backward jump, decaying linearly to zero
     *  at backward_window_bytes. */
    double backward_weight = 0.1;
    std::uint32_t backward_window_bytes = 640;
    /** Additive bonus when source branch and target live in the same
     *  i-cache line of line_bytes. */
    double coline_weight = 0.05;
    std::uint32_t line_bytes = 64;
    /** Score inter-procedure call edges (caller block -> callee entry)
     *  too; this is what lets the model see segment-ordering quality,
     *  not just intra-procedure chaining. */
    bool include_calls = true;

    // --- Page-aware terms (all off by default; the flat search and
    // --- the PR 4 tests see the identical classic model). ---

    /** Distance-bucketed gap penalty: jumps of >= gap_start_bytes are
     *  charged gap_weight scaled by which power-of-two distance bucket
     *  the gap lands in (1KB..2KB -> 1/12, 2KB..4KB -> 2/12, ...,
     *  saturating at 12/12 for >= 2MB jumps). Distance-blind windows
     *  above stop caring past 1KB; this term keeps pressure on long
     *  transfers all the way up to huge-page scale. */
    double gap_weight = 0.0;
    std::uint32_t gap_start_bytes = 1024;
    /** Additive bonus when source and target share one 4KB page (the
     *  transfer cannot take an iTLB miss at base pages). */
    double page4k_weight = 0.0;
    std::uint32_t page4k_bytes = 4096;
    /** Additive bonus when source and target share one 2MB region
     *  (co-residency under a huge-page mapping). */
    double page2m_weight = 0.0;
    std::uint32_t page2m_bytes = 2u * 1024 * 1024;
    /** Subtractive per-edge iTLB proxy: each execution of an edge whose
     *  endpoints live on different itlb_page_bytes pages is charged
     *  itlb_weight. extTspITlbCost() exposes the raw page-cross sum so
     *  tests can differentially compare it with replayed iTLB misses. */
    double itlb_weight = 0.0;
    std::uint32_t itlb_page_bytes = 4096;
};

/**
 * Score one transfer of `count` executions from a branch ending at
 * byte `src_end` to a target at byte `dst_addr` (the edge kernel;
 * exposed so tests can cross-check the whole-layout sums).
 */
double extTspEdgeScore(std::uint64_t src_end, std::uint64_t dst_addr,
                       std::uint64_t count, const ExtTspParams& params);

/**
 * ExtTSP score of a full layout under a profile: flow edges of every
 * procedure plus (optionally) call edges, each scored by the kernel
 * above at the layout's addresses. Higher is better. Deterministic:
 * edges are accumulated in a fixed program order, so equal layouts
 * produce bit-equal scores.
 */
double extTspScore(const core::Layout& layout,
                   const profile::Profile& profile,
                   const ExtTspParams& params = {});

/**
 * The search's production path to extTspScore: everything about the
 * score that no candidate can change is resolved once, at
 * construction — the successor table behind the trailing-branch size
 * rule and a flat edge table holding the non-zero flow edges and the
 * call edges in extTspScore's order — so scoring a candidate is one
 * pass over its segment sequence (adjusted sizes and addresses, with
 * alignment padding, into per-thread scratch) plus one pass over the
 * edge table. No core::Layout is built, the profile is not consulted,
 * and nothing is sorted. Because the edge order and the arithmetic are
 * the oracle's, score(c) is bit-equal to
 * extTspScore(materialize(c, prog, aopts), profile, params)
 * (tests/exttsp_test.cc fuzzes this). A CFA (aopts.cfa_bytes > 0) is
 * not modelled. score() is const and safe to call concurrently.
 */
class ExtTspScorer
{
  public:
    ExtTspScorer(const program::Program& prog,
                 const profile::Profile& profile,
                 const ExtTspParams& params,
                 const core::AssignOptions& aopts);

    /** ExtTSP score of the layout these segments materialize into. */
    double score(const std::vector<core::CodeSegment>& segments) const;

  private:
    struct Edge
    {
        program::GlobalBlockId from;
        program::GlobalBlockId to;
        std::uint64_t count;
    };

    const program::Program& prog_;
    ExtTspParams params_;
    std::uint64_t text_base_;
    std::uint32_t align_;
    /** Blocks in consecutive segments are adjacent (no padding). */
    bool tight_;
    std::vector<core::BlockSuccs> succs_;      ///< by global block id
    std::vector<program::GlobalBlockId> proc_base_; ///< proc -> block 0
    std::vector<Edge> edges_;
};

/**
 * Weighted page-cross count of a layout: sum over profiled transfer
 * edges (flow + optional calls, same fixed order as extTspScore) of
 * `count` for every edge whose source end and target addresses fall on
 * different `itlb_page_bytes` pages. This is the raw quantity behind
 * the itlb_weight term — a trace-free proxy for standalone-iTLB
 * pressure. Lower is better. Deterministic fixed-order integer sum.
 */
double extTspITlbCost(const core::Layout& layout,
                      const profile::Profile& profile,
                      const ExtTspParams& params = {});

/**
 * Shared layout-quality helper, the ExtTSP sibling of
 * core::fallThroughWeight: score a single procedure's intra-procedure
 * block order as if the procedure were laid out alone (blocks packed
 * tight from address 0, layout-adjusted sizes). Call edges are ignored
 * — there is no "rest of the program" to have distances to.
 */
double extTspOrderScore(const program::Program& prog,
                        program::ProcId proc,
                        const profile::Profile& profile,
                        const std::vector<program::BlockLocalId>& order,
                        const ExtTspParams& params = {});

/** Result of the brute-force permutation oracle. */
struct ExhaustiveBest
{
    std::vector<program::BlockLocalId> order;
    double score = 0.0;
    std::uint64_t permutations = 0;
};

/**
 * Brute-force tiny-CFG oracle: enumerate every permutation of one
 * procedure's blocks (entry pinned first — layouts never move a
 * procedure's entry) and return the best extTspOrderScore. Intended
 * for CFGs of <= 8 blocks (5040 permutations); panics above 9.
 */
ExhaustiveBest bestOrderExhaustive(const program::Program& prog,
                                   program::ProcId proc,
                                   const profile::Profile& profile,
                                   const ExtTspParams& params = {});

} // namespace spikesim::opt

#endif // SPIKESIM_OPT_EXTTSP_HH
