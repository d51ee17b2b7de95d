#ifndef SPIKESIM_OPT_SEARCH_HH
#define SPIKESIM_OPT_SEARCH_HH

#include <cstdint>
#include <vector>

#include "core/pipeline.hh"
#include "mem/cache.hh"
#include "opt/exttsp.hh"
#include "opt/perturb.hh"
#include "sim/replay.hh"
#include "support/threadpool.hh"
#include "trace/trace.hh"

/**
 * @file
 * Budgeted layout search over the greedy pipeline's output. The greedy
 * combos (core/pipeline.hh) each make one pass of locally-optimal
 * decisions; the search treats any combo's layout as a *seed* and
 * explores the neighbourhood its tie-breaks and merge order never
 * visited:
 *
 *   - Candidates are perturbed segment sequences (opt/perturb.hh).
 *   - Each epoch, a batch of candidates is generated and scored with
 *     the cheap ExtTSP proxy in parallel on a ThreadPool, one task per
 *     candidate. Scoring goes through an opt::ExtTspScorer built once
 *     per search (opt/exttsp.hh), so a candidate is never materialized
 *     into a core::Layout just to be scored. A candidate depends only
 *     on the incumbent and its own seeded stream, so the batch keeps
 *     just fingerprints and scores; the few candidates acceptance and
 *     the re-rank need are drawn again. Acceptance is sequential. The
 *     result is byte-identical for a given seed regardless of the
 *     pool's width.
 *   - Acceptance is either first-improvement hill climbing or
 *     simulated annealing with a geometric temperature schedule.
 *   - Every `rerank_every` epochs (and once at the end), the survivors
 *     — seed, incumbent, proxy-best, and the top of the current batch
 *     — are re-ranked against ground truth. The recorded trace is
 *     reduced once per search to a layout-independent block stream
 *     (sim/soa.hh); each candidate's layout is priced on it by one
 *     serial sweep job (sim::sweepStream: the re-rank cache plus, in
 *     page mode, the 4KB and 2MB iTLBs, in one walk per CPU), with
 *     results cached by candidate fingerprint so a layout is never
 *     priced twice. The returned
 *     layout is the ground-truth winner, which by construction is
 *     never worse than the seed on the re-rank cache configuration.
 *
 * This is the first subsystem where the simulator runs *inside* the
 * optimizer loop rather than only after it.
 */

namespace spikesim::opt {

/** Search configuration. */
struct SearchOptions
{
    /** RNG seed; equal seeds give byte-identical results. */
    std::uint64_t seed = 1;

    enum class Algorithm {
        /** First-improvement hill climbing (scan batch in index
         *  order, take the first candidate beating the incumbent). */
        HillClimb,
        /** Simulated annealing (batch best; Metropolis acceptance). */
        Anneal,
    };
    Algorithm algorithm = Algorithm::Anneal;

    /** Search budget: epochs x batch candidate evaluations. */
    int epochs = 48;
    int batch = 24;
    /** Each candidate applies 1..max_ops perturbation operators. */
    int max_ops = 4;

    /** Initial annealing temperature as a fraction of |seed score|. */
    double init_temp_frac = 0.02;
    /** Geometric cooling factor per epoch. */
    double cooling = 0.92;

    /** Ground-truth re-rank period in epochs; 0 disables re-ranking
     *  (proxy-only search; also disabled when no trace is given). */
    int rerank_every = 12;
    /** How many of the current batch's proxy-best candidates join the
     *  survivors at each re-rank. */
    std::size_t rerank_top = 3;
    /** Cache configuration ground truth is measured on (the paper's
     *  Figure 7 setup: 64KB, 128B lines, 4-way). */
    mem::CacheConfig rerank_config{64 * 1024, 128, 4};
    /** Stream priced for ground truth. */
    sim::StreamFilter filter = sim::StreamFilter::AppOnly;

    ExtTspParams exttsp;

    /**
     * Page-aware, multi-objective mode. When enabled the search (a)
     * seeds the annealer from the best of three candidates — the flat
     * greedy layout, a hot/cold split of it (compact hot prefix, cold
     * tail), and the Codestitcher-style hierarchical merge
     * (opt/hierarchy.hh) — with the latter two carrying a page RegionMap
     * so perturbation uses the region-respecting operators, (b) keeps
     * all three as permanent re-rank survivors, and (c) re-ranks on a
     * combined objective: icache_weight x fused-i-cache misses +
     * itlb4k_weight x standalone-iTLB misses at 4KB pages +
     * itlb2m_weight x the same at 2MB pages. With weights (1, 0, 0)
     * the objective degenerates to the PR 4 miss count.
     */
    struct PageSearchOptions
    {
        bool enabled = false;
        /** Block count at or above which a segment is hot. */
        std::uint64_t hot_threshold = 1;
        /** Hierarchical merge distance tiers (line, page, huge page). */
        std::vector<std::uint64_t> merge_tiers = {64, 4096,
                                                  2ull * 1024 * 1024};
        /** Page size used to bin hot segments into regions. */
        std::uint64_t region_page_bytes = 4096;
        /** Combined-objective weights. */
        double icache_weight = 1.0;
        double itlb4k_weight = 0.0;
        double itlb2m_weight = 0.0;
        /** iTLB geometry for the standalone-iTLB re-rank replays. */
        std::uint32_t itlb_entries = 64;
    };
    PageSearchOptions page;
};

/** Search outcome plus the audit trail the benches report. */
struct SearchResult
{
    explicit SearchResult(core::Layout seed_layout)
        : layout(std::move(seed_layout))
    {
    }

    /** The winning layout (ground-truth winner when re-ranking ran,
     *  else the proxy-best). */
    core::Layout layout;

    /** ExtTSP score of the (re-materialized) seed layout. */
    double seed_score = 0.0;
    /** Best ExtTSP score found (>= seed_score always). */
    double best_score = 0.0;

    /** Ground-truth misses on rerank_config (0 when never re-ranked). */
    std::uint64_t seed_misses = 0;
    std::uint64_t best_misses = 0;

    /** Standalone-iTLB misses at 4KB / 2MB pages (page-aware mode
     *  only; 0 otherwise). */
    std::uint64_t seed_itlb4k = 0, best_itlb4k = 0;
    std::uint64_t seed_itlb2m = 0, best_itlb2m = 0;
    /** Combined objective (== misses when weights are (1, 0, 0)). */
    double seed_objective = 0.0;
    double best_objective = 0.0;

    /** Region map of the winning candidate (all zero when flat). */
    struct RegionSummary
    {
        std::uint32_t num_regions = 0;
        std::uint32_t num_hot = 0; ///< hot region count
        std::size_t hot_segments = 0;
        std::size_t cold_segments = 0;
        std::uint64_t hot_bytes = 0;
        std::uint64_t cold_bytes = 0;
    };
    RegionSummary regions;

    /** Proxy evaluations performed (excludes the seed's). */
    std::uint64_t proxy_evals = 0;
    /** Ground-truth replays performed / avoided by the cache. */
    std::uint64_t sim_evals = 0;
    std::uint64_t sim_cache_hits = 0;

    /** Best-so-far proxy score after each epoch (non-decreasing). */
    std::vector<double> epoch_best;

    /** Champion ground-truth misses at each re-rank — the search-budget
     *  vs miss-count curve. One point per re-rank; non-increasing. */
    struct RerankPoint
    {
        int epoch = 0;            ///< epochs completed at this point
        std::uint64_t misses = 0; ///< champion misses on rerank_config
        std::uint64_t itlb4k = 0; ///< champion 4KB-page iTLB misses
        double objective = 0.0;   ///< champion combined objective
    };
    std::vector<RerankPoint> rerank_curve;

    PerturbCounts perturb_counts;
};

/**
 * Search for an improved layout, seeded from the greedy pipeline's
 * layout for `popts.combo`. Candidate layouts are materialized with
 * popts.text_base / popts.segment_align (tight packing, like the
 * split-based combos), so seeding from a non-split combo first
 * re-materializes its segments tightly.
 *
 * @param trace when non-null, enables periodic ground-truth re-ranking
 *        on this trace (sopts.rerank_every).
 * @param kernel_layout kernel image layout, needed only when
 *        sopts.filter selects kernel events.
 * @param pool parallel proxy evaluation; null = serial. The result is
 *        byte-identical either way.
 */
SearchResult searchLayout(const program::Program& prog,
                          const profile::Profile& profile,
                          const core::PipelineOptions& popts,
                          const SearchOptions& sopts,
                          const trace::TraceBuffer* trace = nullptr,
                          const core::Layout* kernel_layout = nullptr,
                          support::ThreadPool* pool = nullptr);

} // namespace spikesim::opt

#endif // SPIKESIM_OPT_SEARCH_HH
