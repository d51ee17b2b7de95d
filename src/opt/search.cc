#include "opt/search.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/split.hh"
#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "opt/hierarchy.hh"
#include "sim/price.hh"
#include "support/panic.hh"

namespace spikesim::opt {

namespace {

/** RNG stream ids (Pcg32 sequence selectors). Candidate generation
 *  uses streams >= kCandidateStreamBase so acceptance draws and
 *  candidate draws can never alias. */
constexpr std::uint64_t kAcceptStream = 0xacce97ULL;
constexpr std::uint64_t kCandidateStreamBase = 0x10000ULL;

struct ScoredCandidate
{
    Candidate cand;
    std::uint64_t fp = 0;
    double score = 0.0;
};

/** One ground-truth measurement (iTLB columns only in page mode). */
struct GtResult
{
    std::uint64_t misses = 0;
    std::uint64_t itlb4k = 0;
    std::uint64_t itlb2m = 0;
};

/** Ground-truth evaluator: each uncached candidate is priced on the
 *  search's block stream (built once, here) with a fingerprint-keyed
 *  result cache. */
class GroundTruth
{
  public:
    GroundTruth(const trace::TraceBuffer* trace,
                const program::Program& prog,
                const core::AssignOptions& aopts,
                const core::Layout* kernel, const SearchOptions& sopts)
        : prog_(prog),
          aopts_(aopts),
          kernel_(kernel),
          config_(sopts.rerank_config)
    {
        if (trace != nullptr && sopts.rerank_every > 0) {
            obs::Span span("search.block_stream", "opt");
            stream_ = sim::buildBlockStream(*trace, sopts.filter);
        }
        if (sopts.page.enabled)
            specs_ = {{sopts.page.itlb_entries, 4096,
                       sopts.rerank_config.line_bytes},
                      {sopts.page.itlb_entries, 2u * 1024 * 1024,
                       sopts.rerank_config.line_bytes}};
    }

    /** Measurements for every entry (cached or freshly priced;
     *  uncached entries are priced concurrently on the pool). */
    std::vector<GtResult>
    evaluate(const std::vector<const ScoredCandidate*>& entries,
             support::ThreadPool* pool)
    {
        std::vector<GtResult> out(entries.size());
        std::vector<std::size_t> todo;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            auto it = cache_.find(entries[i]->fp);
            if (it != cache_.end()) {
                out[i] = it->second;
                ++hits_;
            } else {
                todo.push_back(i);
            }
        }
        SPIKESIM_ASSERT(stream_.has_value() || todo.empty(),
                        "ground-truth evaluation needs a trace");
        static obs::Counter& c_priced_refs =
            obs::counter("opt.search.priced_refs");
        auto price = [&](std::size_t i) {
            obs::Span span("search.price", "opt");
            const core::Layout layout =
                materialize(entries[i]->cand, prog_, aopts_);
            const sim::LayoutPrice p = sim::priceLayout(
                *stream_, layout, kernel_, config_, specs_);
            out[i].misses = p.icache.misses;
            if (!specs_.empty()) {
                out[i].itlb4k = p.itlb[0].misses;
                out[i].itlb2m = p.itlb[1].misses;
            }
            c_priced_refs.add(stream_->size());
        };
        if (pool != nullptr && todo.size() > 1) {
            for (std::size_t i : todo)
                pool->submit([&price, i] { price(i); });
            pool->wait();
        } else {
            for (std::size_t i : todo)
                price(i);
        }
        for (std::size_t i : todo)
            cache_.emplace(entries[i]->fp, out[i]);
        evals_ += todo.size();
        return out;
    }

    std::uint64_t evals() const { return evals_; }
    std::uint64_t hits() const { return hits_; }

  private:
    const program::Program& prog_;
    core::AssignOptions aopts_;
    const core::Layout* kernel_;
    mem::CacheConfig config_;
    std::optional<sim::BlockStream> stream_;
    std::vector<sim::ITlbSpec> specs_;
    std::unordered_map<std::uint64_t, GtResult> cache_;
    std::uint64_t evals_ = 0;
    std::uint64_t hits_ = 0;
};

/** Segment byte size under tight packing (no branch adjustment). */
std::uint64_t
candidateBytes(const program::Program& prog, const core::CodeSegment& seg)
{
    const program::Procedure& p = prog.proc(seg.proc);
    std::uint64_t bytes = 0;
    for (program::BlockLocalId b : seg.blocks)
        bytes += static_cast<std::uint64_t>(p.blocks[b].sizeInstrs) *
                 program::kInstrBytes;
    return bytes;
}

/** Indices of the batch's `k` best proxy scores, best first (ties in
 *  index order). */
std::vector<std::size_t>
batchTop(const std::vector<ScoredCandidate>& batch, std::size_t k)
{
    std::vector<std::size_t> order(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return batch[a].score > batch[b].score;
                     });
    order.resize(std::min(k, order.size()));
    return order;
}

SearchResult::RegionSummary
summarizeRegions(const program::Program& prog, const Candidate& cand)
{
    SearchResult::RegionSummary s;
    if (cand.regions.empty())
        return s;
    s.num_regions = cand.regions.num_regions;
    s.num_hot = cand.regions.num_hot;
    for (std::size_t i = 0; i < cand.segments.size(); ++i) {
        const std::uint64_t bytes = candidateBytes(prog, cand.segments[i]);
        if (cand.regions.seg_region[i] < cand.regions.num_hot) {
            ++s.hot_segments;
            s.hot_bytes += bytes;
        } else {
            ++s.cold_segments;
            s.cold_bytes += bytes;
        }
    }
    return s;
}

} // namespace

SearchResult
searchLayout(const program::Program& prog,
             const profile::Profile& profile,
             const core::PipelineOptions& popts,
             const SearchOptions& sopts, const trace::TraceBuffer* trace,
             const core::Layout* kernel_layout, support::ThreadPool* pool)
{
    SPIKESIM_ASSERT(sopts.epochs >= 0 && sopts.batch > 0 &&
                        sopts.max_ops > 0,
                    "bad search budget");
    core::AssignOptions aopts;
    aopts.text_base = popts.text_base;
    aopts.segment_align = popts.segment_align;

    // Every candidate is scored through one table built here.
    const ExtTspScorer scorer(prog, profile, sopts.exttsp, aopts);

    // Seed: the greedy pipeline's layout, re-materialized tight.
    ScoredCandidate seed;
    seed.cand =
        candidateFromLayout(core::buildLayout(prog, profile, popts));
    seed.fp = fingerprint(seed.cand);
    seed.score = scorer.score(seed.cand.segments);

    SearchResult result{materialize(seed.cand, prog, aopts)};
    result.seed_score = seed.score;
    result.best_score = seed.score;

    // Page-aware starting candidates: a hot/cold split of the greedy
    // seed and the hierarchical distance-bounded merge, each carrying
    // the region map that switches perturbation to the region ops.
    const bool page = sopts.page.enabled;
    std::vector<ScoredCandidate> hotcolds;
    ScoredCandidate hier;
    if (page) {
        // Classic coarse hot/cold pipeline order expressed as a
        // permutation of the seed's fine-grain segments: run the
        // per-procedure splitHotCold + Pettis-Hansen pipeline to get
        // the coarse slot order, then bucket the seed's segments into
        // their (procedure, hotness) slot. Coarse granularity is what
        // packs pages -- whole-procedure hot chunks stay contiguous,
        // so the hot working set spans far fewer 4KB pages than any
        // fine-grain shuffle -- while keeping the seed's fine split
        // boundaries for the region-respecting annealer to exploit.
        const auto makeHotCold = [&](std::uint64_t threshold) {
            ScoredCandidate hc;
            core::PipelineOptions hc_popts = popts;
            hc_popts.combo = core::OptCombo::HotCold;
            hc_popts.hot_threshold = threshold;
            const core::Layout coarse =
                core::buildLayout(prog, profile, hc_popts);
            const auto segIsHot = [&](const core::CodeSegment& seg) {
                std::uint64_t peak = 0;
                for (program::BlockLocalId b : seg.blocks)
                    peak = std::max(
                        peak, profile.blockCount(
                                  prog.globalBlockId(seg.proc, b)));
                return peak >= threshold;
            };
            std::vector<std::vector<std::size_t>> hot_of(
                prog.numProcs());
            std::vector<std::vector<std::size_t>> cold_of(
                prog.numProcs());
            for (std::size_t i = 0; i < seed.cand.segments.size(); ++i) {
                const core::CodeSegment& seg = seed.cand.segments[i];
                (segIsHot(seg) ? hot_of : cold_of)[seg.proc].push_back(i);
            }
            // Hot slots first (in coarse layout order), then cold
            // slots, so the hot region is a contiguous prefix for the
            // region map.
            std::size_t num_hot = 0;
            for (const bool want_hot : {true, false})
                for (const core::CodeSegment& cs : coarse.segments()) {
                    if (cs.blocks.empty() || segIsHot(cs) != want_hot)
                        continue;
                    auto& bucket =
                        (want_hot ? hot_of : cold_of)[cs.proc];
                    for (std::size_t i : bucket)
                        hc.cand.segments.push_back(
                            seed.cand.segments[i]);
                    num_hot += want_hot ? bucket.size() : 0;
                    bucket.clear();
                }
            hc.cand.regions =
                buildRegionMap(prog, hc.cand.segments, num_hot,
                               sopts.page.region_page_bytes);
            hc.fp = fingerprint(hc.cand);
            hc.score = scorer.score(hc.cand.segments);
            return hc;
        };
        // A ladder of thresholds around the configured one: where the
        // hot/cold knee sits relative to the iTLB reach is workload-
        // dependent and sharply nonlinear, so several coarse candidates
        // compete in the Pareto-guarded re-rank instead of betting on
        // one. Duplicate fingerprints collapse in the survivor dedup.
        const std::uint64_t base =
            std::max<std::uint64_t>(1, sopts.page.hot_threshold);
        for (const std::uint64_t thr :
             {base, base * 5 / 4, base * 3 / 2, base * 2})
            hotcolds.push_back(makeHotCold(std::max<std::uint64_t>(
                1, thr)));

        HierarchyParams hp;
        hp.tiers = sopts.page.merge_tiers;
        hp.hot_threshold = sopts.page.hot_threshold;
        HierarchyResult hr =
            hierarchicalOrder(prog, profile, seed.cand.segments, hp);
        hier.cand.segments = std::move(hr.segments);
        hier.cand.regions =
            buildRegionMap(prog, hier.cand.segments, hr.num_hot,
                           sopts.page.region_page_bytes);
        hier.fp = fingerprint(hier.cand);
        hier.score = scorer.score(hier.cand.segments);
    }

    ScoredCandidate incumbent = seed;
    ScoredCandidate best_proxy = seed;
    if (page) {
        // Start annealing from the best-proxy structured candidate.
        for (const ScoredCandidate& hc : hotcolds)
            if (hc.score > incumbent.score)
                incumbent = hc;
        if (hier.score > incumbent.score)
            incumbent = hier;
        best_proxy = incumbent;
    }

    const bool rerank = trace != nullptr && sopts.rerank_every > 0;
    GroundTruth gt(trace, prog, aopts, kernel_layout, sopts);
    bool have_gt = false;
    ScoredCandidate best_gt = seed;
    GtResult best_gt_res;
    double best_gt_obj = 0.0;

    auto objective = [&](const GtResult& g) {
        return sopts.page.icache_weight * static_cast<double>(g.misses) +
               sopts.page.itlb4k_weight * static_cast<double>(g.itlb4k) +
               sopts.page.itlb2m_weight * static_cast<double>(g.itlb2m);
    };

    const double temp0 =
        sopts.init_temp_frac * std::max(std::abs(seed.score), 1.0);
    support::Pcg32 accept_rng(sopts.seed, kAcceptStream);

    /** Ground-truth re-rank of the survivor set; the winner becomes
     *  the incumbent. The seed always participates, so the champion
     *  can never be worse than the seed on the re-rank config. */
    auto rerankSurvivors = [&](const std::vector<ScoredCandidate>& batch,
                               int epochs_done) {
        obs::Span span("search.rerank", "opt");
        std::vector<const ScoredCandidate*> survivors{&seed, &incumbent,
                                                      &best_proxy};
        if (page) {
            // The structured candidates always compete, so the champion
            // is never worse than hot/cold or hierarchical placement.
            for (const ScoredCandidate& hc : hotcolds)
                survivors.push_back(&hc);
            survivors.push_back(&hier);
        }
        for (std::size_t i : batchTop(batch, sopts.rerank_top))
            survivors.push_back(&batch[i]);
        // Dedup by fingerprint, keeping first occurrence.
        std::vector<const ScoredCandidate*> uniq;
        for (const ScoredCandidate* s : survivors) {
            bool dup = false;
            for (const ScoredCandidate* u : uniq)
                dup = dup || u->fp == s->fp;
            if (!dup)
                uniq.push_back(s);
        }
        const std::vector<GtResult> m = gt.evaluate(uniq, pool);
        if (std::getenv("SPIKESIM_SEARCH_DEBUG") != nullptr) {
            const auto label = [&](const ScoredCandidate* s) {
                if (s == &seed)
                    return "seed";
                for (const ScoredCandidate& hc : hotcolds)
                    if (s == &hc)
                        return "hotcold";
                if (page && s == &hier)
                    return "hier";
                if (s == &incumbent)
                    return "incumbent";
                if (s == &best_proxy)
                    return "best_proxy";
                return "batch";
            };
            for (std::size_t i = 0; i < uniq.size(); ++i)
                std::cerr << "[search] epoch " << epochs_done << " "
                          << label(uniq[i]) << ": misses " << m[i].misses
                          << " itlb4k " << m[i].itlb4k << " itlb2m "
                          << m[i].itlb2m << " objective "
                          << objective(m[i]) << "\n";
        }
        // Winner: lowest combined objective (== fewest misses with the
        // default weights); ties go to the higher proxy score, then the
        // earlier survivor (seed < incumbent < ...). Only candidates
        // that weakly Pareto-dominate the seed on both hardware
        // metrics are eligible: the weighted objective picks the
        // tradeoff, but it may never buy page locality with i-cache
        // misses or vice versa relative to the greedy baseline. The
        // seed is always uniq[0], so a winner always exists.
        std::size_t win = 0;
        for (std::size_t i = 1; i < uniq.size(); ++i) {
            if (m[i].misses > m[0].misses || m[i].itlb4k > m[0].itlb4k)
                continue;
            if (objective(m[i]) < objective(m[win]) ||
                (objective(m[i]) == objective(m[win]) &&
                 uniq[i]->score > uniq[win]->score))
                win = i;
        }
        if (!have_gt || objective(m[win]) < best_gt_obj ||
            (objective(m[win]) == best_gt_obj &&
             uniq[win]->score > best_gt.score)) {
            best_gt = *uniq[win];
            best_gt_res = m[win];
            best_gt_obj = objective(m[win]);
        }
        const GtResult seed_gt = gt.evaluate({&seed}, nullptr)[0];
        result.seed_misses = seed_gt.misses;
        result.seed_itlb4k = seed_gt.itlb4k;
        result.seed_itlb2m = seed_gt.itlb2m;
        result.seed_objective = objective(seed_gt);
        have_gt = true;
        incumbent = *uniq[win];
        const SearchResult::RerankPoint point{epochs_done,
                                              best_gt_res.misses,
                                              best_gt_res.itlb4k,
                                              best_gt_obj};
        if (!result.rerank_curve.empty() &&
            result.rerank_curve.back().epoch == epochs_done)
            result.rerank_curve.back() = point;
        else
            result.rerank_curve.push_back(point);
    };

    static obs::Counter& c_accepted = obs::counter("opt.search.accepted");
    static obs::Counter& c_proxy = obs::counter("opt.search.proxy_evals");

    const std::size_t batch_size = static_cast<std::size_t>(sopts.batch);
    // Candidate i of epoch e: the incumbent perturbed by the candidate's
    // own seeded stream. It depends on nothing else, so pool tasks only
    // score it, and the few that acceptance or the re-rank keep are
    // drawn again here, before the incumbent changes.
    int e = 0;
    const auto generate = [&](std::size_t i, Candidate& cand,
                              PerturbCounts* counts) {
        support::Pcg32 rng(sopts.seed,
                           kCandidateStreamBase +
                               static_cast<std::uint64_t>(e) * batch_size +
                               i);
        cand = incumbent.cand;
        const int ops = 1 + static_cast<int>(rng.nextBounded(
                                static_cast<std::uint32_t>(sopts.max_ops)));
        perturb(cand, rng, ops, counts);
    };
    // Per-task scratch candidates, reused across the search so that
    // copying the incumbent into a warm one allocates almost nothing;
    // at most one per concurrently running task.
    std::mutex scratch_mu;
    std::vector<std::unique_ptr<Candidate>> scratch;
    std::vector<ScoredCandidate> batch;
    std::vector<PerturbCounts> batch_counts;
    const auto evaluate = [&](std::size_t i) {
        std::unique_ptr<Candidate> cand;
        {
            std::lock_guard<std::mutex> lock(scratch_mu);
            if (!scratch.empty()) {
                cand = std::move(scratch.back());
                scratch.pop_back();
            }
        }
        if (cand == nullptr)
            cand = std::make_unique<Candidate>();
        generate(i, *cand, &batch_counts[i]);
        batch[i].fp = fingerprint(*cand);
        batch[i].score = scorer.score(cand->segments);
        std::lock_guard<std::mutex> lock(scratch_mu);
        scratch.push_back(std::move(cand));
    };
    // A batch slot holds only its fingerprint and score until kept.
    const auto keep = [&](std::size_t i) {
        if (batch[i].cand.segments.empty())
            generate(i, batch[i].cand, nullptr);
    };
    for (; e < sopts.epochs; ++e) {
        obs::Span epoch_span("search.epoch", "opt");
        batch.assign(batch_size, ScoredCandidate{});
        batch_counts.assign(batch_size, PerturbCounts{});
        if (pool != nullptr) {
            for (std::size_t i = 0; i < batch_size; ++i)
                pool->submit([&evaluate, i] { evaluate(i); });
            pool->wait();
        } else {
            for (std::size_t i = 0; i < batch_size; ++i)
                evaluate(i);
        }
        for (const PerturbCounts& pc : batch_counts)
            for (std::size_t op = 0; op < kNumPerturbOps; ++op) {
                result.perturb_counts.applied[op] += pc.applied[op];
                result.perturb_counts.noop[op] += pc.noop[op];
            }
        result.proxy_evals += batch.size();
        c_proxy.add(batch.size());
        if (rerank && ((e + 1) % sopts.rerank_every == 0 ||
                       e + 1 == sopts.epochs))
            for (std::size_t i : batchTop(batch, sopts.rerank_top))
                keep(i);

        // Acceptance (sequential, deterministic).
        const auto accept = [&](std::size_t i) {
            keep(i);
            incumbent = batch[i];
            c_accepted.add(1);
        };
        if (sopts.algorithm == SearchOptions::Algorithm::HillClimb) {
            for (std::size_t i = 0; i < batch.size(); ++i)
                if (batch[i].score > incumbent.score) {
                    accept(i);
                    break;
                }
        } else {
            std::size_t bi = 0;
            for (std::size_t i = 1; i < batch.size(); ++i)
                if (batch[i].score > batch[bi].score)
                    bi = i;
            const double best = batch[bi].score;
            if (best > incumbent.score) {
                accept(bi);
            } else {
                const double temp =
                    temp0 * std::pow(sopts.cooling, static_cast<double>(e));
                if (temp > 0.0 &&
                    accept_rng.nextDouble() <
                        std::exp((best - incumbent.score) / temp))
                    accept(bi);
            }
        }
        if (incumbent.score > best_proxy.score)
            best_proxy = incumbent;
        result.epoch_best.push_back(best_proxy.score);

        if (rerank && (e + 1) % sopts.rerank_every == 0)
            rerankSurvivors(batch, e + 1);
    }

    if (rerank) {
        // Final re-rank so the last epochs' progress is measured too.
        rerankSurvivors(batch, sopts.epochs);
        result.best_misses = best_gt_res.misses;
        result.best_itlb4k = best_gt_res.itlb4k;
        result.best_itlb2m = best_gt_res.itlb2m;
        result.best_objective = best_gt_obj;
        result.best_score = best_proxy.score;
        result.layout = materialize(best_gt.cand, prog, aopts);
        result.regions = summarizeRegions(prog, best_gt.cand);
    } else {
        result.best_score = best_proxy.score;
        result.layout = materialize(best_proxy.cand, prog, aopts);
        result.regions = summarizeRegions(prog, best_proxy.cand);
    }
    result.sim_evals = gt.evals();
    result.sim_cache_hits = gt.hits();
    static obs::Counter& c_sim = obs::counter("opt.search.sim_evals");
    static obs::Counter& c_rerank_hits =
        obs::counter("opt.search.rerank_cache_hits");
    c_sim.add(gt.evals());
    c_rerank_hits.add(gt.hits());
    return result;
}

} // namespace spikesim::opt
