#include "sim/sweep.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "mem/lrustack.hh"
#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "sim/kernels_detail.hh"
#include "support/panic.hh"

namespace spikesim::sim {

/** Stores a job's folded counts in its SweepResult (a friend). */
struct SweepFold
{
    /** `accesses` per line index; `hits` and `interference` (empty
     *  unless the spec asks for it) per configuration, in the result's
     *  [li][si][ai] order; `itlb` per iTLB spec. */
    static void
    store(SweepResult& out, const std::vector<std::uint64_t>& accesses,
          const std::vector<std::uint64_t>& hits,
          std::vector<InterferenceMatrix> interference,
          std::vector<ITlbReplayResult> itlb)
    {
        const std::size_t per_line =
            out.spec_.size_bytes.size() * out.spec_.assocs.size();
        out.accesses_ = accesses;
        for (std::size_t i = 0; i < hits.size(); ++i)
            out.misses_[i] = accesses[i / per_line] - hits[i];
        out.interference_ = std::move(interference);
        out.itlb_ = std::move(itlb);
    }
};

namespace {

/** Owner code of an empty slot: a miss there is a cold fill. */
constexpr std::uint8_t kOwnerCold = 2;

/** One direct-mapped table: a last-line tag per set, and with
 *  interference the filling stream per set and the misses by
 *  [stream][victim owner]. */
struct DmTable
{
    std::uint64_t* slots = nullptr;
    std::uint8_t* owners = nullptr;
    std::uint64_t mask = 0;
    std::uint64_t hits = 0;
    InterferenceMatrix victims;
};

/**
 * One line size's simulation state on one CPU. Configurations sharing
 * a set count share one simulator: (size S, assoc A) at line L uses
 * S / (L * A) sets, and one per-set stack answers every associativity
 * of that set count at once.
 */
struct LinePass
{
    std::uint32_t shift = 0;
    std::vector<std::size_t> sim_of; ///< (si, ai) -> sim index
    bool direct_mapped = false;      ///< every assoc is 1

    // Direct-mapped state: one flat tag table per simulator, the
    // fewest-set one first (owners parallel to tags, interference
    // only).
    std::vector<std::uint64_t> tags;
    std::vector<std::uint8_t> owners;
    std::vector<DmTable> tables;
    std::uint64_t inclusive_hits = 0;

    // General state: one stack-distance simulator per set count.
    std::vector<mem::LruStackSim> sims;

    std::uint64_t accesses = 0;
    std::uint64_t repeat_hits = 0; ///< distance-0 in every config
    std::uint64_t last_line = ~0ULL;

    LinePass(const SweepSpec& spec, std::size_t line_index);
    // `tables` points into `tags` and `owners`: a move keeps the
    // buffers, a copy would not.
    LinePass(const LinePass&) = delete;
    LinePass& operator=(const LinePass&) = delete;
    LinePass(LinePass&&) = default;
    LinePass& operator=(LinePass&&) = default;

    /**
     * Feed the lines of [addr, last_byte]. Only a ref's first line can
     * repeat the previous line: a repeat is its set's most recently
     * used entry under every set mask (a hit everywhere, no state
     * change). In the direct-mapped case a hit in the fewest-set table
     * implies a hit in every table: the set masks are nested low-bit
     * masks, so if the coarsest table's slot holds this line, the line
     * was also the last access to its set in every finer table and all
     * slots already hold it -- one compare, no stores. Instruction
     * streams are sequential enough that these two paths take the vast
     * majority of accesses. With kOwners, `m` is the ref's stream (0
     * app, 1 kernel): a missing DM slot counts its old owner as the
     * victim and takes `m`, and the stacks attribute their misses
     * (mem::LruStackSim::accessOwned). Hits change no owner, as in
     * mem::SetAssocCache.
     */
    template <bool kOwners>
    void
    walk(std::uint64_t addr, std::uint64_t last_byte, unsigned m)
    {
        std::uint64_t ln = addr >> shift;
        const std::uint64_t ln_end = last_byte >> shift;
        accesses += ln_end - ln + 1;
        if (ln == last_line) {
            ++repeat_hits;
            ++ln;
        }
        last_line = ln_end;
        if (direct_mapped) {
            const DmTable& small = tables.front();
            for (; ln <= ln_end; ++ln) {
                if (small.slots[ln & small.mask] == ln) {
                    ++inclusive_hits;
                    continue;
                }
                for (DmTable& t : tables) {
                    const std::uint64_t i = ln & t.mask;
                    std::uint64_t& slot = t.slots[i];
                    if constexpr (kOwners) {
                        if (slot != ln) {
                            ++t.victims.counts[m][t.owners[i]];
                            t.owners[i] = static_cast<std::uint8_t>(m);
                        }
                    }
                    t.hits += slot == ln;
                    slot = ln;
                }
            }
        } else {
            for (; ln <= ln_end; ++ln)
                for (mem::LruStackSim& sim : sims) {
                    if constexpr (kOwners)
                        sim.accessOwned(ln, m);
                    else
                        sim.access(ln);
                }
        }
    }

    /** Hits of set count `k` at associativity `assoc`. */
    std::uint64_t
    hits(std::size_t k, std::uint32_t assoc) const
    {
        return repeat_hits + (direct_mapped
                                  ? tables[k].hits + inclusive_hits
                                  : sims[k].hitsUpTo(assoc));
    }

    /** Misses of set count `k` at associativity `assoc` by [stream]
     *  [victim owner] (interference only). */
    InterferenceMatrix
    victims(std::size_t k, std::uint32_t assoc) const
    {
        if (direct_mapped)
            return tables[k].victims;
        InterferenceMatrix out;
        for (unsigned m = 0; m < 2; ++m)
            for (unsigned v = 0; v < 3; ++v)
                out.counts[m][v] = sims[k].victims(assoc, m, v);
        return out;
    }
};

LinePass::LinePass(const SweepSpec& spec, std::size_t line_index)
{
    const std::uint32_t line = spec.line_bytes[line_index];
    shift = static_cast<std::uint32_t>(std::bit_width(line) - 1);
    const std::size_t num_sizes = spec.size_bytes.size();
    const std::size_t num_assocs = spec.assocs.size();
    std::vector<std::uint32_t> set_counts; // unique, insertion order
    std::vector<std::uint32_t> caps;       // parallel: deepest assoc
    sim_of.resize(num_sizes * num_assocs);
    for (std::size_t si = 0; si < num_sizes; ++si) {
        for (std::size_t ai = 0; ai < num_assocs; ++ai) {
            mem::CacheConfig config{spec.size_bytes[si], line,
                                    spec.assocs[ai]};
            const std::uint32_t sets = config.numSets();
            std::size_t k = 0;
            while (k < set_counts.size() && set_counts[k] != sets)
                ++k;
            if (k == set_counts.size()) {
                set_counts.push_back(sets);
                caps.push_back(config.assoc);
            } else {
                caps[k] = std::max(caps[k], config.assoc);
            }
            sim_of[si * num_assocs + ai] = k;
        }
    }

    direct_mapped = *std::max_element(caps.begin(), caps.end()) == 1;
    if (direct_mapped) {
        // Put the fewest-set simulator first so walk() probes it
        // before touching the others; sim_of follows the move.
        const std::size_t k_min = static_cast<std::size_t>(
            std::min_element(set_counts.begin(), set_counts.end()) -
            set_counts.begin());
        std::swap(set_counts[0], set_counts[k_min]);
        for (std::size_t& k : sim_of)
            k = k == k_min ? 0 : k == 0 ? k_min : k;
        std::size_t slots = 0;
        for (std::uint32_t sets : set_counts)
            slots += sets;
        tags.assign(slots, ~0ULL);
        if (spec.interference)
            owners.assign(slots, kOwnerCold);
        std::size_t base = 0;
        for (std::uint32_t sets : set_counts) {
            DmTable t;
            t.slots = tags.data() + base;
            t.owners = spec.interference ? owners.data() + base : nullptr;
            t.mask = sets - 1ULL;
            tables.push_back(t);
            base += sets;
        }
    } else {
        // With interference, each simulator attributes misses at the
        // assocs asked of it.
        std::vector<std::uint64_t> owner_assocs(set_counts.size(), 0);
        if (spec.interference)
            for (std::size_t i = 0; i < sim_of.size(); ++i)
                owner_assocs[sim_of[i]] |=
                    1ULL << (spec.assocs[i % num_assocs] - 1);
        sims.reserve(set_counts.size());
        for (std::size_t k = 0; k < set_counts.size(); ++k)
            sims.emplace_back(set_counts[k], caps[k], owner_assocs[k]);
    }
}

/** One (job, CPU) task's counts: line fetches per line index, hits
 *  and (with SweepSpec::interference) the interference matrix per
 *  configuration in SweepResult's [li][si][ai] order, and one result
 *  per iTLB spec. */
struct CpuCounts
{
    std::vector<std::uint64_t> accesses;
    std::vector<std::uint64_t> hits;
    std::vector<InterferenceMatrix> interference;
    std::vector<ITlbReplayResult> itlb;
};

/**
 * Walk one CPU's block ids once, gathering each ref's (addr, bytes)
 * from the job's block tables and feeding every line size's pass and
 * every iTLB fetch-granularity group. Data refs and zero-size blocks
 * are skipped: the block stream keeps the latter because emptiness
 * depends on the layout. The kernel tag names the ref's stream for
 * the owner tracking.
 */
template <bool kOwners>
CpuCounts
sweepCpu(const std::uint32_t* ids, std::size_t n,
         const BlockTables& app, const BlockTables& kernel,
         const SweepSpec& spec)
{
    std::vector<LinePass> passes;
    passes.reserve(spec.line_bytes.size());
    for (std::size_t li = 0; li < spec.line_bytes.size(); ++li)
        passes.emplace_back(spec, li);
    std::vector<detail::ITlbGroup> tlbs =
        detail::buildITlbGroups(spec.itlb);

    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t id = ids[i];
        if ((id & kDataRefTag) != 0)
            continue;
        const BlockTables& img = detail::tablesFor(id, app, kernel);
        const std::uint32_t g = id & kBlockIdMask;
        const std::uint32_t size = img.size[g];
        if (size == 0)
            continue;
        const std::uint64_t addr = img.addr[g];
        const std::uint64_t last_byte =
            addr +
            static_cast<std::uint64_t>(size) * program::kInstrBytes - 1;
        const unsigned m = (id & kKernelBlockTag) != 0 ? 1u : 0u;
        for (LinePass& p : passes)
            p.walk<kOwners>(addr, last_byte, m);
        for (detail::ITlbGroup& t : tlbs)
            t.walk(addr, last_byte);
    }

    CpuCounts out;
    for (const LinePass& p : passes) {
        out.accesses.push_back(p.accesses);
        for (std::size_t si = 0; si < spec.size_bytes.size(); ++si)
            for (std::size_t ai = 0; ai < spec.assocs.size(); ++ai) {
                const std::size_t k = p.sim_of[si * spec.assocs.size() + ai];
                out.hits.push_back(p.hits(k, spec.assocs[ai]));
                if constexpr (kOwners)
                    out.interference.push_back(
                        p.victims(k, spec.assocs[ai]));
            }
    }
    out.itlb.resize(spec.itlb.size());
    detail::foldITlbGroups(tlbs, out.itlb.data());
    return out;
}

/** A sweep job bound to its block stream and block tables. */
struct BoundJob
{
    const BlockStream* stream = nullptr;
    BlockTables app;
    BlockTables kernel;
    const SweepSpec* spec = nullptr;
};

/** Run `task` on the pool, or at once on the caller when there is
 *  none. */
void
submit(support::ThreadPool* pool, std::function<void()> task)
{
    if (pool != nullptr)
        pool->submit(std::move(task));
    else
        task();
}

void
join(support::ThreadPool* pool)
{
    if (pool != nullptr)
        pool->wait();
}

void
checkSpec(const SweepSpec& spec, const std::string& label)
{
    const std::string err = spec.check();
    SPIKESIM_ASSERT(err.empty(), "bad sweep spec (" << label << "): " << err);
}

/**
 * The one sweep driver: one task per (job, CPU), each writing its own
 * counts slot, then every job's counts folded in CPU order. Results
 * come back in job order and are identical at any pool width and with
 * no pool.
 */
std::vector<SweepResult>
sweepBound(const std::vector<BoundJob>& jobs, support::ThreadPool* pool)
{
    std::vector<std::vector<CpuCounts>> counts(jobs.size());
    std::uint64_t streamed = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const BlockStream& stream = *jobs[j].stream;
        counts[j].resize(static_cast<std::size_t>(stream.num_cpus));
        streamed += stream.size();
        for (int c = 0; c < stream.num_cpus; ++c) {
            submit(pool, [&job = jobs[j], &out = counts[j], c] {
                obs::Span span("sweep.cpu", "sim");
                const auto [begin, end] = job.stream->cpuRange(c);
                const std::uint32_t* ids = job.stream->ids.data() + begin;
                out[static_cast<std::size_t>(c)] =
                    job.spec->interference
                        ? sweepCpu<true>(ids, end - begin, job.app,
                                         job.kernel, *job.spec)
                        : sweepCpu<false>(ids, end - begin, job.app,
                                          job.kernel, *job.spec);
            });
        }
    }
    join(pool);

    std::vector<SweepResult> results;
    results.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        CpuCounts total = std::move(counts[j].front());
        for (std::size_t c = 1; c < counts[j].size(); ++c) {
            const CpuCounts& cpu = counts[j][c];
            for (std::size_t i = 0; i < total.accesses.size(); ++i)
                total.accesses[i] += cpu.accesses[i];
            for (std::size_t i = 0; i < total.hits.size(); ++i)
                total.hits[i] += cpu.hits[i];
            for (std::size_t i = 0; i < total.interference.size(); ++i)
                for (int m = 0; m < 2; ++m)
                    for (int v = 0; v < 3; ++v)
                        total.interference[i].counts[m][v] +=
                            cpu.interference[i].counts[m][v];
            for (std::size_t i = 0; i < total.itlb.size(); ++i)
                total.itlb[i] += cpu.itlb[i];
        }
        SweepFold::store(results.emplace_back(*jobs[j].spec),
                         total.accesses, total.hits,
                         std::move(total.interference),
                         std::move(total.itlb));
    }

    static obs::Counter& c_jobs = obs::counter("sim.sweep.jobs");
    static obs::Counter& c_refs =
        obs::counter("sim.sweep.streamed_refs");
    c_jobs.add(jobs.size());
    c_refs.add(streamed);
    return results;
}

} // namespace

std::vector<SweepResult>
runSweepJobs(const trace::TraceBuffer& trace,
             const std::vector<SweepJob>& jobs,
             support::ThreadPool* pool)
{
    for (const SweepJob& job : jobs) {
        SPIKESIM_ASSERT(job.app_layout != nullptr,
                        "sweep job needs an application layout");
        checkSpec(job.spec, job.label);
    }

    // One block stream per distinct filter; jobs index into them.
    std::vector<StreamFilter> filters;
    std::vector<std::size_t> stream_of;
    for (const SweepJob& job : jobs) {
        auto it = std::find(filters.begin(), filters.end(), job.filter);
        stream_of.push_back(
            static_cast<std::size_t>(it - filters.begin()));
        if (it == filters.end())
            filters.push_back(job.filter);
    }
    std::vector<BlockStream> streams(filters.size());
    for (std::size_t f = 0; f < filters.size(); ++f) {
        submit(pool, [&trace, &filters, &streams, f] {
            obs::Span span("sweep.block_stream", "sim");
            streams[f] = buildBlockStream(trace, filters[f]);
        });
    }
    join(pool);

    std::vector<BoundJob> bound;
    bound.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const BlockStream& stream = streams[stream_of[j]];
        bound.push_back(
            {&stream, imageTables(jobs[j].app_layout, stream.app_blocks),
             imageTables(jobs[j].kernel_layout, stream.kernel_blocks),
             &jobs[j].spec});
    }
    return sweepBound(bound, pool);
}

SweepResult
sweepStream(const BlockStream& stream, const BlockTables& app,
            const BlockTables& kernel, const SweepSpec& spec,
            support::ThreadPool* pool)
{
    checkSpec(spec, "block stream");
    return std::move(sweepBound({{&stream, app, kernel, &spec}}, pool)
                         .front());
}

std::vector<SweepSpec>
sweepSpecsFor(std::span<const mem::CacheConfig> configs,
              std::vector<std::size_t>& spec_of)
{
    const auto add = [](std::vector<std::uint32_t>& dim, std::uint32_t v) {
        if (std::find(dim.begin(), dim.end(), v) == dim.end())
            dim.push_back(v);
    };
    const auto with = [&](SweepSpec spec, const mem::CacheConfig& c) {
        add(spec.size_bytes, c.size_bytes);
        add(spec.line_bytes, c.line_bytes);
        add(spec.assocs, c.assoc);
        return spec;
    };
    std::vector<SweepSpec> specs;
    spec_of.clear();
    for (const mem::CacheConfig& c : configs) {
        std::size_t s = 0;
        for (; s < specs.size(); ++s) {
            SweepSpec grown = with(specs[s], c);
            if (grown.check().empty()) {
                specs[s] = std::move(grown);
                break;
            }
        }
        if (s == specs.size()) {
            SweepSpec fresh;
            fresh.assocs.clear();
            specs.push_back(with(std::move(fresh), c));
        }
        spec_of.push_back(s);
    }
    return specs;
}

std::vector<ICacheReplayResult>
sweepColumn(const BlockStream& stream, const BlockTables& app,
            const BlockTables& kernel,
            std::span<const mem::CacheConfig> configs, bool interference,
            support::ThreadPool* pool)
{
    std::vector<std::size_t> spec_of;
    std::vector<SweepResult> sweeps;
    for (SweepSpec& spec : sweepSpecsFor(configs, spec_of)) {
        spec.interference = interference;
        sweeps.push_back(sweepStream(stream, app, kernel, spec, pool));
    }
    std::vector<ICacheReplayResult> out;
    out.reserve(configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
        const SweepResult& sweep = sweeps[spec_of[k]];
        if (interference) {
            out.push_back(sweep.icache(configs[k]));
        } else {
            ICacheReplayResult& r = out.emplace_back();
            r.accesses = sweep.accesses(configs[k].line_bytes);
            r.misses = sweep.misses(configs[k]);
        }
    }
    return out;
}

} // namespace spikesim::sim
