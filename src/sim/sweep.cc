#include "sim/sweep.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "mem/lrustack.hh"
#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "sim/kernels_detail.hh"
#include "sim/price.hh"
#include "support/panic.hh"

namespace spikesim::sim {

/** Stores a job's folded counts in its SweepResult (a friend). */
struct SweepFold
{
    /** `accesses` per line index; `hits` per configuration, in the
     *  result's [li][si][ai] order. */
    static void
    store(SweepResult& out, const std::vector<std::uint64_t>& accesses,
          const std::vector<std::uint64_t>& hits)
    {
        const std::size_t per_line =
            out.spec_.size_bytes.size() * out.spec_.assocs.size();
        out.accesses_ = accesses;
        for (std::size_t i = 0; i < hits.size(); ++i)
            out.misses_[i] = accesses[i / per_line] - hits[i];
    }
};

namespace {

/** One direct-mapped table: a last-line tag per set. */
struct DmTable
{
    std::uint64_t* slots = nullptr;
    std::uint64_t mask = 0;
    std::uint64_t hits = 0;
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
    // fewest-set one first.
    std::vector<std::uint64_t> tags;
    std::vector<DmTable> tables;
    std::uint64_t inclusive_hits = 0;

    // General state: one stack-distance simulator per set count.
    std::vector<mem::LruStackSim> sims;

    std::uint64_t accesses = 0;
    std::uint64_t repeat_hits = 0; ///< distance-0 in every config
    std::uint64_t last_line = ~0ULL;

    LinePass(const SweepSpec& spec, std::size_t line_index);
    // `tables` points into `tags`: a move keeps the buffer, a copy
    // would not.
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
     * majority of accesses.
     */
    void
    walk(std::uint64_t addr, std::uint64_t last_byte)
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
                    std::uint64_t& slot = t.slots[ln & t.mask];
                    t.hits += slot == ln;
                    slot = ln;
                }
            }
        } else {
            for (; ln <= ln_end; ++ln)
                for (mem::LruStackSim& sim : sims)
                    sim.access(ln);
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
        std::uint64_t* base = tags.data();
        for (std::uint32_t sets : set_counts) {
            tables.push_back({base, sets - 1ULL, 0});
            base += sets;
        }
    } else {
        sims.reserve(set_counts.size());
        for (std::size_t k = 0; k < set_counts.size(); ++k)
            sims.emplace_back(set_counts[k], caps[k]);
    }
}

/** One (job, CPU) task's counts: line fetches per line index, and hits
 *  per configuration in SweepResult's [li][si][ai] order. */
struct CpuCounts
{
    std::vector<std::uint64_t> accesses;
    std::vector<std::uint64_t> hits;
};

/**
 * Walk one CPU's block ids once, gathering each ref's (addr, bytes)
 * from the job's block tables and feeding every line size's pass.
 * Zero-size blocks are skipped: the block stream keeps them because
 * emptiness depends on the layout.
 */
CpuCounts
sweepCpu(const std::uint32_t* ids, std::size_t n,
         const detail::PriceImage& app, const detail::PriceImage& kernel,
         const SweepSpec& spec)
{
    std::vector<LinePass> passes;
    passes.reserve(spec.line_bytes.size());
    for (std::size_t li = 0; li < spec.line_bytes.size(); ++li)
        passes.emplace_back(spec, li);

    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t id = ids[i];
        const detail::PriceImage& img =
            (id & kKernelBlockTag) != 0 ? kernel : app;
        const std::uint32_t g = id & ~kKernelBlockTag;
        const std::uint32_t size = img.size[g];
        if (size == 0)
            continue;
        const std::uint64_t addr = img.addr[g];
        const std::uint64_t last_byte =
            addr +
            static_cast<std::uint64_t>(size) * program::kInstrBytes - 1;
        for (LinePass& p : passes)
            p.walk(addr, last_byte);
    }

    CpuCounts out;
    for (const LinePass& p : passes) {
        out.accesses.push_back(p.accesses);
        for (std::size_t si = 0; si < spec.size_bytes.size(); ++si)
            for (std::size_t ai = 0; ai < spec.assocs.size(); ++ai)
                out.hits.push_back(
                    p.hits(p.sim_of[si * spec.assocs.size() + ai],
                           spec.assocs[ai]));
    }
    return out;
}

} // namespace

std::vector<SweepResult>
runSweepJobs(const trace::TraceBuffer& trace,
             const std::vector<SweepJob>& jobs,
             support::ThreadPool* pool)
{
    std::vector<SweepResult> results;
    results.reserve(jobs.size());
    for (const SweepJob& job : jobs) {
        SPIKESIM_ASSERT(job.app_layout != nullptr,
                        "sweep job needs an application layout");
        std::string err = job.spec.check();
        SPIKESIM_ASSERT(err.empty(),
                        "bad sweep spec (" << job.label << "): " << err);
        results.emplace_back(job.spec);
    }

    const auto run = [pool](std::function<void()> task) {
        if (pool != nullptr)
            pool->submit(std::move(task));
        else
            task();
    };
    const auto join = [pool] {
        if (pool != nullptr)
            pool->wait();
    };

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
        run([&trace, &filters, &streams, f] {
            obs::Span span("sweep.block_stream", "sim");
            streams[f] = buildBlockStream(trace, filters[f]);
        });
    }
    join();

    // One task per (job, CPU), each writing its own counts slot.
    const std::size_t n_cpus = static_cast<std::size_t>(trace.numCpus());
    std::vector<CpuCounts> counts(jobs.size() * n_cpus);
    std::uint64_t streamed = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const BlockStream& stream = streams[stream_of[j]];
        const detail::PriceImage app =
            detail::imageTables(jobs[j].app_layout, stream.app_blocks);
        const detail::PriceImage kernel = detail::imageTables(
            jobs[j].kernel_layout, stream.kernel_blocks);
        streamed += stream.size();
        for (std::size_t c = 0; c < n_cpus; ++c) {
            run([&stream, &jobs, &counts, app, kernel, j, c, n_cpus] {
                obs::Span span("sweep.cpu", "sim");
                const auto [begin, end] =
                    stream.cpuRange(static_cast<int>(c));
                counts[j * n_cpus + c] =
                    sweepCpu(stream.ids.data() + begin, end - begin, app,
                             kernel, jobs[j].spec);
            });
        }
    }
    join();

    // Fold integer counts in CPU order.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        CpuCounts total = std::move(counts[j * n_cpus]);
        for (std::size_t c = 1; c < n_cpus; ++c) {
            const CpuCounts& cpu = counts[j * n_cpus + c];
            for (std::size_t i = 0; i < total.accesses.size(); ++i)
                total.accesses[i] += cpu.accesses[i];
            for (std::size_t i = 0; i < total.hits.size(); ++i)
                total.hits[i] += cpu.hits[i];
        }
        SweepFold::store(results[j], total.accesses, total.hits);
    }

    static obs::Counter& c_jobs = obs::counter("sim.sweep.jobs");
    static obs::Counter& c_refs =
        obs::counter("sim.sweep.streamed_refs");
    c_jobs.add(jobs.size());
    c_refs.add(streamed);
    return results;
}

} // namespace spikesim::sim
