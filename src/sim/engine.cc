#include "sim/engine.hh"

#include <algorithm>
#include <unordered_map>

#include "mem/itlb.hh"
#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "support/panic.hh"

namespace spikesim::sim {

namespace {

/**
 * Shard a fused multi-config replay over the pool: one task per
 * (CPU, config-chunk). With no pool, run the fully fused serial path —
 * each CPU's slice is walked once feeding every configuration. With a
 * pool, CPUs are the natural shards (bit-exact, see engine.hh); when
 * threads outnumber trace CPUs the config list is additionally split
 * into chunks so the extra threads have work. Each extra chunk re-walks
 * that CPU's refs, so never split further than the thread count
 * warrants. fn(cpu, k0, k1) must touch only state owned by its
 * (cpu, [k0,k1)) cell; wait() is the merge barrier.
 */
inline std::size_t
shardRefCount(const ResolvedTrace& trace, int cpu)
{
    return trace.cpuRefs(cpu).size();
}

inline std::size_t
shardRefCount(const ResolvedTraceSoA& trace, int cpu)
{
    const auto [b, e] = trace.cpuRange(cpu);
    return e - b;
}

template <typename Trace, typename Fn>
void
forEachShard(const Trace& trace, std::size_t n_cfg,
             support::ThreadPool* pool, const Fn& fn)
{
    if (n_cfg == 0)
        return;
    const int n_cpu = trace.num_cpus;
    // Bulk-add the replayed ref count once per shard walk — never
    // per-ref inside the fused loops, which must stay counter-free.
    static obs::Counter& c_refs = obs::counter("sim.replay.refs");
    static obs::Counter& c_shards = obs::counter("sim.replay.shards");
    if (pool == nullptr) {
        for (int c = 0; c < n_cpu; ++c) {
            obs::Span span("replay.shard", "sim");
            fn(c, std::size_t{0}, n_cfg);
            c_refs.add(shardRefCount(trace, c));
            c_shards.add(1);
        }
        return;
    }
    const std::size_t threads =
        static_cast<std::size_t>(pool->numThreads());
    const std::size_t cpus = static_cast<std::size_t>(n_cpu);
    std::size_t chunks = 1;
    if (n_cfg > 1 && threads > cpus)
        chunks = std::min(n_cfg, (threads + cpus - 1) / cpus);
    for (int c = 0; c < n_cpu; ++c) {
        for (std::size_t i = 0; i < chunks; ++i) {
            const std::size_t k0 = n_cfg * i / chunks;
            const std::size_t k1 = n_cfg * (i + 1) / chunks;
            if (k0 == k1)
                continue;
            pool->submit([&fn, &trace, c, k0, k1] {
                obs::Span span("replay.shard", "sim");
                fn(c, k0, k1);
                c_refs.add(shardRefCount(trace, c));
                c_shards.add(1);
            });
        }
    }
    pool->wait();
}

} // namespace

std::vector<ICacheReplayResult>
replayICache(const ResolvedTrace& trace,
             std::span<const mem::CacheConfig> configs,
             support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(trace.num_cpus);
    std::vector<ICacheReplayResult> partial(n_cfg * n_cpu);

    forEachShard(trace, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::SetAssocCache> caches;
        caches.reserve(k1 - k0);
        for (std::size_t k = k0; k < k1; ++k)
            caches.emplace_back(configs[k]);
        for (const ResolvedRef& r : trace.cpuRefs(cpu)) {
            if (r.owner == mem::Owner::Data)
                continue;
            const std::uint64_t end = r.addr + r.bytes;
            const int m = r.owner == mem::Owner::App ? 0 : 1;
            for (std::size_t k = k0; k < k1; ++k) {
                ICacheReplayResult& res =
                    partial[k * n_cpu + static_cast<std::size_t>(cpu)];
                const std::uint64_t line = configs[k].line_bytes;
                mem::SetAssocCache& cache = caches[k - k0];
                for (std::uint64_t a = r.addr & ~(line - 1); a < end;
                     a += line) {
                    ++res.accesses;
                    mem::AccessResult ar = cache.access(a, r.owner);
                    if (!ar.hit) {
                        ++res.misses;
                        if (r.owner == mem::Owner::App)
                            ++res.app_misses;
                        else
                            ++res.kernel_misses;
                        int v = ar.victim == mem::Owner::App      ? 0
                                : ar.victim == mem::Owner::Kernel ? 1
                                                                  : 2;
                        ++res.interference.counts[m][v];
                    }
                }
            }
        }
    });

    std::vector<ICacheReplayResult> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        for (std::size_t c = 0; c < n_cpu; ++c) {
            const ICacheReplayResult& p = partial[k * n_cpu + c];
            out[k].accesses += p.accesses;
            out[k].misses += p.misses;
            out[k].app_misses += p.app_misses;
            out[k].kernel_misses += p.kernel_misses;
            for (int m = 0; m < 2; ++m)
                for (int v = 0; v < 3; ++v)
                    out[k].interference.counts[m][v] +=
                        p.interference.counts[m][v];
        }
    }
    return out;
}

std::vector<mem::ThreeCStats>
replayThreeCs(const ResolvedTrace& trace,
              std::span<const mem::CacheConfig> configs,
              support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(trace.num_cpus);
    std::vector<mem::ThreeCStats> partial(n_cfg * n_cpu);

    forEachShard(trace, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::ClassifyingICache> caches;
        caches.reserve(k1 - k0);
        for (std::size_t k = k0; k < k1; ++k)
            caches.emplace_back(configs[k]);
        for (const ResolvedRef& r : trace.cpuRefs(cpu)) {
            if (r.owner == mem::Owner::Data)
                continue;
            const std::uint64_t end = r.addr + r.bytes;
            for (std::size_t k = k0; k < k1; ++k) {
                const std::uint64_t line = configs[k].line_bytes;
                mem::ClassifyingICache& cache = caches[k - k0];
                for (std::uint64_t a = r.addr & ~(line - 1); a < end;
                     a += line)
                    cache.access(a);
            }
        }
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                caches[k - k0].stats();
    });

    std::vector<mem::ThreeCStats> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k)
        for (std::size_t c = 0; c < n_cpu; ++c)
            out[k] += partial[k * n_cpu + c];
    return out;
}

std::vector<mem::StreamBufferStats>
replayStreamBuffer(const ResolvedTrace& trace,
                   std::span<const mem::CacheConfig> configs,
                   int num_buffers, support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(trace.num_cpus);
    std::vector<mem::StreamBufferStats> partial(n_cfg * n_cpu);

    forEachShard(trace, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::StreamBufferICache> caches;
        caches.reserve(k1 - k0);
        for (std::size_t k = k0; k < k1; ++k)
            caches.emplace_back(configs[k], num_buffers);
        for (const ResolvedRef& r : trace.cpuRefs(cpu)) {
            if (r.owner == mem::Owner::Data)
                continue;
            const std::uint64_t end = r.addr + r.bytes;
            for (std::size_t k = k0; k < k1; ++k) {
                const std::uint64_t line = configs[k].line_bytes;
                mem::StreamBufferICache& cache = caches[k - k0];
                for (std::uint64_t a = r.addr & ~(line - 1); a < end;
                     a += line)
                    cache.fetchLine(a);
            }
        }
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                caches[k - k0].stats();
    });

    std::vector<mem::StreamBufferStats> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k)
        for (std::size_t c = 0; c < n_cpu; ++c)
            out[k] += partial[k * n_cpu + c];
    return out;
}

namespace {

/** Per-(config, CPU) instrumented partial: histogram copies plus the
 *  two scalars the CPU-ordered unused-fraction merge needs. */
struct InstrPartial
{
    WordStats stats; ///< histograms copy-assigned from the cache
    std::uint64_t samples = 0;
    double unused_frac = 0.0;
};

} // namespace

std::vector<WordStats>
replayInstrumented(const ResolvedTrace& trace,
                   std::span<const mem::CacheConfig> configs,
                   bool flush_at_end, support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(trace.num_cpus);
    std::vector<InstrPartial> partial(n_cfg * n_cpu);

    forEachShard(trace, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::InstrumentedICache> caches;
        caches.reserve(k1 - k0);
        for (std::size_t k = k0; k < k1; ++k)
            caches.emplace_back(configs[k]);
        for (const ResolvedRef& r : trace.cpuRefs(cpu)) {
            if (r.owner == mem::Owner::Data)
                continue;
            const std::uint32_t words = r.bytes / 4;
            for (std::size_t k = k0; k < k1; ++k) {
                mem::InstrumentedICache& cache = caches[k - k0];
                for (std::uint32_t w = 0; w < words; ++w)
                    cache.fetchWord(r.addr + w * 4ull, r.owner);
            }
        }
        for (std::size_t k = k0; k < k1; ++k) {
            mem::InstrumentedICache& cache = caches[k - k0];
            if (flush_at_end)
                cache.flush();
            InstrPartial& p =
                partial[k * n_cpu + static_cast<std::size_t>(cpu)];
            p.stats.words_used = cache.wordsUsed();
            p.stats.word_reuse = cache.wordReuse();
            p.stats.lifetimes = cache.lifetimes();
            p.stats.misses = cache.misses();
            p.samples = cache.wordReuse().totalSamples();
            p.unused_frac = cache.unusedWordFraction();
        }
    });

    std::vector<WordStats> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        // Replicate the scalar oracle's exact merge, CPU by CPU in
        // ascending order — including its floating-point operation
        // sequence for unused_word_fraction.
        out[k].words_used =
            support::Histogram(configs[k].line_bytes / 4 + 1);
        double fetched = 0.0;
        double unused = 0.0;
        for (std::size_t c = 0; c < n_cpu; ++c) {
            const InstrPartial& p = partial[k * n_cpu + c];
            out[k].words_used.merge(p.stats.words_used);
            out[k].word_reuse.merge(p.stats.word_reuse);
            out[k].lifetimes.merge(p.stats.lifetimes);
            out[k].misses += p.stats.misses;
            fetched += static_cast<double>(p.samples);
            unused += p.unused_frac * static_cast<double>(p.samples);
        }
        out[k].unused_word_fraction =
            fetched == 0.0 ? 0.0 : unused / fetched;
    }
    return out;
}

std::vector<ITlbReplayResult>
replayITlb(const ResolvedTrace& trace, std::span<const ITlbSpec> specs,
           support::ThreadPool* pool)
{
    const std::size_t n_cfg = specs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(trace.num_cpus);
    std::vector<ITlbReplayResult> partial(n_cfg * n_cpu);

    forEachShard(trace, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::ITlb> tlbs;
        tlbs.reserve(k1 - k0);
        for (std::size_t k = k0; k < k1; ++k)
            tlbs.emplace_back(specs[k].entries, specs[k].page_bytes);
        for (const ResolvedRef& r : trace.cpuRefs(cpu)) {
            if (r.owner == mem::Owner::Data)
                continue;
            const std::uint64_t end = r.addr + r.bytes;
            for (std::size_t k = k0; k < k1; ++k) {
                const std::uint64_t line = specs[k].fetch_bytes;
                ITlbReplayResult& res =
                    partial[k * n_cpu + static_cast<std::size_t>(cpu)];
                mem::ITlb& tlb = tlbs[k - k0];
                for (std::uint64_t a = r.addr & ~(line - 1); a < end;
                     a += line) {
                    ++res.accesses;
                    tlb.access(a);
                }
            }
        }
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)].misses =
                tlbs[k - k0].misses();
    });

    std::vector<ITlbReplayResult> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        for (std::size_t c = 0; c < n_cpu; ++c) {
            out[k].accesses += partial[k * n_cpu + c].accesses;
            out[k].misses += partial[k * n_cpu + c].misses;
        }
    }
    return out;
}

std::vector<HierarchyReplayResult>
replayHierarchy(const ResolvedTrace& trace,
                std::span<const mem::HierarchyConfig> configs,
                bool model_coherence, support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(trace.num_cpus);
    std::vector<mem::HierarchyStats> partial(n_cfg * n_cpu);
    std::vector<std::uint64_t> instrs_cpu(n_cpu, 0);
    std::vector<std::uint64_t> breaks_cpu(n_cpu, 0);
    std::vector<std::uint64_t> comm(n_cfg, 0);

    // The coherence map is the one piece of cross-CPU state: line
    // migration counting needs the *global* data-event order. It is
    // independent of every cache, so it runs as its own pass per
    // config over data_refs — sharded by config, exact by order.
    if (model_coherence && !trace.data_refs.empty()) {
        auto coherence = [&](std::size_t k) {
            const std::uint64_t dline = configs[k].l1d.line_bytes;
            std::unordered_map<std::uint64_t, std::uint8_t> data_owner;
            std::uint64_t misses = 0;
            for (const ResolvedDataRef& d : trace.data_refs) {
                const std::uint64_t line = d.addr & ~(dline - 1);
                auto [it, fresh] = data_owner.try_emplace(line, d.cpu);
                if (!fresh && it->second != d.cpu) {
                    ++misses;
                    it->second = d.cpu;
                }
            }
            comm[k] = misses;
        };
        if (pool == nullptr) {
            for (std::size_t k = 0; k < n_cfg; ++k)
                coherence(k);
        } else {
            // Copy the lambda: it dies with this block, but the tasks
            // may still be queued (its captures all outlive the wait).
            for (std::size_t k = 0; k < n_cfg; ++k)
                pool->submit([coherence, k] { coherence(k); });
            // forEachShard's wait() below is the barrier for these too.
        }
    }

    forEachShard(trace, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::MemoryHierarchy> cpus;
        cpus.reserve(k1 - k0);
        for (std::size_t k = k0; k < k1; ++k)
            cpus.emplace_back(configs[k]);
        std::uint64_t expected = ~0ULL;
        std::uint64_t instrs = 0;
        std::uint64_t breaks = 0;
        for (const ResolvedRef& r : trace.cpuRefs(cpu)) {
            if (r.owner == mem::Owner::Data) {
                for (std::size_t k = k0; k < k1; ++k) {
                    const std::uint64_t dline =
                        configs[k].l1d.line_bytes;
                    cpus[k - k0].dataLine(r.addr & ~(dline - 1));
                }
                continue;
            }
            const std::uint64_t end = r.addr + r.bytes;
            instrs += r.bytes / program::kInstrBytes;
            if (r.addr != expected)
                ++breaks;
            expected = end;
            for (std::size_t k = k0; k < k1; ++k) {
                const std::uint64_t iline = configs[k].l1i.line_bytes;
                mem::MemoryHierarchy& h = cpus[k - k0];
                for (std::uint64_t a = r.addr & ~(iline - 1); a < end;
                     a += iline)
                    h.fetchLine(a, r.owner);
            }
        }
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                cpus[k - k0].stats();
        // instrs/fetch_breaks are config-independent; only the chunk
        // that owns config 0 writes them, so split chunks don't race.
        if (k0 == 0) {
            instrs_cpu[static_cast<std::size_t>(cpu)] = instrs;
            breaks_cpu[static_cast<std::size_t>(cpu)] = breaks;
        }
    });

    std::vector<HierarchyReplayResult> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        out[k].total.comm_misses = comm[k];
        out[k].per_cpu.reserve(n_cpu);
        for (std::size_t c = 0; c < n_cpu; ++c) {
            const mem::HierarchyStats& s = partial[k * n_cpu + c];
            out[k].per_cpu.push_back(s);
            out[k].total += s;
        }
        for (std::size_t c = 0; c < n_cpu; ++c) {
            out[k].instrs += instrs_cpu[c];
            out[k].fetch_breaks += breaks_cpu[c];
        }
    }
    return out;
}

metrics::SequenceStats
replaySequence(const ResolvedTrace& trace, support::ThreadPool* pool)
{
    const std::size_t n_cpu = static_cast<std::size_t>(trace.num_cpus);
    std::vector<support::Histogram> partial(n_cpu,
                                            support::Histogram(34));

    forEachShard(trace, 1, pool,
                 [&](int cpu, std::size_t, std::size_t) {
        support::Histogram& hist =
            partial[static_cast<std::size_t>(cpu)];
        std::uint64_t expected = ~0ULL;
        std::uint64_t run = 0;
        auto close_run = [&] {
            if (run > 0)
                hist.record(run);
            run = 0;
            expected = ~0ULL;
        };
        for (const ResolvedRef& r : trace.cpuRefs(cpu)) {
            if (r.owner == mem::Owner::Data)
                continue;
            if ((r.flags & kRefRunBreak) != 0 || r.addr != expected)
                close_run();
            run += r.bytes / program::kInstrBytes;
            expected = r.addr + r.bytes;
        }
        close_run();
    });

    metrics::SequenceStats stats;
    for (std::size_t c = 0; c < n_cpu; ++c)
        stats.lengths.merge(partial[c]);
    stats.mean = stats.lengths.mean();
    stats.mean_block_size =
        trace.instr_events == 0
            ? 0.0
            : static_cast<double>(trace.instrs) /
                  static_cast<double>(trace.instr_events);
    return stats;
}

// ---------------------------------------------------------------------
// SoA overloads. The sequence walk below is the column-major port of
// the AoS shard body above: identical per-CPU record order, only the
// field loads differ. Every other family dispatches into the
// throughput kernels (sim/kernels.hh), which replace the simulator
// objects with flat grouped tables.
// ---------------------------------------------------------------------

namespace {

constexpr std::uint8_t kOwnerDataByte =
    static_cast<std::uint8_t>(mem::Owner::Data);

} // namespace

std::vector<ICacheReplayResult>
replayICache(const ResolvedTraceSoA& soa,
             std::span<const mem::CacheConfig> configs, SimdMode mode,
             support::ThreadPool* pool)
{
    // Resolve once, up front: a fatal misconfiguration (forced SIMD on
    // a host without it) must fire before any shard runs, and every
    // shard must use the same kernel.
    const KernelKind kind = resolveKernel(mode).kind;
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<ICacheReplayResult> partial(n_cfg * n_cpu);

    forEachShard(soa, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<ICacheReplayResult> local(k1 - k0);
        detail::IcacheShard shard;
        shard.soa = &soa;
        shard.cpu = cpu;
        shard.configs = configs.data();
        shard.k0 = k0;
        shard.k1 = k1;
        shard.out = local.data();
        detail::icacheShardRun(kind, shard);
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                local[k - k0];
    });

    std::vector<ICacheReplayResult> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        for (std::size_t c = 0; c < n_cpu; ++c) {
            const ICacheReplayResult& p = partial[k * n_cpu + c];
            out[k].accesses += p.accesses;
            out[k].misses += p.misses;
            out[k].app_misses += p.app_misses;
            out[k].kernel_misses += p.kernel_misses;
            for (int m = 0; m < 2; ++m)
                for (int v = 0; v < 3; ++v)
                    out[k].interference.counts[m][v] +=
                        p.interference.counts[m][v];
        }
    }
    return out;
}

std::vector<mem::ThreeCStats>
replayThreeCs(const ResolvedTraceSoA& soa,
              std::span<const mem::CacheConfig> configs, SimdMode mode,
              support::ThreadPool* pool)
{
    const KernelKind kind = resolveKernel(mode).kind;
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<mem::ThreeCStats> partial(n_cfg * n_cpu);

    forEachShard(soa, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::ThreeCStats> local(k1 - k0);
        detail::ThreeCShard shard;
        shard.soa = &soa;
        shard.cpu = cpu;
        shard.configs = configs.data();
        shard.k0 = k0;
        shard.k1 = k1;
        shard.out = local.data();
        detail::threeCShardRun(kind, shard);
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                local[k - k0];
    });

    std::vector<mem::ThreeCStats> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k)
        for (std::size_t c = 0; c < n_cpu; ++c)
            out[k] += partial[k * n_cpu + c];
    return out;
}

std::vector<mem::StreamBufferStats>
replayStreamBuffer(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   int num_buffers, SimdMode mode,
                   support::ThreadPool* pool)
{
    const KernelKind kind = resolveKernel(mode).kind;
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<mem::StreamBufferStats> partial(n_cfg * n_cpu);

    forEachShard(soa, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::StreamBufferStats> local(k1 - k0);
        detail::StreamBufShard shard;
        shard.soa = &soa;
        shard.cpu = cpu;
        shard.configs = configs.data();
        shard.k0 = k0;
        shard.k1 = k1;
        shard.num_buffers = num_buffers;
        shard.out = local.data();
        detail::streamBufShardRun(kind, shard);
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                local[k - k0];
    });

    std::vector<mem::StreamBufferStats> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k)
        for (std::size_t c = 0; c < n_cpu; ++c)
            out[k] += partial[k * n_cpu + c];
    return out;
}

std::vector<WordStats>
replayInstrumented(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   bool flush_at_end, support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<InstrPartial> partial(n_cfg * n_cpu);

    forEachShard(soa, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<detail::InstrShardOut> local(k1 - k0);
        detail::InstrShard shard;
        shard.soa = &soa;
        shard.cpu = cpu;
        shard.configs = configs.data();
        shard.k0 = k0;
        shard.k1 = k1;
        shard.flush_at_end = flush_at_end;
        shard.out = local.data();
        detail::instrShardRun(KernelKind::Scalar, shard);
        for (std::size_t k = k0; k < k1; ++k) {
            detail::InstrShardOut& o = local[k - k0];
            InstrPartial& p =
                partial[k * n_cpu + static_cast<std::size_t>(cpu)];
            p.stats.words_used = std::move(o.words_used);
            p.stats.word_reuse = std::move(o.word_reuse);
            p.stats.lifetimes = std::move(o.lifetimes);
            p.stats.misses = o.misses;
            p.samples = o.samples;
            p.unused_frac = o.unused_word_fraction;
        }
    });

    std::vector<WordStats> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        out[k].words_used =
            support::Histogram(configs[k].line_bytes / 4 + 1);
        double fetched = 0.0;
        double unused = 0.0;
        for (std::size_t c = 0; c < n_cpu; ++c) {
            const InstrPartial& p = partial[k * n_cpu + c];
            out[k].words_used.merge(p.stats.words_used);
            out[k].word_reuse.merge(p.stats.word_reuse);
            out[k].lifetimes.merge(p.stats.lifetimes);
            out[k].misses += p.stats.misses;
            fetched += static_cast<double>(p.samples);
            unused += p.unused_frac * static_cast<double>(p.samples);
        }
        out[k].unused_word_fraction =
            fetched == 0.0 ? 0.0 : unused / fetched;
    }
    return out;
}

std::vector<ITlbReplayResult>
replayITlb(const ResolvedTraceSoA& soa, std::span<const ITlbSpec> specs,
           SimdMode mode, support::ThreadPool* pool)
{
    const KernelKind kind = resolveKernel(mode).kind;
    const std::size_t n_cfg = specs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<ITlbReplayResult> partial(n_cfg * n_cpu);

    forEachShard(soa, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<ITlbReplayResult> local(k1 - k0);
        detail::ITlbShard shard;
        shard.soa = &soa;
        shard.cpu = cpu;
        shard.specs = specs.data();
        shard.k0 = k0;
        shard.k1 = k1;
        shard.out = local.data();
        detail::iTlbShardRun(kind, shard);
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                local[k - k0];
    });

    std::vector<ITlbReplayResult> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        for (std::size_t c = 0; c < n_cpu; ++c) {
            out[k].accesses += partial[k * n_cpu + c].accesses;
            out[k].misses += partial[k * n_cpu + c].misses;
        }
    }
    return out;
}

std::vector<HierarchyReplayResult>
replayHierarchy(const ResolvedTraceSoA& soa,
                std::span<const mem::HierarchyConfig> configs,
                bool model_coherence, support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<mem::HierarchyStats> partial(n_cfg * n_cpu);
    std::vector<std::uint64_t> instrs_cpu(n_cpu, 0);
    std::vector<std::uint64_t> breaks_cpu(n_cpu, 0);
    std::vector<std::uint64_t> comm(n_cfg, 0);

    if (model_coherence && !soa.data_refs.empty()) {
        auto coherence = [&](std::size_t k) {
            const std::uint64_t dline = configs[k].l1d.line_bytes;
            std::unordered_map<std::uint64_t, std::uint8_t> data_owner;
            std::uint64_t misses = 0;
            for (const ResolvedDataRef& d : soa.data_refs) {
                const std::uint64_t line = d.addr & ~(dline - 1);
                auto [it, fresh] = data_owner.try_emplace(line, d.cpu);
                if (!fresh && it->second != d.cpu) {
                    ++misses;
                    it->second = d.cpu;
                }
            }
            comm[k] = misses;
        };
        if (pool == nullptr) {
            for (std::size_t k = 0; k < n_cfg; ++k)
                coherence(k);
        } else {
            for (std::size_t k = 0; k < n_cfg; ++k)
                pool->submit([coherence, k] { coherence(k); });
            // forEachShard's wait() below is the barrier for these too.
        }
    }

    forEachShard(soa, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<mem::HierarchyStats> local(k1 - k0);
        std::uint64_t instrs = 0;
        std::uint64_t breaks = 0;
        detail::HierarchyShard shard;
        shard.soa = &soa;
        shard.cpu = cpu;
        shard.configs = configs.data();
        shard.k0 = k0;
        shard.k1 = k1;
        shard.out = local.data();
        shard.instrs = &instrs;
        shard.fetch_breaks = &breaks;
        detail::hierarchyShard(shard);
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                local[k - k0];
        if (k0 == 0) {
            instrs_cpu[static_cast<std::size_t>(cpu)] = instrs;
            breaks_cpu[static_cast<std::size_t>(cpu)] = breaks;
        }
    });

    std::vector<HierarchyReplayResult> out(n_cfg);
    for (std::size_t k = 0; k < n_cfg; ++k) {
        out[k].total.comm_misses = comm[k];
        out[k].per_cpu.reserve(n_cpu);
        for (std::size_t c = 0; c < n_cpu; ++c) {
            const mem::HierarchyStats& s = partial[k * n_cpu + c];
            out[k].per_cpu.push_back(s);
            out[k].total += s;
        }
        for (std::size_t c = 0; c < n_cpu; ++c) {
            out[k].instrs += instrs_cpu[c];
            out[k].fetch_breaks += breaks_cpu[c];
        }
    }
    return out;
}

metrics::SequenceStats
replaySequence(const ResolvedTraceSoA& soa, support::ThreadPool* pool)
{
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<support::Histogram> partial(n_cpu,
                                            support::Histogram(34));

    forEachShard(soa, 1, pool,
                 [&](int cpu, std::size_t, std::size_t) {
        support::Histogram& hist =
            partial[static_cast<std::size_t>(cpu)];
        std::uint64_t expected = ~0ULL;
        std::uint64_t run = 0;
        auto close_run = [&] {
            if (run > 0)
                hist.record(run);
            run = 0;
            expected = ~0ULL;
        };
        const auto [begin, end_i] = soa.cpuRange(cpu);
        for (std::size_t i = begin; i < end_i; ++i) {
            if (soa.owner[i] == kOwnerDataByte)
                continue;
            const std::uint64_t addr = soa.addr[i];
            if ((soa.flags[i] & kRefRunBreak) != 0 || addr != expected)
                close_run();
            run += soa.bytes[i] / program::kInstrBytes;
            expected = addr + soa.bytes[i];
        }
        close_run();
    });

    metrics::SequenceStats stats;
    for (std::size_t c = 0; c < n_cpu; ++c)
        stats.lengths.merge(partial[c]);
    stats.mean = stats.lengths.mean();
    stats.mean_block_size =
        soa.instr_events == 0
            ? 0.0
            : static_cast<double>(soa.instrs) /
                  static_cast<double>(soa.instr_events);
    return stats;
}

} // namespace spikesim::sim
