#include "sim/engine.hh"

#include <algorithm>
#include <type_traits>
#include <unordered_map>

#include "obs/registry.hh"
#include "obs/tracing.hh"
#include "sim/kernels_detail.hh"

namespace spikesim::sim {

namespace {

constexpr std::uint8_t kOwnerDataByte =
    static_cast<std::uint8_t>(mem::Owner::Data);

inline std::size_t
shardRefCount(const ResolvedTraceSoA& trace, int cpu)
{
    const auto [b, e] = trace.cpuRange(cpu);
    return e - b;
}

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
template <typename Fn>
void
forEachShard(const ResolvedTraceSoA& trace, std::size_t n_cfg,
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

/**
 * The one shard-and-merge driver of the fused families: run
 * kernel(shard) on every (cpu, config-chunk) cell of forEachShard,
 * keep each cell's outputs as per-(config, CPU) partials, then build
 * config k's result with merge(k, partials) from its partials in
 * ascending CPU order, the order the oracle's interleaved walk sums
 * them in. An empty config span runs no shard.
 */
template <typename Out, typename Config, typename Kernel, typename Merge>
auto
replayShards(const ResolvedTraceSoA& soa, std::span<const Config> configs,
             support::ThreadPool* pool, const Kernel& kernel,
             const Merge& merge)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
    std::vector<Out> partial(n_cfg * n_cpu);

    forEachShard(soa, n_cfg, pool,
                 [&](int cpu, std::size_t k0, std::size_t k1) {
        std::vector<Out> local(k1 - k0);
        kernel(detail::Shard<Config, Out>{&soa, cpu, configs.data(), k0,
                                          k1, local.data()});
        for (std::size_t k = k0; k < k1; ++k)
            partial[k * n_cpu + static_cast<std::size_t>(cpu)] =
                std::move(local[k - k0]);
    });

    using Result = std::invoke_result_t<const Merge&, std::size_t,
                                        std::span<const Out>>;
    std::vector<Result> out;
    out.reserve(n_cfg);
    const std::span<const Out> all(partial);
    for (std::size_t k = 0; k < n_cfg; ++k)
        out.push_back(merge(k, all.subspan(k * n_cpu, n_cpu)));
    return out;
}

/** Merge for the families whose results sum with operator+=. */
template <typename T>
T
sumOverCpus(std::size_t, std::span<const T> cpus)
{
    T sum{};
    for (const T& p : cpus)
        sum += p;
    return sum;
}

} // namespace

std::vector<ICacheReplayResult>
replayICache(const ResolvedTraceSoA& soa,
             std::span<const mem::CacheConfig> configs, SimdMode,
             support::ThreadPool* pool)
{
    return replayShards<ICacheReplayResult>(
        soa, configs, pool,
        detail::runIcacheShardImpl,
        [](std::size_t, std::span<const ICacheReplayResult> cpus) {
            ICacheReplayResult r;
            for (const ICacheReplayResult& p : cpus) {
                r.accesses += p.accesses;
                r.misses += p.misses;
                r.app_misses += p.app_misses;
                r.kernel_misses += p.kernel_misses;
                for (int m = 0; m < 2; ++m)
                    for (int v = 0; v < 3; ++v)
                        r.interference.counts[m][v] +=
                            p.interference.counts[m][v];
            }
            return r;
        });
}

std::vector<mem::ThreeCStats>
replayThreeCs(const ResolvedTraceSoA& soa,
              std::span<const mem::CacheConfig> configs, SimdMode,
              support::ThreadPool* pool)
{
    return replayShards<mem::ThreeCStats>(
        soa, configs, pool,
        detail::runThreeCShardImpl,
        sumOverCpus<mem::ThreeCStats>);
}

std::vector<mem::StreamBufferStats>
replayStreamBuffer(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   int num_buffers, SimdMode,
                   support::ThreadPool* pool)
{
    return replayShards<mem::StreamBufferStats>(
        soa, configs, pool,
        [num_buffers](const auto& sh) {
            detail::runStreamBufShardImpl(sh, num_buffers);
        },
        sumOverCpus<mem::StreamBufferStats>);
}

std::vector<WordStats>
replayInstrumented(const ResolvedTraceSoA& soa,
                   std::span<const mem::CacheConfig> configs,
                   bool flush_at_end, support::ThreadPool* pool)
{
    return replayShards<detail::InstrShardOut>(
        soa, configs, pool,
        [flush_at_end](const auto& sh) {
            detail::runInstrShardImpl(sh, flush_at_end);
        },
        [&](std::size_t k, std::span<const detail::InstrShardOut> cpus) {
            WordStats r;
            r.words_used =
                support::Histogram(configs[k].line_bytes / 4 + 1);
            double fetched = 0.0;
            double unused = 0.0;
            for (const detail::InstrShardOut& p : cpus) {
                r.words_used.merge(p.words_used);
                r.word_reuse.merge(p.word_reuse);
                r.lifetimes.merge(p.lifetimes);
                r.misses += p.misses;
                fetched += static_cast<double>(p.samples);
                unused += p.unused_word_fraction *
                          static_cast<double>(p.samples);
            }
            r.unused_word_fraction = fetched == 0.0 ? 0.0 : unused / fetched;
            return r;
        });
}

std::vector<ITlbReplayResult>
replayITlb(const ResolvedTraceSoA& soa, std::span<const ITlbSpec> specs,
           SimdMode, support::ThreadPool* pool)
{
    return replayShards<ITlbReplayResult>(
        soa, specs, pool,
        detail::runITlbShardImpl,
        sumOverCpus<ITlbReplayResult>);
}

std::vector<HierarchyReplayResult>
replayHierarchy(const ResolvedTraceSoA& soa,
                std::span<const mem::HierarchyConfig> configs,
                bool model_coherence, support::ThreadPool* pool)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t n_cpu = static_cast<std::size_t>(soa.num_cpus);
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
            // forEachShard's wait() in replayShards is the barrier for
            // these too.
        }
    }

    return replayShards<mem::HierarchyStats>(
        soa, configs, pool,
        [&](const auto& sh) {
            std::uint64_t instrs = 0;
            std::uint64_t breaks = 0;
            detail::runHierarchyShardImpl(sh, instrs, breaks);
            // The counts are config-independent: keep chunk 0's.
            if (sh.k0 == 0) {
                instrs_cpu[static_cast<std::size_t>(sh.cpu)] = instrs;
                breaks_cpu[static_cast<std::size_t>(sh.cpu)] = breaks;
            }
        },
        [&](std::size_t k, std::span<const mem::HierarchyStats> cpus) {
            HierarchyReplayResult r;
            r.total.comm_misses = comm[k];
            r.per_cpu.assign(cpus.begin(), cpus.end());
            for (const mem::HierarchyStats& s : cpus)
                r.total += s;
            for (std::size_t c = 0; c < n_cpu; ++c) {
                r.instrs += instrs_cpu[c];
                r.fetch_breaks += breaks_cpu[c];
            }
            return r;
        });
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
