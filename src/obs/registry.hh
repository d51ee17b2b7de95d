#ifndef SPIKESIM_OBS_REGISTRY_HH
#define SPIKESIM_OBS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sketch.hh"
#include "support/histogram.hh"

/**
 * @file
 * Process-wide metrics registry: hierarchical dotted names
 * (`db.bufferpool.hits`, `sim.replay.refs`, `opt.search.accepted`, ...)
 * mapped to counters, gauges, and log2 histograms. The hot path is
 * lock-free: each metric owns a small array of cache-line-padded atomic
 * shards and a recording thread picks one by a thread-local index, so
 * concurrent writers from the replay engine's thread pool touch
 * different cache lines. Merging happens only on snapshot().
 *
 * The simulator's work counters: `sim.replay.refs`/`sim.replay.shards`
 * count the refs and shards the SoA shard driver (sim/engine.cc)
 * walks, and `sim.sweep.jobs`/`sim.sweep.streamed_refs` count every
 * sweep job (sim/sweep.hh) and the stream ids it walks: the figure
 * grids, the benches' i-cache and iTLB columns, sim::replayITlb and
 * each layout-search re-rank candidate. replayITlb adds to the sweep
 * counters only.
 *
 * Compile-time gate: building with -DSPIKESIM_OBS=0 turns every record
 * call into a no-op (the types stay so call sites don't ifdef), which
 * is how bench/micro_obs measures the compiled-out floor.
 */

#ifndef SPIKESIM_OBS
#define SPIKESIM_OBS 1
#endif

namespace spikesim::obs {

namespace detail {

/// Shard count per metric; power of two so the pick is a mask.
inline constexpr std::size_t kShards = 16;

struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
};

/// Stable per-thread shard index (dense ids, wrapped by the mask).
std::size_t shardIndex();

} // namespace detail

/**
 * Monotonic counter. add() is a single relaxed fetch_add on this
 * thread's shard; value() sums the shards (approximate only while
 * writers are live, exact at any quiescent point such as after
 * ThreadPool::wait()).
 */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
#if SPIKESIM_OBS
        cells_[detail::shardIndex() & (detail::kShards - 1)]
            .v.fetch_add(n, std::memory_order_relaxed);
#else
        (void)n;
#endif
    }

    std::uint64_t value() const;
    void reset();

  private:
    detail::Cell cells_[detail::kShards];
};

/** Last-writer-wins signed gauge (queue depths, sizes). */
class Gauge
{
  public:
    void set(std::int64_t v)
    {
#if SPIKESIM_OBS
        v_.store(v, std::memory_order_relaxed);
#else
        (void)v;
#endif
    }

    void add(std::int64_t d)
    {
#if SPIKESIM_OBS
        v_.fetch_add(d, std::memory_order_relaxed);
#else
        (void)d;
#endif
    }

    /** Raise the stored maximum to at least v. */
    void max(std::int64_t v);

    std::int64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Log2-bucketed histogram with sharded atomic buckets; snapshot()
 * materializes a support::Log2Histogram.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    void record(std::uint64_t value, std::uint64_t count = 1)
    {
#if SPIKESIM_OBS
        std::size_t b = 0;
        while ((value >> b) > 1)
            ++b;
        shards_[detail::shardIndex() & (detail::kShards - 1)]
            .bucket[b]
            .fetch_add(count, std::memory_order_relaxed);
#else
        (void)value;
        (void)count;
#endif
    }

    support::Log2Histogram snapshot() const;
    std::uint64_t totalSamples() const;
    void reset();

  private:
    struct Shard {
        std::atomic<std::uint64_t> bucket[kBuckets]{};
    };
    Shard shards_[detail::kShards];
};

/**
 * Bounded-relative-error quantile metric (obs/sketch.hh) behind the
 * registry's sharding convention: each shard is a mutex + lazily grown
 * QuantileSketch, a recording thread locks only its own shard (the
 * sketch's bucket vector can grow, so plain atomics don't fit), and
 * snapshot() merges shards in shard order — deterministic totals at
 * any quiescent point. Use where a log2 histogram is too coarse: p99
 * within ~0.8% instead of within 2x.
 */
class SketchMetric
{
  public:
    void record(std::uint64_t value, std::uint64_t count = 1)
    {
#if SPIKESIM_OBS
        Shard& s =
            shards_[detail::shardIndex() & (detail::kShards - 1)];
        std::lock_guard<std::mutex> lk(s.mu);
        s.sketch.record(value, count);
#else
        (void)value;
        (void)count;
#endif
    }

    /** Fold a whole pre-built sketch in (one lock, bucket-wise add). */
    void merge(const QuantileSketch& other)
    {
#if SPIKESIM_OBS
        Shard& s =
            shards_[detail::shardIndex() & (detail::kShards - 1)];
        std::lock_guard<std::mutex> lk(s.mu);
        s.sketch.merge(other);
#else
        (void)other;
#endif
    }

    /** Shard-order merge of every shard's sketch. */
    QuantileSketch snapshot() const;
    std::uint64_t totalSamples() const;
    void reset();

  private:
    struct Shard {
        mutable std::mutex mu;
        QuantileSketch sketch;
    };
    Shard shards_[detail::kShards];
};

/** Point-in-time copy of every registered metric. */
struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, support::Log2Histogram>>
        histograms;
    std::vector<std::pair<std::string, QuantileSketch>> sketches;
};

/**
 * Name → metric map. Registration takes a mutex (cold: at most once per
 * call site thanks to static locals at the call sites); returned
 * references are stable for the process lifetime.
 */
class Registry
{
  public:
    static Registry& instance();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);
    SketchMetric& sketch(std::string_view name);

    Snapshot snapshot() const;

    /** Zero every metric's value (names stay registered). Tests only. */
    void resetValues();

  private:
    Registry() = default;

    mutable std::mutex mu_;
    // std::map: node-based, so references survive later insertions.
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_;
    std::map<std::string, std::unique_ptr<SketchMetric>, std::less<>>
        sketches_;
};

/** Shorthands for the common "static local reference" idiom. */
inline Counter& counter(std::string_view name)
{
    return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name)
{
    return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name)
{
    return Registry::instance().histogram(name);
}
inline SketchMetric& sketch(std::string_view name)
{
    return Registry::instance().sketch(name);
}

/**
 * Always-disabled counter with the same call shape as Counter; lets
 * bench/micro_obs measure what a compiled-out call site costs without
 * rebuilding the tree with SPIKESIM_OBS=0.
 */
class NullCounter
{
  public:
    void add(std::uint64_t n = 1) { (void)n; }
    std::uint64_t value() const { return 0; }
};

} // namespace spikesim::obs

#endif // SPIKESIM_OBS_REGISTRY_HH
