#ifndef SPIKESIM_SIM_KERNELS_HH
#define SPIKESIM_SIM_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/itlb.hh"
#include "mem/streambuf.hh"
#include "mem/threec.hh"
#include "sim/soa.hh"
#include "support/histogram.hh"

/**
 * @file
 * Throughput replay kernels over the SoA resolved trace, plus the
 * runtime SIMD dispatch that picks between them.
 *
 * The i-cache family is the one replay step where a vector walk pays,
 * so it alone has two implementations behind one interface:
 *
 *  - scalar (kernels.cc): branch-lean reference implementation, built
 *    with the project's default flags. This path runs on any host and
 *    is the differential ground truth — the fuzz in
 *    tests/replay_parallel_test.cc pins it (and the AVX2 path) to the
 *    per-config scalar Replayer oracle bit for bit.
 *
 *  - AVX2 (kernels_avx2.cc): run-coalescing walk with gather-free
 *    direct-mapped probes. Consecutive same-owner instruction refs are
 *    merged into maximal contiguous byte runs; within a run each
 *    line-size group probes its fewest-set tag table with contiguous
 *    256-bit loads compared against an iota of line numbers (the slots
 *    of consecutive lines are consecutive until the index mask wraps),
 *    two line-size groups interleaved per pass for ILP. 4/8-way sets
 *    use vector tag compare plus conditional-move LRU age updates. The
 *    TU is compiled with -mavx2 only when the compiler supports the
 *    flag (no global -march change) and is only entered when the host
 *    CPU reports AVX2.
 *
 * Every other family has one scalar implementation serving every
 * KernelKind: three-C and stream buffers (their vector ports did not
 * beat scalar by more than the run-to-run noise), the iTLB
 * (FA-LRU-bound), the instrumented per-word walk (serial histogram
 * updates), and the hierarchy (dependent L1 -> L2 probes plus iTLB
 * lookups; its flat per-CPU state also backs serve::ServiceModel).
 *
 * Both i-cache kernels share their state layout and group
 * construction via kernels_detail.hh, which is what makes
 * "bit-identical by construction" a structural property rather than a
 * testing aspiration: the only code that differs is the walk and probe
 * arithmetic, and that computes the same integers.
 *
 * Dispatch is deterministic: SimdMode::Auto picks AVX2 exactly when
 * the binary carries the AVX2 TU and CPUID reports AVX2, else scalar.
 * Callers may force either kernel (micro_replay's --simd 0|1); forcing
 * AVX2 on a host that cannot run it is fatal, never a silent fallback.
 */

namespace spikesim::sim {

/** Kernel selection request for the SoA replay entry points. */
enum class SimdMode {
    Auto = 0, ///< AVX2 when CPUID reports it, else scalar
    Scalar,   ///< force the scalar kernels (any host)
    Simd,     ///< force the AVX2 kernels (fatal if unavailable)
};

/** The concrete kernel implementation a replay call will run. */
enum class KernelKind {
    Scalar = 0,
    Avx2,
};

/** Resolved dispatch decision plus a human-readable provenance note. */
struct KernelChoice
{
    KernelKind kind = KernelKind::Scalar;
    std::string reason; ///< e.g. "cpuid: avx2", "forced by caller: scalar"
};

/** True when the AVX2 kernel TU was compiled into this binary. */
bool simdKernelsCompiled();

/** True when the AVX2 kernels can run here (compiled + CPU support). */
bool simdAvailable();

/**
 * Resolve a mode to the final kernel choice. Auto returns AVX2 exactly
 * when simdAvailable() and scalar otherwise, with a reason starting
 * "cpuid:"; Scalar and Simd are explicit caller requests. Requesting
 * a kernel the host cannot run is a fatal user error, never a silent
 * fallback.
 */
KernelChoice resolveKernel(SimdMode mode);

/** "scalar" or "avx2" — for banners, manifests, JSON. */
const char* kernelName(KernelKind kind);

namespace detail {

/**
 * One (cpu, config-chunk) cell of a fused i-cache replay: walk the
 * CPU's SoA column once, feeding configs [k0, k1); results land in
 * out[0 .. k1-k0), fully overwritten (not accumulated).
 */
struct IcacheShard
{
    const ResolvedTraceSoA* soa = nullptr;
    int cpu = 0;
    const mem::CacheConfig* configs = nullptr;
    std::size_t k0 = 0;
    std::size_t k1 = 0;
    ICacheReplayResult* out = nullptr;
};

/** One (cpu, config-chunk) cell of a fused three-C replay. */
struct ThreeCShard
{
    const ResolvedTraceSoA* soa = nullptr;
    int cpu = 0;
    const mem::CacheConfig* configs = nullptr;
    std::size_t k0 = 0;
    std::size_t k1 = 0;
    mem::ThreeCStats* out = nullptr;
};

/** One (cpu, spec-chunk) cell of a fused iTLB replay. */
struct ITlbShard
{
    const ResolvedTraceSoA* soa = nullptr;
    int cpu = 0;
    const ITlbSpec* specs = nullptr;
    std::size_t k0 = 0;
    std::size_t k1 = 0;
    ITlbReplayResult* out = nullptr;
};

/**
 * Per-config output of one instrumented-replay shard cell. Histograms
 * are default-sized like sim::WordStats; the kernel replaces them with
 * correctly-sized ones for the config's line geometry.
 */
struct InstrShardOut
{
    support::Histogram words_used{65};
    support::Histogram word_reuse{16};
    support::Log2Histogram lifetimes{32};
    std::uint64_t misses = 0;
    /** Lines retired (= word_reuse sample count / words-per-line). */
    std::uint64_t samples = 0;
    double unused_word_fraction = 0.0;
};

/** One (cpu, config-chunk) cell of a fused instrumented replay. */
struct InstrShard
{
    const ResolvedTraceSoA* soa = nullptr;
    int cpu = 0;
    const mem::CacheConfig* configs = nullptr;
    std::size_t k0 = 0;
    std::size_t k1 = 0;
    bool flush_at_end = false;
    InstrShardOut* out = nullptr;
};

/** One (cpu, config-chunk) cell of a fused stream-buffer replay. */
struct StreamBufShard
{
    const ResolvedTraceSoA* soa = nullptr;
    int cpu = 0;
    const mem::CacheConfig* configs = nullptr;
    std::size_t k0 = 0;
    std::size_t k1 = 0;
    int num_buffers = 0;
    mem::StreamBufferStats* out = nullptr;
};

void icacheShardScalar(const IcacheShard& shard);
void icacheShardAvx2(const IcacheShard& shard); ///< AVX2 TU only

/** Dispatch one i-cache shard to the kernel implementation for `kind`. */
void icacheShardRun(KernelKind kind, const IcacheShard& shard);

/**
 * Three-C classification. A vector set probe gains no more than the
 * run-to-run noise on this family (EXPERIMENTS.md), so one scalar
 * implementation serves every KernelKind.
 */
void threeCShard(const ThreeCShard& shard);

/**
 * The iTLB family reduces to an exact fully-associative LRU bound over
 * pages (see kernels_detail.hh); there is no profitable vector form,
 * so one scalar implementation serves every KernelKind.
 */
void iTlbShard(const ITlbShard& shard);

/**
 * The instrumented family is dominated by per-word histogram updates
 * with serial dependences (timestamps, saturating counters); there is
 * no profitable vector form, so one scalar implementation — built on
 * the same run-coalescing line-span walk as the throughput kernels —
 * serves every KernelKind.
 */
void instrShard(const InstrShard& shard);

/** One (cpu, config-chunk) cell of a fused hierarchy replay. */
struct HierarchyShard
{
    const ResolvedTraceSoA* soa = nullptr;
    int cpu = 0;
    const mem::HierarchyConfig* configs = nullptr;
    std::size_t k0 = 0;
    std::size_t k1 = 0;
    mem::HierarchyStats* out = nullptr;
    /** Config-independent counts of the CPU's instruction refs. */
    std::uint64_t* instrs = nullptr;
    std::uint64_t* fetch_breaks = nullptr;
};

/**
 * The hierarchy family is bound by dependent L1 -> L2 probes and
 * FA-LRU iTLB lookups; there is no profitable vector form, so one
 * scalar implementation serves every caller (no KernelKind dispatch).
 */
void hierarchyShard(const HierarchyShard& shard);

/**
 * Stream-buffered i-cache replay. A vector set probe measured slower
 * than scalar on this family (EXPERIMENTS.md), so one scalar
 * implementation serves every KernelKind.
 */
void streamBufShard(const StreamBufShard& shard);

} // namespace detail

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_KERNELS_HH
