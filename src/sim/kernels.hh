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
 * Three implementations of each config-column kernel family exist
 * behind one interface:
 *
 *  - scalar (kernels.cc): branch-lean reference implementation, built
 *    with the project's default flags. This path runs on any host and
 *    is the differential ground truth — the fuzz in
 *    tests/replay_parallel_test.cc pins it (and the vector paths) to
 *    the per-config scalar Replayer oracle bit for bit.
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
 *  - AVX-512 (kernels_avx512.cc): the same run-coalescing walk with
 *    512-bit probes (eight lines per compare via compare-to-mask).
 *    Gated the same way behind -mavx512f and cpuHasAvx512f().
 *
 * Three families are scalar-only, one implementation serving every
 * KernelKind: the iTLB (FA-LRU-bound), the instrumented per-word walk
 * (serial histogram updates), and the hierarchy (dependent L1 -> L2
 * probes plus iTLB lookups; its flat per-CPU state also backs
 * serve::ServiceModel).
 *
 * All kernels share their state layout and outer walk via
 * kernels_detail.hh / kernels_vec.hh (one template, per-width probe
 * traits), which is what makes "bit-identical by construction" a
 * structural property rather than a testing aspiration: the only code
 * that differs is the probe arithmetic, and that computes the same
 * integers.
 *
 * Dispatch: SimdMode::Auto consults the SPIKESIM_SIMD environment
 * variable (strictly "0", "1" or "2"; anything else is a fatal user
 * error). When neither a flag nor the environment decides, a one-time
 * calibration replay times every runnable kernel on a tiny synthetic
 * trace and the fastest wins; the choice and its reason are exposed via
 * KernelChoice so benches can record them in run manifests. Benches
 * expose the same choice as a --simd 0|1|2 flag, which wins over the
 * environment. Forcing a kernel the host cannot run is always fatal,
 * never a silent fallback.
 */

namespace spikesim::sim {

/** Kernel selection request for the SoA replay entry points. */
enum class SimdMode {
    Auto = 0, ///< SPIKESIM_SIMD env if set, else calibration
    Scalar,   ///< force the scalar kernels (any host)
    Simd,     ///< force the AVX2 kernels (fatal if unavailable)
    Avx512,   ///< force the AVX-512 kernels (fatal if unavailable)
};

/** The concrete kernel implementation a replay call will run. */
enum class KernelKind {
    Scalar = 0,
    Avx2,
    Avx512,
};

/** Resolved dispatch decision plus a human-readable provenance note. */
struct KernelChoice
{
    KernelKind kind = KernelKind::Scalar;
    std::string reason; ///< e.g. "--simd flag", "SPIKESIM_SIMD=1",
                        ///< "auto-calibrated: avx512 1.4x vs scalar"
};

/** True when the AVX2 kernel TU was compiled into this binary. */
bool simdKernelsCompiled();

/** True when the AVX2 kernels can run here (compiled + CPU support). */
bool simdAvailable();

/** True when the AVX-512 kernel TU was compiled into this binary. */
bool avx512KernelsCompiled();

/** True when the AVX-512 kernels can run here (compiled + CPU). */
bool avx512Available();

/**
 * Strict SPIKESIM_SIMD parse: unset/empty -> Auto, "0" -> Scalar,
 * "1" -> Simd, "2" -> Avx512; anything else is a fatal configuration
 * error.
 */
SimdMode simdModeFromEnv();

/**
 * Resolve a mode to the final kernel choice. Scalar/Simd/Avx512 are
 * explicit caller requests (e.g. a --simd flag) and win over the
 * environment; Auto defers to simdModeFromEnv(), and when that is also
 * Auto, to a one-time calibration replay that times every runnable
 * kernel and picks the fastest (cached for the process lifetime).
 * Requesting a kernel the host cannot run is a fatal user error, never
 * a silent fallback.
 */
KernelChoice resolveKernel(SimdMode mode);

/** Provenance of the Auto-mode calibration replay. */
struct CalibrationInfo
{
    bool ran = false; ///< a timing replay actually ran
    /** "synthetic" or "real-slice" (seedCalibrationTrace was used). */
    std::string source = "synthetic";
    /** Reference count of the calibration trace that was timed. */
    std::uint64_t sample_refs = 0;
};

/**
 * Ground the Auto-mode calibration on a slice of a real resolved trace
 * instead of the synthetic one: the first `max_refs` references (single
 * CPU) are copied and the next calibration replay times the kernels on
 * them. Re-seeding invalidates any cached calibration, so call this
 * before the first resolveKernel(Auto). The synthetic trace remains the
 * fallback whenever no seed was provided.
 */
void seedCalibrationTrace(const ResolvedTraceSoA& soa,
                          std::size_t max_refs = 32 * 1024);

/** Provenance of the most recent calibration (ran=false if none). */
CalibrationInfo calibrationInfo();

/** "scalar", "avx2" or "avx512" — for banners, manifests, JSON. */
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
void icacheShardAvx2(const IcacheShard& shard);   ///< AVX2 TU only
void icacheShardAvx512(const IcacheShard& shard); ///< AVX-512 TU only

void threeCShardScalar(const ThreeCShard& shard);
void threeCShardAvx2(const ThreeCShard& shard);   ///< AVX2 TU only
void threeCShardAvx512(const ThreeCShard& shard); ///< AVX-512 TU only

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

void streamBufShardScalar(const StreamBufShard& shard);
void streamBufShardAvx2(const StreamBufShard& shard);   ///< AVX2 TU
void streamBufShardAvx512(const StreamBufShard& shard); ///< AVX-512 TU

/** Dispatch one shard to the kernel implementation for `kind`. */
void icacheShardRun(KernelKind kind, const IcacheShard& shard);
void threeCShardRun(KernelKind kind, const ThreeCShard& shard);
void iTlbShardRun(KernelKind kind, const ITlbShard& shard);
void instrShardRun(KernelKind kind, const InstrShard& shard);
void streamBufShardRun(KernelKind kind, const StreamBufShard& shard);

} // namespace detail

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_KERNELS_HH
