#ifndef SPIKESIM_SIM_KERNELS_HH
#define SPIKESIM_SIM_KERNELS_HH

#include <cstddef>
#include <string>

#include "mem/cache.hh"
#include "sim/soa.hh"

/**
 * @file
 * The runtime SIMD dispatch of the SoA replay kernels, and the shard
 * type every kernel takes.
 *
 * All kernels live in kernels_detail.hh, one per simulator family, and
 * sim/engine.cc calls them directly on detail::Shard cells. The
 * i-cache family is the one replay step where a vector walk pays, so
 * it alone has two implementations behind icacheShardRun():
 *
 *  - scalar (runIcacheShardImpl): the shared per-CPU instruction-ref
 *    walk and line-step cursor of kernels_detail.hh, built with the
 *    project's default flags. It runs on any host and is the
 *    differential ground truth next to the per-config Replayer oracle.
 *
 *  - AVX2 (kernels_avx2.cc): run-coalescing walk with gather-free
 *    direct-mapped probes and 4/8-way whole-set vector probes. Only
 *    that TU's own code is compiled for AVX2 (a target pragma after
 *    the shared includes, no global -march change), and it is only
 *    entered when the host CPU reports AVX2.
 *
 * Both build and fold the same IcacheState and fall back to the same
 * ScalarProbe, so they can differ only in probe arithmetic, which
 * computes the same integers. Every other family (three-C, stream
 * buffers, iTLB, instrumented, hierarchy) has one scalar kernel that
 * serves every KernelKind: their vector ports did not beat scalar by
 * more than the run-to-run noise (EXPERIMENTS.md), or their probes
 * (FA-LRU pointer chasing, serial per-word histogram updates,
 * dependent L1 -> L2 lookups) have no data-parallel form.
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
 * One (cpu, config-chunk) cell of a fused replay: walk CPU `cpu`'s
 * slice of `soa` once, feeding configs [k0, k1); results land in
 * out[0 .. k1-k0), fully overwritten (not accumulated). Every family
 * kernel in kernels_detail.hh takes one; family extras (stream-buffer
 * count, instrumented flush, the hierarchy's per-CPU counts) are
 * kernel arguments.
 */
template <typename Config, typename Out>
struct Shard
{
    const ResolvedTraceSoA* soa = nullptr;
    int cpu = 0;
    const Config* configs = nullptr;
    std::size_t k0 = 0;
    std::size_t k1 = 0;
    Out* out = nullptr;
};

using IcacheShard = Shard<mem::CacheConfig, ICacheReplayResult>;

void icacheShardAvx2(const IcacheShard& shard); ///< AVX2 TU only

/** Run one i-cache shard on the kernel implementation for `kind`. */
void icacheShardRun(KernelKind kind, const IcacheShard& shard);

} // namespace detail

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_KERNELS_HH
