#ifndef SPIKESIM_SIM_KERNELS_HH
#define SPIKESIM_SIM_KERNELS_HH

#include <cstddef>
#include <string>

#include "mem/cache.hh"
#include "sim/soa.hh"

/**
 * @file
 * The shard type every SoA replay kernel takes.
 *
 * All kernels live in kernels_detail.hh, one scalar kernel per
 * simulator family, and sim/engine.cc calls them directly on
 * detail::Shard cells. I-cache misses, Figure 13's interference
 * matrix included, and standalone iTLBs have no shard kernel: they
 * run on the LRU-stack sweep (sim/sweep.hh).
 */

namespace spikesim::sim {

// Source-compatibility shim for the end-to-end benchmark, which still
// passes SimdMode::Auto to the replay entry points and reports
// resolveKernel()'s choice. Every name below goes with ROADMAP item 3
// (the benchmark follow-up); nothing in the library acts on it.

/** Kernel selection request; the one kernel serves every request. */
enum class SimdMode {
    Auto = 0,
};

/** The one kernel implementation a replay call runs. */
enum class KernelKind {
    Scalar = 0,
};

/** A kernel choice plus a provenance note. */
struct KernelChoice
{
    KernelKind kind = KernelKind::Scalar;
    std::string reason;
};

/** Always the scalar kernel, with the same reason on every call. */
inline KernelChoice
resolveKernel(SimdMode)
{
    return {KernelKind::Scalar, "one scalar kernel"};
}

/** "scalar" — for banners, manifests, JSON. */
inline const char*
kernelName(KernelKind)
{
    return "scalar";
}

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

} // namespace detail

} // namespace spikesim::sim

#endif // SPIKESIM_SIM_KERNELS_HH
