#include "sim/kernels.hh"

#include <string>

#include "sim/kernels_detail.hh"
#include "support/cpufeat.hh"
#include "support/panic.hh"

namespace spikesim::sim {

bool
simdKernelsCompiled()
{
#if defined(SPIKESIM_AVX2_TU)
    return true;
#else
    return false;
#endif
}

bool
simdAvailable()
{
    return simdKernelsCompiled() && support::cpuHasAvx2();
}

namespace {

/** Why the AVX2 kernels cannot run here (only when !simdAvailable()). */
const char*
simdUnavailableWhy()
{
    return simdKernelsCompiled() ? "host CPU does not report AVX2"
                                 : "binary was built without AVX2 support";
}

} // namespace

KernelChoice
resolveKernel(SimdMode mode)
{
    KernelChoice c;
    switch (mode) {
    case SimdMode::Auto:
        c.kind = simdAvailable() ? KernelKind::Avx2 : KernelKind::Scalar;
        c.reason = std::string("cpuid: ") + kernelName(c.kind);
        if (c.kind == KernelKind::Scalar)
            c.reason += std::string(" (") + simdUnavailableWhy() + ")";
        return c;
    case SimdMode::Scalar:
        c.kind = KernelKind::Scalar;
        break;
    case SimdMode::Simd:
        if (!simdAvailable())
            support::fatal(
                std::string("SIMD kernels requested but unavailable: ") +
                simdUnavailableWhy());
        c.kind = KernelKind::Avx2;
        break;
    }
    c.reason = std::string("forced by caller: ") + kernelName(c.kind);
    return c;
}

const char*
kernelName(KernelKind kind)
{
    return kind == KernelKind::Avx2 ? "avx2" : "scalar";
}

namespace detail {

#if !defined(SPIKESIM_AVX2_TU)
void
icacheShardAvx2(const IcacheShard& shard)
{
    (void)shard;
    support::fatal("AVX2 kernel invoked in a binary built without it");
}
#endif

void
icacheShardRun(KernelKind kind, const IcacheShard& shard)
{
    if (kind == KernelKind::Avx2)
        icacheShardAvx2(shard);
    else
        runIcacheShardImpl(shard);
}

} // namespace detail

} // namespace spikesim::sim
