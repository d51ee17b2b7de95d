#include "support/cpufeat.hh"

namespace spikesim::support {

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    // __builtin_cpu_supports caches the cpuid probe internally; the
    // static local just skips the call after the first query.
    static const bool has = __builtin_cpu_supports("avx2") != 0;
    return has;
#else
    return false;
#endif
}

} // namespace spikesim::support
