#ifndef SPIKESIM_SUPPORT_CPUFEAT_HH
#define SPIKESIM_SUPPORT_CPUFEAT_HH

/**
 * @file
 * Runtime CPU feature detection for the SIMD replay kernels. The
 * binary is built without any global -march bump (only the dedicated
 * vector translation unit's own code targets AVX2), so whether the
 * vector kernels may run is strictly a runtime question answered here.
 */

namespace spikesim::support {

/** True when the host CPU executes AVX2 (checked once, cached). */
bool cpuHasAvx2();

} // namespace spikesim::support

#endif // SPIKESIM_SUPPORT_CPUFEAT_HH
