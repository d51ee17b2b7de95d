#include "sim/soa.hh"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace spikesim::sim {

namespace detail {

void
adviseHugePages([[maybe_unused]] void* p,
                [[maybe_unused]] std::size_t bytes) noexcept
{
#ifdef MADV_HUGEPAGE
    // Advisory only: a kernel with THP disabled simply ignores it (or
    // returns EINVAL, equally ignorable) and the columns stay on
    // ordinary pages.
    (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
}

} // namespace detail

} // namespace spikesim::sim
