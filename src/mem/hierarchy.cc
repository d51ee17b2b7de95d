#include "mem/hierarchy.hh"

#include "support/panic.hh"

namespace spikesim::mem {

HierarchyStats&
HierarchyStats::operator+=(const HierarchyStats& o)
{
    l1i += o.l1i;
    l1d += o.l1d;
    l2i += o.l2i;
    l2d += o.l2d;
    itlb_misses += o.itlb_misses;
    comm_misses += o.comm_misses;
    return *this;
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      itlb_(config.itlb_entries, config.page_bytes)
{
    SPIKESIM_ASSERT(config.l1i.check().empty(),
                    "bad L1I config: " << config.l1i.check());
    SPIKESIM_ASSERT(config.l1d.check().empty(),
                    "bad L1D config: " << config.l1d.check());
    SPIKESIM_ASSERT(config.l2.check().empty(),
                    "bad L2 config: " << config.l2.check());
}

void
MemoryHierarchy::fetchLine(std::uint64_t addr, Owner owner)
{
    if (!itlb_.access(addr))
        ++stats_.itlb_misses;
    if (l1i_.access(addr, owner).hit) {
        stats_.l1i.record(false);
        return;
    }
    stats_.l1i.record(true);
    stats_.l2i.record(
        !l2_.access(pseudoPhysical(addr, config_.page_bytes), owner)
             .hit);
}

void
MemoryHierarchy::dataLine(std::uint64_t addr)
{
    if (l1d_.access(addr, Owner::Data).hit) {
        stats_.l1d.record(false);
        return;
    }
    stats_.l1d.record(true);
    stats_.l2d.record(
        !l2_.access(pseudoPhysical(addr, config_.page_bytes),
                    Owner::Data)
             .hit);
}

} // namespace spikesim::mem
