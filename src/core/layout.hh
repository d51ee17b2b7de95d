#ifndef SPIKESIM_CORE_LAYOUT_HH
#define SPIKESIM_CORE_LAYOUT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "program/program.hh"

/**
 * @file
 * Code layout representation: an ordered list of code segments (the
 * placement units) and the address assignment derived from it. The
 * assigner models the two layout-dependent code-size effects from the
 * paper: unconditional branches are *deleted* when their target becomes
 * the fall-through, and are *materialized* when a block that used to
 * fall through is moved away from its successor.
 */

namespace spikesim::core {

/**
 * A contiguous run of blocks from one procedure, placed as a unit.
 * Before splitting there is one segment per procedure; fine-grain
 * splitting produces many small segments.
 */
struct CodeSegment
{
    program::ProcId proc = program::kInvalidId;
    std::vector<program::BlockLocalId> blocks;
};

/**
 * Intra-procedure successors of one block that decide its trailing
 * unconditional branch. Ids are in whatever space the table was built
 * in (global ids for blockSuccessors(Program), local ids for
 * blockSuccessors(Procedure)); kInvalidId = no such successor.
 */
struct BlockSuccs
{
    std::uint32_t fall = program::kInvalidId;   ///< fall-through
    std::uint32_t taken = program::kInvalidId;  ///< cond-taken target
    std::uint32_t uncond = program::kInvalidId; ///< uncond-branch target
};

/** Successor table indexed by global block id. */
std::vector<BlockSuccs> blockSuccessors(const program::Program& prog);

/** Successor table of one procedure, indexed by local block id. */
std::vector<BlockSuccs> blockSuccessors(const program::Procedure& proc);

/**
 * Layout-adjusted size in instructions of `blk` (successors `succs`)
 * when `next` is the block placed immediately after it with no padding
 * in between, or kInvalidId when nothing is. A block that falls through
 * (or a conditional whose neither side follows) gains a materialized
 * unconditional branch unless its fall-through successor is `next`; an
 * unconditional branch to `next` is deleted. `next` must be in the
 * same id space as `succs`.
 */
inline std::uint32_t
adjustedSize(const program::BasicBlock& blk, const BlockSuccs& succs,
             std::uint32_t next)
{
    switch (blk.term) {
      case program::Terminator::FallThrough:
      case program::Terminator::Call:
        return blk.sizeInstrs + (succs.fall != next ? 1 : 0);
      case program::Terminator::CondBranch:
        return blk.sizeInstrs +
               (succs.fall != next && succs.taken != next ? 1 : 0);
      case program::Terminator::UncondBranch:
        return blk.sizeInstrs - (succs.uncond == next ? 1 : 0);
      case program::Terminator::IndirectJump:
      case program::Terminator::Return:
        break;
    }
    return blk.sizeInstrs;
}

/** Knobs for address assignment. */
struct AssignOptions
{
    /** Base virtual address of the text section. */
    std::uint64_t text_base = 0x10000000ULL;
    /**
     * Segment start alignment in bytes (power of two). Compiler-made
     * baselines align procedure entries (16 here); Spike-style optimized
     * layouts pack segments with no padding (4).
     */
    std::uint32_t segment_align = 4;
    /**
     * When > 0, reserve a conflict-free area (CFA): segments flagged hot
     * are placed only into cache rows [0, cfa_bytes) of a cache of
     * cfa_cache_bytes, cold segments only outside it.
     */
    std::uint32_t cfa_bytes = 0;
    std::uint32_t cfa_cache_bytes = 0;
};

/**
 * The result of placing segments in order: per-block addresses and
 * layout-adjusted sizes.
 */
class Layout
{
  public:
    /**
     * Assign addresses to the given segment order. Every block of the
     * program must appear exactly once across the segments.
     *
     * @param hot_flags optional per-segment hot flag (parallel to
     *        segments) used only in CFA mode; empty means all cold.
     */
    Layout(const program::Program& prog, std::vector<CodeSegment> segments,
           const AssignOptions& opts = {},
           const std::vector<bool>& hot_flags = {});

    const program::Program& prog() const { return *prog_; }
    const std::vector<CodeSegment>& segments() const { return segments_; }

    /** Start address of a block under this layout. */
    std::uint64_t blockAddr(program::GlobalBlockId g) const;

    /**
     * Layout-adjusted block size in instructions (body plus materialized
     * or minus deleted trailing unconditional branch). May be zero for a
     * branch-only block whose branch was deleted.
     */
    std::uint32_t blockSize(program::GlobalBlockId g) const;

    /** Start addresses indexed by global block id: blockAddr() for
     *  every block at once, for walks that gather per trace ref. */
    std::span<const std::uint64_t> blockAddrs() const { return addr_; }

    /** Layout-adjusted sizes in instructions indexed by global block
     *  id (blockSize() for every block at once). */
    std::span<const std::uint32_t> blockSizes() const { return size_; }

    /** Block size in bytes. */
    std::uint64_t
    blockBytes(program::GlobalBlockId g) const
    {
        return static_cast<std::uint64_t>(blockSize(g)) *
               program::kInstrBytes;
    }

    std::uint64_t textBase() const { return text_base_; }
    /** One past the last text byte. */
    std::uint64_t textLimit() const { return text_limit_; }
    std::uint64_t textBytes() const { return text_limit_ - text_base_; }

    /** Number of unconditional branches added because a fall-through
     *  successor was moved away. */
    std::uint64_t branchesMaterialized() const { return materialized_; }
    /** Number of unconditional branches deleted because their target
     *  became the fall-through. */
    std::uint64_t branchesDeleted() const { return deleted_; }
    /** Alignment padding inserted, in bytes. */
    std::uint64_t paddingBytes() const { return padding_bytes_; }

    /**
     * Audit branch displacements: number of direct branches (cond or
     * uncond, including materialized ones) whose source-to-target
     * distance exceeds the given limit (Alpha cond-branch reach is
     * +-1MB).
     */
    std::uint64_t
    branchesBeyondDisplacement(std::uint64_t limit_bytes = 1u << 20) const;

    /**
     * Verify the layout covers every block exactly once with
     * non-overlapping addresses. Returns empty string when valid.
     */
    std::string validate() const;

  private:
    const program::Program* prog_;
    std::vector<CodeSegment> segments_;
    std::vector<std::uint64_t> addr_;      ///< by global block id
    std::vector<std::uint32_t> size_;      ///< by global block id
    std::uint64_t text_base_ = 0;
    std::uint64_t text_limit_ = 0;
    std::uint64_t materialized_ = 0;
    std::uint64_t deleted_ = 0;
    std::uint64_t padding_bytes_ = 0;
};

/**
 * Baseline segment list: one segment per procedure, blocks in their
 * original (source) order, procedures in id (link) order.
 */
std::vector<CodeSegment> baselineSegments(const program::Program& prog);

/** Baseline layout as produced by the original compiler/linker. */
Layout baselineLayout(const program::Program& prog,
                      std::uint64_t text_base = 0x10000000ULL);

} // namespace spikesim::core

#endif // SPIKESIM_CORE_LAYOUT_HH
