/** @file Tests for the instruction TLB model. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/itlb.hh"

namespace spikesim::mem {
namespace {

constexpr std::uint64_t kPage = 8 * 1024;

TEST(ITlb, MissThenHitSamePage)
{
    ITlb tlb(4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1ffc));
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(ITlb, CapacityEviction)
{
    ITlb tlb(2);
    tlb.access(0 * kPage);
    tlb.access(1 * kPage);
    tlb.access(2 * kPage); // evicts page 0 (LRU)
    EXPECT_FALSE(tlb.access(0 * kPage));
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(ITlb, LruOrderRespectsRecency)
{
    ITlb tlb(2);
    tlb.access(0 * kPage);
    tlb.access(1 * kPage);
    tlb.access(0 * kPage); // page 0 recent; page 1 is LRU
    tlb.access(2 * kPage); // evicts page 1
    EXPECT_TRUE(tlb.access(0 * kPage));
    EXPECT_FALSE(tlb.access(1 * kPage));
}

TEST(ITlb, SamePageFilterStillUpdatesRecency)
{
    ITlb tlb(2);
    tlb.access(0 * kPage);
    tlb.access(1 * kPage);
    // Long run inside page 1 through the same-page fast path.
    for (int i = 0; i < 100; ++i)
        tlb.access(1 * kPage + static_cast<std::uint64_t>(i) * 4);
    tlb.access(2 * kPage); // must evict page 0, not the hot page 1
    EXPECT_TRUE(tlb.access(1 * kPage));
    EXPECT_FALSE(tlb.access(0 * kPage));
}

TEST(ITlb, CustomPageSize)
{
    ITlb tlb(4, 4096);
    tlb.access(0);
    EXPECT_FALSE(tlb.access(4096)); // different 4KB page
    EXPECT_TRUE(tlb.access(4100));
}

/** Page stream with long same-page runs, so the one-entry filter fires. */
std::vector<std::uint64_t>
pageStream(std::uint32_t seed, std::size_t n, std::uint64_t pages)
{
    std::vector<std::uint64_t> out;
    std::uint64_t x = seed;
    while (out.size() < n) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t page = (x >> 33) % pages;
        const std::size_t run = 1 + (x >> 20) % 5;
        for (std::size_t r = 0; r < run && out.size() < n; ++r)
            out.push_back(page * kPage + r * 64);
    }
    return out;
}

TEST(ITlb, CopyOwnsItsFastPathEntry)
{
    // A copied TLB must stamp its own entries. Drive the source and the
    // copy with different interleaved streams (and keep driving the copy
    // after the source is gone); each must match a fresh TLB fed the
    // same history. The streams open with the copy re-hitting the last
    // history page through the fast path while the source touches every
    // other page: a copy that stamped the source's entry would make the
    // source keep its true LRU page and evict page 0 instead.
    std::vector<std::uint64_t> history = {0, 1, 2, 3};
    std::vector<std::uint64_t> a = {0, 1, 2, 4, 0};
    std::vector<std::uint64_t> b = {3, 3, 3, 3, 3};
    for (auto* v : {&history, &a, &b})
        for (std::uint64_t& page : *v)
            page *= kPage;
    const std::vector<std::uint64_t> a_tail = pageStream(2, 400, 6);
    const std::vector<std::uint64_t> b_tail = pageStream(3, 400, 6);
    a.insert(a.end(), a_tail.begin(), a_tail.end());
    b.insert(b.end(), b_tail.begin(), b_tail.end());

    auto src = std::make_unique<ITlb>(4);
    ITlb ref_a(4);
    ITlb ref_b(4);
    for (std::uint64_t addr : history) {
        src->access(addr);
        ref_a.access(addr);
        ref_b.access(addr);
    }
    ITlb copy = *src;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(src->access(a[i]), ref_a.access(a[i])) << "source " << i;
        EXPECT_EQ(copy.access(b[i]), ref_b.access(b[i])) << "copy " << i;
    }
    EXPECT_EQ(src->misses(), ref_a.misses());
    src.reset();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(copy.access(a[i]), ref_b.access(a[i])) << "after " << i;
    EXPECT_EQ(copy.hits(), ref_b.hits());
    EXPECT_EQ(copy.misses(), ref_b.misses());
}

TEST(ITlb, ResetClears)
{
    ITlb tlb(4);
    tlb.access(0);
    tlb.reset();
    EXPECT_EQ(tlb.hits() + tlb.misses(), 0u);
    EXPECT_FALSE(tlb.access(0));
}

} // namespace
} // namespace spikesim::mem
