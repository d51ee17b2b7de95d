/**
 * @file
 * Seeded mutation fuzz of the `.spkc` trace-section decoder
 * (trace::TraceReader). A TraceWriter section of a synthetic trace is
 * mutated from a fixed support::Pcg32 seed: bit flips, byte
 * overwrites, truncations and inserted bytes. Each mutated section is
 * decoded by TraceReader::readAll in an EXPECT_EXIT child, which must
 * either decode and exit 0 or die through fatal(): exit 1 with one
 * "fatal: " line on stderr. A signal, another exit code or any other
 * stderr output (a sanitizer report) fails the case.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "support/rng.hh"
#include "support/varint.hh"
#include "trace/serialize.hh"
#include "trace/trace.hh"

namespace spikesim::trace {
namespace {

/** A trace with runs of each image, context switches and locally
 *  varying block ids, with occasional far jumps so every group-varint
 *  width occurs. */
TraceBuffer
sampleTrace(std::uint64_t seed, std::size_t n)
{
    TraceBuffer buf;
    support::Pcg32 rng(seed);
    TraceEvent e;
    std::uint32_t walk[kNumImages] = {500, 90000, 4000000};
    while (buf.size() < n) {
        e.image = static_cast<ImageId>(rng.nextBounded(3));
        e.process = static_cast<std::uint16_t>(rng.nextBounded(8));
        e.cpu = static_cast<std::uint8_t>(rng.nextBounded(4));
        const std::uint32_t run = 1 + rng.nextBounded(40);
        std::uint32_t& pos = walk[static_cast<std::size_t>(e.image)];
        for (std::uint32_t i = 0; i < run && buf.size() < n; ++i) {
            pos = rng.nextBool(0.05)
                      ? rng.next()
                      : pos + rng.nextBounded(17) - 8;
            e.block = pos;
            buf.append(e);
        }
    }
    return buf;
}

std::vector<std::uint8_t>
encode(const TraceBuffer& buf)
{
    std::vector<std::uint8_t> bytes;
    TraceWriter w;
    w.addAll(buf);
    w.finish(bytes);
    return bytes;
}

/** Decode a whole section, then exit 0; a corrupt one dies in
 *  fatal() first. */
[[noreturn]] void
decodeAndExit(const std::vector<std::uint8_t>& bytes)
{
    support::ByteReader r(bytes.data(), bytes.size());
    TraceReader reader(r);
    TraceBuffer out;
    reader.readAll(out);
    std::cerr << "decoded\n";
    std::exit(0);
}

/** Exit 0 (decoded) or 1 (fatal); a signal or any other code fails. */
bool
decodedOrFatal(int status)
{
    return WIFEXITED(status) &&
           (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
}

/** All of stderr: the child's one "decoded" or "fatal: ..." line. */
constexpr const char* kCleanExit = "^(decoded|fatal: [^\n]*)\n$";

TEST(TraceFuzz, UnmutatedSectionDecodes)
{
    EXPECT_EXIT(decodeAndExit(encode(sampleTrace(3, 3000))),
                ::testing::ExitedWithCode(0), "^decoded\n$");
}

TEST(TraceFuzz, MutatedSectionsDecodeOrDieInFatal)
{
    const std::vector<std::uint8_t> base = encode(sampleTrace(3, 3000));
    ASSERT_GT(base.size(), 64u);
    support::Pcg32 rng(0x5eedf00dULL, 25);
    const auto at = [&rng](std::size_t size) {
        return static_cast<std::size_t>(
            rng.nextBounded(static_cast<std::uint32_t>(size)));
    };
    int kinds[4] = {0, 0, 0, 0};
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> bytes = base;
        const std::uint32_t kind = rng.nextBounded(4);
        ++kinds[kind];
        std::string what;
        switch (kind) {
          case 0: { // flip 1..4 bits
            const std::uint32_t flips = 1 + rng.nextBounded(4);
            for (std::uint32_t f = 0; f < flips; ++f) {
                const std::size_t pos = at(bytes.size());
                bytes[pos] ^= static_cast<std::uint8_t>(
                    1u << rng.nextBounded(8));
                what += " flip@" + std::to_string(pos);
            }
            break;
          }
          case 1: { // overwrite one byte
            const std::size_t pos = at(bytes.size());
            bytes[pos] = static_cast<std::uint8_t>(rng.next());
            what = " overwrite@" + std::to_string(pos);
            break;
          }
          case 2: { // truncate
            const std::size_t len = at(bytes.size());
            bytes.resize(len);
            what = " truncate to " + std::to_string(len);
            break;
          }
          default: { // insert 1..8 random bytes
            const std::size_t pos = at(bytes.size() + 1);
            const std::uint32_t n = 1 + rng.nextBounded(8);
            std::vector<std::uint8_t> ins(n);
            for (std::uint8_t& b : ins)
                b = static_cast<std::uint8_t>(rng.next());
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                         ins.begin(), ins.end());
            what = " insert " + std::to_string(n) + "@" +
                   std::to_string(pos);
            break;
          }
        }
        SCOPED_TRACE("mutation " + std::to_string(i) + what);
        EXPECT_EXIT(decodeAndExit(bytes), decodedOrFatal, kCleanExit);
    }
    // The seed exercises every kind of mutation.
    for (int n : kinds)
        EXPECT_GT(n, 0);
}

} // namespace
} // namespace spikesim::trace
