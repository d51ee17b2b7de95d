/**
 * @file
 * Tests for the persistent trace/profile corpus: varint/checksum
 * primitives, randomized TraceBuffer and Profile round trips, corpus
 * save/load, the workload fingerprint, and corruption handling
 * (truncated file, flipped payload byte, version/magic mismatch must
 * die cleanly in fatal(), never replay garbage).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "profile/serialize.hh"
#include "program/builder.hh"
#include "sim/corpus.hh"
#include "support/checksum.hh"
#include "support/rng.hh"
#include "support/varint.hh"
#include "trace/serialize.hh"

namespace spikesim {
namespace {

using support::ByteReader;
using support::putVarint;
using trace::ExecContext;
using trace::ImageId;
using trace::TraceBuffer;
using trace::TraceEvent;

TEST(Varint, RoundTripsEdgeValues)
{
    const std::uint64_t values[] = {0,
                                    1,
                                    127,
                                    128,
                                    16383,
                                    16384,
                                    0xffffffffULL,
                                    0x100000000ULL,
                                    0xffffffffffffffffULL};
    std::vector<std::uint8_t> out;
    for (std::uint64_t v : values)
        putVarint(out, v);
    ByteReader r(out.data(), out.size());
    for (std::uint64_t v : values)
        EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
}

TEST(Varint, ZigzagRoundTripsSignedValues)
{
    const std::int64_t values[] = {0, -1, 1, -2, 63, -64, -1000000,
                                   1000000};
    for (std::int64_t v : values)
        EXPECT_EQ(support::zigzagDecode(support::zigzagEncode(v)), v);
    EXPECT_EQ(support::zigzagEncode(0), 0u);
    EXPECT_EQ(support::zigzagEncode(-1), 1u);
    EXPECT_EQ(support::zigzagEncode(1), 2u);
}

TEST(Varint, RandomRoundTrip)
{
    support::Pcg32 rng(11);
    std::vector<std::uint64_t> values;
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = (static_cast<std::uint64_t>(rng.next()) << 32) |
                          rng.next();
        v >>= rng.nextBounded(64); // cover all byte lengths
        values.push_back(v);
        putVarint(out, v);
    }
    ByteReader r(out.data(), out.size());
    for (std::uint64_t v : values)
        EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
}

using VarintDeathTest = ::testing::Test;

TEST(VarintDeathTest, TruncatedStreamDiesCleanly)
{
    std::vector<std::uint8_t> out;
    putVarint(out, 0x4000); // multi-byte varint
    ByteReader r(out.data(), out.size() - 1);
    EXPECT_DEATH(r.varint(), "truncated");
    std::vector<std::uint8_t> raw{1, 2, 3};
    ByteReader r2(raw.data(), raw.size());
    EXPECT_DEATH(r2.raw(4), "truncated");
}

TEST(Checksum, MatchesFnv1aReference)
{
    EXPECT_EQ(support::fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
    // FNV-1a("a") per the reference implementation.
    EXPECT_EQ(support::fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(Checksum, StreamingEqualsOneShot)
{
    const char data[] = "spikesim corpus checksum";
    support::Fnv1a64 h;
    h.update(data, 10);
    h.update(data + 10, sizeof(data) - 1 - 10);
    EXPECT_EQ(h.digest(), support::fnv1a64(data, sizeof(data) - 1));
}

TEST(TraceBuffer, ClearResetsPerImageCounts)
{
    TraceBuffer buf;
    ExecContext ctx;
    buf.onBlock(ctx, ImageId::App, 1);
    buf.onData(ctx, 0x100);
    buf.clear();
    EXPECT_EQ(buf.imageEvents(ImageId::App), 0u);
    EXPECT_EQ(buf.imageEvents(ImageId::Data), 0u);
}

TEST(TraceBuffer, AppendTracksPerImageCounts)
{
    TraceBuffer buf;
    TraceEvent e;
    e.block = 9;
    e.image = ImageId::Kernel;
    buf.append(e);
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.imageEvents(ImageId::Kernel), 1u);
}

/** Bursty synthetic trace: runs of one image, slowly-changing context,
 *  spatially local block ids — the shape the encoder exploits — plus
 *  uniform noise so the test is not only the friendly case. */
TraceBuffer
randomTrace(std::uint64_t seed, std::size_t n)
{
    TraceBuffer buf;
    support::Pcg32 rng(seed);
    TraceEvent e;
    std::uint32_t walk[trace::kNumImages] = {500, 90000, 4000000};
    std::size_t made = 0;
    while (made < n) {
        e.image = static_cast<ImageId>(rng.nextBounded(3));
        e.process = static_cast<std::uint16_t>(rng.nextBounded(32));
        e.cpu = static_cast<std::uint8_t>(rng.nextBounded(4));
        const std::size_t run = std::min<std::size_t>(
            n - made, 1 + rng.nextBounded(50));
        auto& pos = walk[static_cast<std::size_t>(e.image)];
        for (std::size_t i = 0; i < run; ++i) {
            if (rng.nextBool(0.05))
                pos = rng.next(); // occasional far jump
            else
                pos += static_cast<std::uint32_t>(
                           rng.nextBounded(17)) -
                       8;
            e.block = pos;
            buf.append(e);
            ++made;
        }
    }
    return buf;
}

TEST(TraceSerialize, RandomizedRoundTripIsBitIdentical)
{
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
        for (std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1000}, std::size_t{20000}}) {
            TraceBuffer buf = randomTrace(seed, n);
            std::vector<std::uint8_t> bytes;
            trace::TraceWriter w;
            w.addAll(buf);
            w.finish(bytes);

            TraceBuffer out;
            ByteReader r(bytes.data(), bytes.size());
            trace::TraceReader reader(r);
            EXPECT_EQ(reader.numEvents(), n);
            reader.readAll(out);
            EXPECT_TRUE(r.done());

            ASSERT_EQ(out.size(), buf.size());
            for (std::size_t i = 0; i < n; ++i) {
                const TraceEvent& a = buf.events()[i];
                const TraceEvent& b = out.events()[i];
                ASSERT_EQ(a.block, b.block) << "event " << i;
                ASSERT_EQ(a.process, b.process) << "event " << i;
                ASSERT_EQ(a.cpu, b.cpu) << "event " << i;
                ASSERT_EQ(a.image, b.image) << "event " << i;
            }
            for (std::size_t img = 0; img < trace::kNumImages; ++img)
                EXPECT_EQ(
                    out.imageEvents(static_cast<ImageId>(img)),
                    buf.imageEvents(static_cast<ImageId>(img)));
        }
    }
}

TEST(TraceSerialize, StreamingNextMatchesReadAll)
{
    TraceBuffer buf = randomTrace(77, 5000);
    std::vector<std::uint8_t> bytes;
    trace::TraceWriter w;
    w.addAll(buf);
    w.finish(bytes);

    ByteReader r(bytes.data(), bytes.size());
    trace::TraceReader reader(r);
    TraceEvent e;
    std::size_t i = 0;
    while (reader.next(e)) {
        ASSERT_LT(i, buf.size());
        EXPECT_EQ(e.block, buf.events()[i].block);
        ++i;
    }
    EXPECT_EQ(i, buf.size());
    EXPECT_FALSE(reader.next(e)); // stays exhausted
}

TEST(TraceSerialize, CompressesTheEventStream)
{
    TraceBuffer buf = randomTrace(9, 50000);
    std::vector<std::uint8_t> bytes;
    trace::TraceWriter w;
    w.addAll(buf);
    w.finish(bytes);
    // Even with 5% far jumps the encoding must beat the raw 8 B/event
    // by a wide margin.
    EXPECT_LT(bytes.size() * 4, buf.size() * sizeof(TraceEvent));
}

program::Program
littleProgram()
{
    using program::EdgeKind;
    using program::ProcedureBuilder;
    using program::Terminator;
    program::Program p("corpus-test");
    {
        ProcedureBuilder b("caller");
        auto c = b.addBlock(2, Terminator::Call, 1);
        auto r = b.addBlock(1, Terminator::Return);
        b.addEdge(c, r, EdgeKind::FallThrough);
        p.addProcedure(b.build());
    }
    {
        ProcedureBuilder b("callee");
        auto e = b.addBlock(3, Terminator::FallThrough);
        auto r = b.addBlock(1, Terminator::Return);
        b.addEdge(e, r, EdgeKind::FallThrough);
        p.addProcedure(b.build());
    }
    return p;
}

TEST(ProfileSerialize, RandomizedRoundTrip)
{
    program::Program prog = littleProgram();
    support::Pcg32 rng(21);
    profile::Profile p(prog);
    for (std::uint32_t g = 0; g < prog.numBlocks(); ++g)
        if (rng.nextBool(0.7))
            p.addBlock(g, 1 + rng.nextBounded(1000000));
    p.addEdge(0, 1, 42);
    p.addEdge(2, 3, 7);
    p.addCall(0, 1, 42);

    std::vector<std::uint8_t> bytes;
    profile::appendProfile(p, bytes);
    ByteReader r(bytes.data(), bytes.size());
    profile::Profile q = profile::readProfile(prog, r);
    EXPECT_TRUE(r.done());

    for (std::uint32_t g = 0; g < prog.numBlocks(); ++g)
        EXPECT_EQ(q.blockCount(g), p.blockCount(g));
    EXPECT_EQ(q.edgeCount(0, 1), 42u);
    EXPECT_EQ(q.edgeCount(2, 3), 7u);
    EXPECT_EQ(q.callCount(0, 1), 42u);
    EXPECT_EQ(q.dynamicInstrs(), p.dynamicInstrs());

    // Determinism: serializing the reloaded profile reproduces the
    // exact bytes (hash-map order cannot leak into the file).
    std::vector<std::uint8_t> bytes2;
    profile::appendProfile(q, bytes2);
    EXPECT_EQ(bytes2, bytes);
}

using ProfileSerializeDeathTest = ::testing::Test;

TEST(ProfileSerializeDeathTest, WrongProgramDies)
{
    program::Program prog = littleProgram();
    profile::Profile p(prog);
    p.addBlock(0, 5);
    std::vector<std::uint8_t> bytes;
    profile::appendProfile(p, bytes);

    program::Program other("other");
    {
        program::ProcedureBuilder b("solo");
        b.addBlock(1, program::Terminator::Return);
        other.addProcedure(b.build());
    }
    ByteReader r(bytes.data(), bytes.size());
    EXPECT_DEATH(profile::readProfile(other, r),
                 "does not match program");
}

/** Tiny-but-real workload parameters so corpus tests stay fast. */
sim::CorpusParams
tinyParams()
{
    sim::CorpusParams p;
    p.config.num_cpus = 2;
    p.config.processes_per_cpu = 2;
    p.config.tpcb.branches = 2;
    p.config.tpcb.tellers_per_branch = 2;
    p.config.tpcb.accounts_per_branch = 50;
    p.warmup_txns = 2;
    p.profile_txns = 6;
    p.trace_txns = 6;
    return p;
}

/** One shared generation + save, reused across the corpus tests. The
 *  directory is per process: ctest runs each case in its own process,
 *  and siblings running in parallel must not read a file another one
 *  is rewriting. Only the process that made it removes it: a death
 *  test's forked child exits through the same destructor while its
 *  parent still needs the files. */
struct CorpusFixtureState
{
    sim::CorpusParams params = tinyParams();
    sim::GeneratedWorkload gen;
    std::string dir;
    std::string path;
    pid_t owner = ::getpid();

    CorpusFixtureState()
    {
        gen = sim::generateWorkload(params, nullptr);
        dir = ::testing::TempDir() + "spikesim_corpus_test." +
              std::to_string(owner);
        std::filesystem::create_directories(dir);
        path = dir + "/" + sim::corpusFileName(params);
        sim::saveCorpus(params, *gen.profiles, gen.buf, path);
    }

    ~CorpusFixtureState()
    {
        if (::getpid() != owner)
            return;
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

CorpusFixtureState&
corpusFixture()
{
    static CorpusFixtureState s;
    return s;
}

TEST(Corpus, SaveLoadRoundTripIsBitIdentical)
{
    CorpusFixtureState& f = corpusFixture();
    sim::System system(f.params.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    ASSERT_TRUE(
        sim::loadCorpus(f.path, f.params, system, profiles, buf));

    ASSERT_EQ(buf.size(), f.gen.buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
        const TraceEvent& a = f.gen.buf.events()[i];
        const TraceEvent& b = buf.events()[i];
        ASSERT_EQ(a.block, b.block);
        ASSERT_EQ(a.process, b.process);
        ASSERT_EQ(a.cpu, b.cpu);
        ASSERT_EQ(a.image, b.image);
    }
    for (std::size_t img = 0; img < trace::kNumImages; ++img)
        EXPECT_EQ(buf.imageEvents(static_cast<ImageId>(img)),
                  f.gen.buf.imageEvents(static_cast<ImageId>(img)));

    std::vector<std::uint8_t> loaded_bytes, fresh_bytes;
    profile::appendProfile(profiles->app, loaded_bytes);
    profile::appendProfile(profiles->kernel, loaded_bytes);
    profile::appendProfile(f.gen.profiles->app, fresh_bytes);
    profile::appendProfile(f.gen.profiles->kernel, fresh_bytes);
    EXPECT_EQ(loaded_bytes, fresh_bytes);
}

TEST(Corpus, VerifyAgainstFreshPasses)
{
    CorpusFixtureState& f = corpusFixture();
    sim::System system(f.params.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    ASSERT_TRUE(
        sim::loadCorpus(f.path, f.params, system, profiles, buf));
    // fatal()s (and fails the test) on any divergence.
    sim::verifyCorpusAgainstFresh(f.params, *profiles, buf, nullptr);
}

TEST(Corpus, MissingFileIsAMissNotAnError)
{
    CorpusFixtureState& f = corpusFixture();
    sim::System system(f.params.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    EXPECT_FALSE(sim::loadCorpus(f.dir + "/no_such_file.spkc", f.params,
                                 system, profiles, buf));
}

TEST(Corpus, FingerprintSeparatesWorkloads)
{
    sim::CorpusParams a = tinyParams();
    sim::CorpusParams b = tinyParams();
    EXPECT_EQ(sim::corpusFingerprint(a), sim::corpusFingerprint(b));

    b.trace_txns += 1;
    EXPECT_NE(sim::corpusFingerprint(a), sim::corpusFingerprint(b));
    EXPECT_NE(sim::corpusFileName(a), sim::corpusFileName(b));

    b = tinyParams();
    b.config.workload_seed ^= 1;
    EXPECT_NE(sim::corpusFingerprint(a), sim::corpusFingerprint(b));

    b = tinyParams();
    b.config.tpcb.accounts_per_branch += 1;
    EXPECT_NE(sim::corpusFingerprint(a), sim::corpusFingerprint(b));
}

TEST(Corpus, MismatchedFingerprintIsAMiss)
{
    CorpusFixtureState& f = corpusFixture();
    sim::CorpusParams other = f.params;
    other.trace_txns += 1;
    sim::System system(other.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    // Same (valid) file, different parameters: miss, not corruption.
    EXPECT_FALSE(
        sim::loadCorpus(f.path, other, system, profiles, buf));
}

std::vector<char>
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using CorpusDeathTest = ::testing::Test;

TEST(CorpusDeathTest, TruncatedFileDiesCleanly)
{
    CorpusFixtureState& f = corpusFixture();
    std::vector<char> bytes = slurp(f.path);
    ASSERT_GT(bytes.size(), sim::kCorpusHeaderBytes);

    const std::string cut_header = f.dir + "/cut_header.spkc";
    spit(cut_header, std::vector<char>(bytes.begin(), bytes.begin() + 20));
    const std::string cut_payload = f.dir + "/cut_payload.spkc";
    spit(cut_payload,
         std::vector<char>(bytes.begin(), bytes.end() - 25));

    sim::System system(f.params.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    EXPECT_DEATH(sim::loadCorpus(cut_header, f.params, system, profiles,
                                 buf),
                 "truncated");
    EXPECT_DEATH(sim::loadCorpus(cut_payload, f.params, system, profiles,
                                 buf),
                 "truncated");
}

TEST(CorpusDeathTest, FlippedPayloadByteDiesOnChecksum)
{
    CorpusFixtureState& f = corpusFixture();
    std::vector<char> bytes = slurp(f.path);
    bytes[sim::kCorpusHeaderBytes + bytes.size() / 2] ^= 0x40;
    const std::string path = f.dir + "/bitrot.spkc";
    spit(path, bytes);

    sim::System system(f.params.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    EXPECT_DEATH(
        sim::loadCorpus(path, f.params, system, profiles, buf),
        "checksum mismatch");
}

TEST(CorpusDeathTest, VersionAndMagicMismatchDieCleanly)
{
    CorpusFixtureState& f = corpusFixture();
    std::vector<char> bytes = slurp(f.path);

    std::vector<char> wrong_version = bytes;
    wrong_version[8] = 99; // version field, little-endian low byte
    const std::string vpath = f.dir + "/wrong_version.spkc";
    spit(vpath, wrong_version);

    std::vector<char> wrong_magic = bytes;
    wrong_magic[0] = 'X';
    const std::string mpath = f.dir + "/wrong_magic.spkc";
    spit(mpath, wrong_magic);

    sim::System system(f.params.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    EXPECT_DEATH(
        sim::loadCorpus(vpath, f.params, system, profiles, buf),
        "unsupported corpus version");
    EXPECT_DEATH(
        sim::loadCorpus(mpath, f.params, system, profiles, buf),
        "not a spikesim corpus");
}

TEST(System, MeasuresEventRateAndPreReservesTraceBuffers)
{
    sim::CorpusParams p = tinyParams();
    sim::System system(p.config);
    system.setup();
    EXPECT_EQ(system.estimatedEventsPerTxn(), 0u);
    system.warmup(4);
    const std::uint64_t rate = system.estimatedEventsPerTxn();
    EXPECT_GT(rate, 0u);

    TraceBuffer buf;
    const std::uint64_t estimate = 4 * rate;
    system.run(4, buf);
    EXPECT_GT(buf.size(), 0u);
    // run() must have pre-reserved at least its estimate (plus slack).
    EXPECT_GE(buf.events().capacity(), estimate + estimate / 16 + rate);
}

} // namespace
} // namespace spikesim
