/**
 * @file
 * TraceBuffer's per-(CPU, image) event counts, which size the block
 * stream's partitions without a scan of the trace
 * (sim::buildBlockStream), must equal a scan of events() after every
 * way a trace is built: onBlock, onData, append, appendRun and clear,
 * a TraceReader::readAll decode, and a corpus load.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "sim/corpus.hh"
#include "support/rng.hh"
#include "support/varint.hh"
#include "trace/serialize.hh"

namespace spikesim {
namespace {

using trace::ExecContext;
using trace::ImageId;
using trace::TraceBuffer;
using trace::TraceEvent;

/** cpuEvents, imageEvents and numCpus against a scan of events(). */
void
expectCountsMatchScan(const TraceBuffer& buf, const std::string& what)
{
    SCOPED_TRACE(what);
    std::vector<std::array<std::uint64_t, trace::kNumImages>> scan(256);
    int cpus = 1;
    for (const TraceEvent& e : buf.events()) {
        ++scan[e.cpu][static_cast<std::size_t>(e.image)];
        cpus = std::max(cpus, e.cpu + 1);
    }
    EXPECT_EQ(buf.numCpus(), cpus);
    for (std::size_t img = 0; img < trace::kNumImages; ++img) {
        const ImageId image = static_cast<ImageId>(img);
        std::uint64_t total = 0;
        for (int c = 0; c < 256; ++c) {
            EXPECT_EQ(buf.cpuEvents(c, image), scan[c][img])
                << "cpu " << c << " image " << img;
            total += scan[c][img];
        }
        EXPECT_EQ(buf.imageEvents(image), total) << "image " << img;
        EXPECT_EQ(buf.cpuEvents(-1, image), 0u);
        EXPECT_EQ(buf.cpuEvents(256, image), 0u);
    }
}

TEST(TraceBufferCounts, MatchScanAfterEveryMutator)
{
    TraceBuffer buf;
    expectCountsMatchScan(buf, "empty");
    support::Pcg32 rng(5);
    for (int i = 0; i < 500; ++i) {
        ExecContext ctx;
        ctx.cpu = static_cast<std::uint8_t>(rng.nextBounded(5));
        ctx.process = static_cast<std::uint16_t>(rng.nextBounded(3));
        if (rng.nextBool(0.3))
            buf.onData(ctx, 4 * rng.nextBounded(1000));
        else
            buf.onBlock(ctx,
                        rng.nextBool(0.5) ? ImageId::App : ImageId::Kernel,
                        rng.nextBounded(300));
    }
    expectCountsMatchScan(buf, "onBlock/onData");

    TraceEvent e;
    e.cpu = 7;
    e.image = ImageId::Kernel;
    buf.append(e);
    e.cpu = 0;
    e.image = ImageId::Data;
    buf.append(e);
    expectCountsMatchScan(buf, "append");

    std::vector<TraceEvent> run(40);
    for (TraceEvent& r : run) {
        r.cpu = 9;
        r.image = ImageId::App;
    }
    buf.appendRun(run.data(), run.size(), ImageId::App, 9);
    buf.appendRun(run.data(), 0, ImageId::Kernel, 200); // empty: no-op
    expectCountsMatchScan(buf, "appendRun");

    buf.clear();
    expectCountsMatchScan(buf, "clear");
    buf.onBlock(ExecContext{}, ImageId::App, 1);
    e.cpu = 3;
    e.image = ImageId::Kernel;
    buf.append(e);
    expectCountsMatchScan(buf, "refill after clear");
}

TEST(TraceBufferCounts, MatchScanAfterReadAll)
{
    TraceBuffer buf;
    support::Pcg32 rng(17);
    TraceEvent e;
    for (int i = 0; i < 5000; ++i) {
        if (i % 37 == 0) {
            e.cpu = static_cast<std::uint8_t>(rng.nextBounded(6));
            e.process = static_cast<std::uint16_t>(rng.nextBounded(8));
            e.image = static_cast<ImageId>(rng.nextBounded(3));
        }
        e.block = rng.nextBounded(4000);
        buf.append(e);
    }
    std::vector<std::uint8_t> bytes;
    trace::TraceWriter w;
    w.addAll(buf);
    w.finish(bytes);

    TraceBuffer out;
    support::ByteReader r(bytes.data(), bytes.size());
    trace::TraceReader reader(r);
    reader.readAll(out);
    ASSERT_EQ(out.size(), buf.size());
    expectCountsMatchScan(out, "readAll");
}

TEST(TraceBufferCounts, MatchScanAfterLoadCorpus)
{
    sim::CorpusParams params;
    params.config.num_cpus = 2;
    params.config.processes_per_cpu = 2;
    params.config.tpcb.branches = 2;
    params.config.tpcb.tellers_per_branch = 2;
    params.config.tpcb.accounts_per_branch = 50;
    params.warmup_txns = 2;
    params.profile_txns = 6;
    params.trace_txns = 6;
    sim::GeneratedWorkload gen = sim::generateWorkload(params, nullptr);
    expectCountsMatchScan(gen.buf, "captured");

    // Per process: ctest may run sibling cases in parallel.
    const std::string dir = ::testing::TempDir() +
                            "spikesim_trace_count_test." +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + sim::corpusFileName(params);
    sim::saveCorpus(params, *gen.profiles, gen.buf, path);

    sim::System system(params.config);
    std::optional<sim::System::Profiles> profiles;
    TraceBuffer buf;
    const bool loaded = sim::loadCorpus(path, params, system, profiles, buf);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ASSERT_TRUE(loaded);
    ASSERT_EQ(buf.size(), gen.buf.size());
    expectCountsMatchScan(buf, "loadCorpus");
}

} // namespace
} // namespace spikesim
