#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "core/pipeline.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/itlb.hh"
#include "serve/arrival.hh"
#include "serve/queueing.hh"
#include "serve/service.hh"
#include "sim/replay.hh"
#include "sim/system.hh"
#include "sim/timing.hh"
#include "support/threadpool.hh"

// The open-loop serving subsystem: arrival generation, the bounded
// FIFO queueing model, and the per-transaction service-time walk —
// including the differential check that the solo service model replays
// the hierarchy exactly like Replayer::hierarchy.

namespace spikesim {
namespace {

serve::ArrivalConfig
smallArrivals()
{
    serve::ArrivalConfig c;
    c.sessions = 20;
    c.rate = 1e-3; // ~1000 arrivals over the horizon
    c.horizon_cycles = 1'000'000;
    c.seed = 42;
    return c;
}

TEST(Arrival, DeterministicSortedAndBounded)
{
    serve::ArrivalConfig c = smallArrivals();
    std::vector<serve::Arrival> a = serve::generateArrivals(c);
    std::vector<serve::Arrival> b = serve::generateArrivals(c);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].session, b[i].session);
        EXPECT_LT(a[i].time, c.horizon_cycles);
        EXPECT_LT(a[i].session, c.sessions);
        if (i > 0)
            EXPECT_GE(a[i].time, a[i - 1].time);
    }
    // Roughly rate * horizon arrivals (Poisson, generous tolerance).
    EXPECT_GT(a.size(), 700u);
    EXPECT_LT(a.size(), 1300u);
}

TEST(Arrival, SeedChangesTheStream)
{
    serve::ArrivalConfig c = smallArrivals();
    std::vector<serve::Arrival> a = serve::generateArrivals(c);
    c.seed = 43;
    std::vector<serve::Arrival> b = serve::generateArrivals(c);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].time != b[i].time;
    EXPECT_TRUE(differs);
}

TEST(Arrival, BurstyMatchesLongRunRate)
{
    serve::ArrivalConfig c = smallArrivals();
    c.horizon_cycles = 10'000'000; // long horizon to average bursts out
    std::vector<serve::Arrival> poisson = serve::generateArrivals(c);
    c.kind = serve::ArrivalKind::Bursty;
    std::vector<serve::Arrival> bursty = serve::generateArrivals(c);
    ASSERT_FALSE(bursty.empty());
    // Same configured long-run rate, within 15%.
    const double ratio = static_cast<double>(bursty.size()) /
                         static_cast<double>(poisson.size());
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.15);
}

TEST(Arrivals, RadixMergeMatchesStableSortOracle)
{
    // The merge must equal a stable sort of the session-major stream
    // by (time, session): across both processes, several seeds and
    // session counts, time ranges needing one to three 16-bit digit
    // passes, and a dense rate that forces equal times across
    // sessions.
    struct Shape
    {
        double rate;
        std::uint64_t horizon;
    };
    const Shape shapes[] = {
        {1e-3, 1'000'000},              // two digit passes
        {1e-9, 1'000'000'000'000ULL},  // three digit passes
        {4.0, 2'000},                   // one pass, many ties
    };
    std::size_t ties = 0;
    for (serve::ArrivalKind kind :
         {serve::ArrivalKind::Poisson, serve::ArrivalKind::Bursty}) {
        for (std::uint64_t seed : {1u, 7u, 99u}) {
            for (std::uint32_t sessions : {1u, 13u, 200u}) {
                for (const Shape& shape : shapes) {
                    serve::ArrivalConfig c;
                    c.kind = kind;
                    c.seed = seed;
                    c.sessions = sessions;
                    c.rate = shape.rate;
                    c.horizon_cycles = shape.horizon;
                    c.mean_on_cycles =
                        static_cast<double>(shape.horizon) / 20.0;
                    std::vector<serve::Arrival> oracle =
                        serve::sessionArrivals(c);
                    std::stable_sort(
                        oracle.begin(), oracle.end(),
                        [](const serve::Arrival& a,
                           const serve::Arrival& b) {
                            if (a.time != b.time)
                                return a.time < b.time;
                            return a.session < b.session;
                        });
                    const std::vector<serve::Arrival> got =
                        serve::generateArrivals(c);
                    ASSERT_EQ(got.size(), oracle.size());
                    for (std::size_t i = 0; i < got.size(); ++i) {
                        ASSERT_EQ(got[i].time, oracle[i].time) << i;
                        ASSERT_EQ(got[i].session, oracle[i].session)
                            << i;
                        if (i > 0 && got[i].time == got[i - 1].time &&
                            got[i].session != got[i - 1].session)
                            ++ties;
                    }
                }
            }
        }
    }
    EXPECT_GT(ties, 0u);
}

TEST(Arrival, ConfigCheckCatchesNonsense)
{
    serve::ArrivalConfig c = smallArrivals();
    EXPECT_EQ(c.check(), "");
    c.sessions = 0;
    EXPECT_NE(c.check(), "");
    c = smallArrivals();
    c.rate = 0.0;
    EXPECT_NE(c.check(), "");
    c = smallArrivals();
    c.horizon_cycles = 0;
    EXPECT_NE(c.check(), "");
    c = smallArrivals();
    c.kind = serve::ArrivalKind::Bursty;
    c.on_fraction = 0.0;
    EXPECT_NE(c.check(), "");
}

TEST(Queueing, PercentileSortedNearestRank)
{
    const std::vector<std::uint64_t> s = {10, 20, 30, 40};
    EXPECT_EQ(serve::percentileSorted(s, 0.0), 10u);
    EXPECT_EQ(serve::percentileSorted(s, 0.5), 20u);
    EXPECT_EQ(serve::percentileSorted(s, 0.75), 30u);
    EXPECT_EQ(serve::percentileSorted(s, 1.0), 40u);
    EXPECT_EQ(serve::percentileSorted({}, 0.5), 0u);
}

TEST(Queueing, FifoSingleServerMath)
{
    // One shard, one service value: the queue is pure FIFO arithmetic.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {10, 0}, {20, 0}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 1;
    qc.queue_bound = 8;
    qc.keep_latencies = true;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.offered, 3u);
    EXPECT_EQ(r.completed, 3u);
    EXPECT_EQ(r.dropped, 0u);
    // Completions at 100, 200, 300 -> latencies 100, 190, 280.
    ASSERT_EQ(r.latencies_sorted.size(), 3u);
    EXPECT_EQ(r.latencies_sorted[0], 100u);
    EXPECT_EQ(r.latencies_sorted[1], 190u);
    EXPECT_EQ(r.latencies_sorted[2], 280u);
    EXPECT_EQ(r.makespan_cycles, 300u);
    EXPECT_EQ(r.max_latency, 280u);
    // Server busy the whole makespan.
    EXPECT_DOUBLE_EQ(r.utilization, 1.0);
    // Depths seen: 0, 1, 2.
    EXPECT_EQ(r.depth_hist[0], 1u);
    EXPECT_EQ(r.depth_hist[1], 1u);
    EXPECT_EQ(r.depth_hist[2], 1u);
}

TEST(Queueing, BoundedAdmissionDrops)
{
    // bound 1 = server only, no waiting room: back-to-back arrivals
    // during service are dropped.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {1, 0}, {2, 0}, {150, 0}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 1;
    qc.queue_bound = 1;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.offered, 4u);
    EXPECT_EQ(r.completed, 2u); // t=0 and t=150 (first done at 100)
    EXPECT_EQ(r.dropped, 2u);
    EXPECT_EQ(r.shards[0].dropped, 2u);
}

TEST(Queueing, SessionsPinToShards)
{
    // Two sessions on two shards never queue behind each other.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {0, 1}, {10, 0}, {10, 1}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 2;
    qc.queue_bound = 8;
    qc.keep_latencies = true;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.completed, 4u);
    ASSERT_EQ(r.shards.size(), 2u);
    EXPECT_EQ(r.shards[0].arrivals, 2u);
    EXPECT_EQ(r.shards[1].arrivals, 2u);
    // Each shard: latencies 100 and 190 — identical streams.
    EXPECT_EQ(r.latencies_sorted[0], 100u);
    EXPECT_EQ(r.latencies_sorted[1], 100u);
    EXPECT_EQ(r.latencies_sorted[2], 190u);
    EXPECT_EQ(r.latencies_sorted[3], 190u);
}

TEST(Queueing, PoolWidthDoesNotChangeResults)
{
    serve::ArrivalConfig ac = smallArrivals();
    const std::vector<serve::Arrival> arrivals =
        serve::generateArrivals(ac);
    std::vector<std::uint64_t> service(64);
    for (std::size_t i = 0; i < service.size(); ++i)
        service[i] = 500 + 37 * i;
    serve::QueueConfig qc;
    qc.shards = 4;
    qc.queue_bound = 16;
    qc.seed = 9;
    qc.keep_latencies = true;
    qc.window_cycles = ac.horizon_cycles / 16;
    serve::ServingResult serial = serve::simulateOpenLoop(
        arrivals, service, ac.horizon_cycles, qc, nullptr);
    support::ThreadPool pool(3);
    serve::ServingResult threaded = serve::simulateOpenLoop(
        arrivals, service, ac.horizon_cycles, qc, &pool);
    EXPECT_EQ(serial.completed, threaded.completed);
    EXPECT_EQ(serial.dropped, threaded.dropped);
    EXPECT_EQ(serial.p50, threaded.p50);
    EXPECT_EQ(serial.p99, threaded.p99);
    EXPECT_EQ(serial.p999, threaded.p999);
    EXPECT_EQ(serial.makespan_cycles, threaded.makespan_cycles);
    EXPECT_EQ(serial.latencies_sorted, threaded.latencies_sorted);
    EXPECT_EQ(serial.depth_hist, threaded.depth_hist);
    // The merged sketch and the flight recorder windows are integer
    // bucket counts merged in shard order: byte-identical too.
    EXPECT_EQ(serial.latency_sketch.buckets(),
              threaded.latency_sketch.buckets());
    ASSERT_EQ(serial.windows.size(), threaded.windows.size());
    for (std::size_t w = 0; w < serial.windows.size(); ++w) {
        EXPECT_EQ(serial.windows[w].arrivals,
                  threaded.windows[w].arrivals);
        EXPECT_EQ(serial.windows[w].completed,
                  threaded.windows[w].completed);
        EXPECT_EQ(serial.windows[w].dropped,
                  threaded.windows[w].dropped);
        EXPECT_EQ(serial.windows[w].depth_max,
                  threaded.windows[w].depth_max);
        EXPECT_EQ(serial.windows[w].latency.buckets(),
                  threaded.windows[w].latency.buckets());
    }
}

TEST(Queueing, SketchPercentilesTrackTheSortOracle)
{
    // With keep_latencies on, the exact sorted path and the sketch run
    // side by side: every sketch percentile must sit within the
    // sketch's relative-error bound above the nearest-rank oracle.
    serve::ArrivalConfig ac = smallArrivals();
    const std::vector<serve::Arrival> arrivals =
        serve::generateArrivals(ac);
    std::vector<std::uint64_t> service(64);
    for (std::size_t i = 0; i < service.size(); ++i)
        service[i] = 300 + 91 * i * i;
    serve::QueueConfig qc;
    qc.shards = 4;
    qc.queue_bound = 16;
    qc.seed = 5;
    qc.keep_latencies = true;
    serve::ServingResult r = serve::simulateOpenLoop(
        arrivals, service, ac.horizon_cycles, qc);
    ASSERT_FALSE(r.latencies_sorted.empty());
    EXPECT_EQ(r.latency_sketch.count(), r.latencies_sorted.size());
    const auto check = [&](std::uint64_t sketch_v, double q) {
        const std::uint64_t exact =
            serve::percentileSorted(r.latencies_sorted, q);
        EXPECT_GE(sketch_v, exact) << "q=" << q;
        EXPECT_LE(sketch_v,
                  exact + exact / 128 + 1)
            << "q=" << q;
    };
    check(r.p50, 0.50);
    check(r.p90, 0.90);
    check(r.p99, 0.99);
    check(r.p999, 0.999);
    // Extrema and mean are exact, not sketched.
    EXPECT_EQ(r.max_latency, r.latencies_sorted.back());
    std::uint64_t total = 0;
    for (std::uint64_t l : r.latencies_sorted)
        total += l;
    EXPECT_DOUBLE_EQ(
        r.mean_latency,
        static_cast<double>(total) /
            static_cast<double>(r.latencies_sorted.size()));
}

TEST(Queueing, WindowAccountingBinsByTime)
{
    // Window width 100: arrival at t binned by t/100, completion by
    // done/100. Single shard, service 100 cycles.
    const std::vector<serve::Arrival> arrivals = {
        {0, 0}, {10, 0}, {250, 0}};
    const std::vector<std::uint64_t> service = {100};
    serve::QueueConfig qc;
    qc.shards = 1;
    qc.queue_bound = 8;
    qc.window_cycles = 100;
    serve::ServingResult r =
        serve::simulateOpenLoop(arrivals, service, 1'000, qc);
    EXPECT_EQ(r.window_cycles, 100u);
    // Completions at 100, 200, 350 -> windows 1, 2, 3.
    ASSERT_EQ(r.windows.size(), 4u);
    EXPECT_EQ(r.windows[0].arrivals, 2u); // t=0, t=10
    EXPECT_EQ(r.windows[2].arrivals, 1u); // t=250
    EXPECT_EQ(r.windows[0].completed, 0u);
    EXPECT_EQ(r.windows[1].completed, 1u); // done=100 (window 1)
    EXPECT_EQ(r.windows[2].completed, 1u); // done=200 (window 2)
    EXPECT_EQ(r.windows[3].completed, 1u); // done=350
    EXPECT_EQ(r.windows[0].depth_max, 1u); // t=10 saw depth 1
    std::uint64_t arrivals_total = 0;
    std::uint64_t completed_total = 0;
    for (const serve::WindowStats& w : r.windows) {
        arrivals_total += w.arrivals;
        completed_total += w.completed;
        EXPECT_EQ(w.latency.count(), w.completed);
    }
    EXPECT_EQ(arrivals_total, r.offered);
    EXPECT_EQ(completed_total, r.completed);
}

sim::SystemConfig
smallSystem()
{
    sim::SystemConfig c;
    c.num_cpus = 2;
    c.processes_per_cpu = 2;
    c.tpcb.branches = 5;
    c.tpcb.accounts_per_branch = 200;
    c.tpcb.buffer_frames = 128;
    c.quantum_instrs = 20'000;
    return c;
}

TEST(ServiceModel, SegmentsSplitAtProcessChanges)
{
    trace::TraceBuffer buf;
    trace::ExecContext ctx;
    ctx.process = 0;
    buf.onBlock(ctx, trace::ImageId::App, 0);
    buf.onBlock(ctx, trace::ImageId::App, 1);
    ctx.process = 1;
    buf.onBlock(ctx, trace::ImageId::App, 2);
    ctx.process = 0;
    buf.onBlock(ctx, trace::ImageId::App, 3);
    auto segs = serve::ServiceModel::segments(buf);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0], (std::pair<std::size_t, std::size_t>{0, 2}));
    EXPECT_EQ(segs[1], (std::pair<std::size_t, std::size_t>{2, 3}));
    EXPECT_EQ(segs[2], (std::pair<std::size_t, std::size_t>{3, 4}));
}

TEST(ServiceModel, SoloMatchesReplayerHierarchy)
{
    sim::System sys(smallSystem());
    sys.setup();
    sys.warmup(10);
    trace::TraceBuffer buf;
    sys.run(40, buf);

    core::Layout app = core::baselineLayout(
        sys.appProg(), sys.config().app_text_base);
    core::Layout kern = core::baselineLayout(
        sys.kernelProg(), sys.config().kernel_text_base);
    const sim::PlatformParams platform =
        sim::PlatformParams::sim21364();

    sim::Replayer rep(buf, app, &kern);
    sim::HierarchyReplayResult oracle =
        rep.hierarchy(platform.hierarchy, /*include_data=*/true);

    serve::ServiceModelConfig smc;
    smc.platform = platform;
    serve::ServiceModel model(buf, app, &kern, smc);
    const serve::ServiceStats& st = model.stats();

    // Same walk: identical instruction, fetch-break, and miss counts.
    EXPECT_EQ(st.instrs, oracle.instrs);
    EXPECT_EQ(st.fetch_breaks, oracle.fetch_breaks);
    EXPECT_EQ(st.mem.l1i.misses, oracle.total.l1i.misses);
    EXPECT_EQ(st.mem.l1d.misses, oracle.total.l1d.misses);
    EXPECT_EQ(st.mem.l2i.misses, oracle.total.l2i.misses);
    EXPECT_EQ(st.mem.l2d.misses, oracle.total.l2d.misses);
    EXPECT_EQ(st.mem.itlb_misses, oracle.total.itlb_misses);

    // Per-request cycles sum to the whole-trace non-idle cycles (the
    // sim21364 weights are integers, so no rounding drift).
    const std::uint64_t whole = sim::nonIdleCycles(
        oracle.total, oracle.instrs, platform, oracle.fetch_breaks);
    const auto& per_req = model.requestCycles();
    const std::uint64_t summed = std::accumulate(
        per_req.begin(), per_req.end(), std::uint64_t{0});
    EXPECT_EQ(summed, whole);
    EXPECT_EQ(st.requests, per_req.size());
    EXPECT_EQ(st.total_cycles, summed);
    EXPECT_GT(st.requests, 10u);
}

/** Output of the reference service-time walk. */
struct ReferenceService
{
    std::vector<std::uint64_t> cycles;
    serve::ServiceStats stats;
};

/**
 * Reference service-time walk over the mem:: simulator objects: private
 * L1 I/D per (tenant, cpu), shared L2 + iTLB per cpu, tenant salt at
 * bit 44, and per-request cycles summed in access order. The
 * ServiceModel must reproduce it byte for byte.
 */
ReferenceService
referenceService(const trace::TraceBuffer& trace, const core::Layout& app,
                 const core::Layout* kernel,
                 const serve::ServiceModelConfig& config)
{
    const sim::PlatformParams& p = config.platform;
    const mem::HierarchyConfig& h = p.hierarchy;
    const std::size_t ncpus = static_cast<std::size_t>(trace.numCpus());
    const std::size_t tenants = static_cast<std::size_t>(config.tenants);
    const auto segs = serve::ServiceModel::segments(trace);
    const auto events = trace.events();

    std::vector<mem::SetAssocCache> l1i(tenants * ncpus,
                                        mem::SetAssocCache(h.l1i));
    std::vector<mem::SetAssocCache> l1d(tenants * ncpus,
                                        mem::SetAssocCache(h.l1d));
    std::vector<mem::SetAssocCache> l2(ncpus, mem::SetAssocCache(h.l2));
    std::vector<mem::ITlb> itlb;
    for (std::size_t i = 0; i < ncpus; ++i)
        itlb.emplace_back(h.itlb_entries, h.page_bytes);
    std::vector<std::uint64_t> expected(tenants * ncpus, ~0ULL);
    const std::uint64_t iline = h.l1i.line_bytes;
    const std::uint64_t dline = h.l1d.line_bytes;

    ReferenceService out;
    serve::ServiceStats& st = out.stats;
    for (std::size_t g = 0; g < segs.size() * tenants; ++g) {
        const std::size_t t = g % tenants;
        const auto [seg_begin, seg_end] = segs[g / tenants];
        const std::uint64_t salt = static_cast<std::uint64_t>(t) << 44;
        double c = 0.0;
        for (std::size_t i = seg_begin; i < seg_end; ++i) {
            const trace::TraceEvent& e = events[i];
            const std::size_t tc = t * ncpus + e.cpu;
            if (e.image == trace::ImageId::Data) {
                if (!config.include_data)
                    continue;
                const std::uint64_t line =
                    (static_cast<std::uint64_t>(e.block) << 2) &
                    ~(dline - 1);
                if (l1d[tc].access(line, mem::Owner::Data).hit) {
                    st.mem.l1d.record(false);
                    continue;
                }
                st.mem.l1d.record(true);
                c += p.l2_hit_cycles;
                const bool miss =
                    !l2[e.cpu]
                         .access(mem::pseudoPhysical(line + salt,
                                                     h.page_bytes),
                                 mem::Owner::Data)
                         .hit;
                st.mem.l2d.record(miss);
                if (miss)
                    c += p.mem_cycles;
                continue;
            }
            const core::Layout& layout =
                e.image == trace::ImageId::App ? app : *kernel;
            const std::uint64_t bytes = layout.blockBytes(e.block);
            if (bytes == 0)
                continue;
            const std::uint64_t addr = layout.blockAddr(e.block);
            const std::uint64_t end = addr + bytes;
            const std::uint64_t instrs = layout.blockSize(e.block);
            st.instrs += instrs;
            c += static_cast<double>(instrs) * p.cpi_base;
            if (addr != expected[tc]) {
                ++st.fetch_breaks;
                c += p.fetch_break_cycles;
            }
            expected[tc] = end;
            const mem::Owner owner = e.image == trace::ImageId::App
                                         ? mem::Owner::App
                                         : mem::Owner::Kernel;
            for (std::uint64_t a = addr & ~(iline - 1); a < end;
                 a += iline) {
                if (!itlb[e.cpu].access(a + salt)) {
                    ++st.mem.itlb_misses;
                    c += p.itlb_cycles;
                }
                if (l1i[tc].access(a, owner).hit) {
                    st.mem.l1i.record(false);
                    continue;
                }
                st.mem.l1i.record(true);
                c += p.l2_hit_cycles;
                const bool miss =
                    !l2[e.cpu]
                         .access(mem::pseudoPhysical(a + salt,
                                                     h.page_bytes),
                                 owner)
                         .hit;
                st.mem.l2i.record(miss);
                if (miss)
                    c += p.mem_cycles;
            }
        }
        out.cycles.push_back(static_cast<std::uint64_t>(c));
    }

    st.requests = out.cycles.size();
    std::vector<std::uint64_t> sorted = out.cycles;
    std::sort(sorted.begin(), sorted.end());
    if (!sorted.empty()) {
        st.min_cycles = sorted.front();
        st.max_cycles = sorted.back();
        for (std::uint64_t v : sorted)
            st.total_cycles += v;
        st.mean_cycles = static_cast<double>(st.total_cycles) /
                         static_cast<double>(sorted.size());
        st.p50_cycles = serve::percentileSorted(sorted, 0.50);
        st.p99_cycles = serve::percentileSorted(sorted, 0.99);
    }
    return out;
}

void
expectHierarchyStatsEq(const mem::HierarchyStats& a,
                       const mem::HierarchyStats& b, const std::string& what)
{
    EXPECT_EQ(a.l1i.accesses, b.l1i.accesses) << what;
    EXPECT_EQ(a.l1i.misses, b.l1i.misses) << what;
    EXPECT_EQ(a.l1d.accesses, b.l1d.accesses) << what;
    EXPECT_EQ(a.l1d.misses, b.l1d.misses) << what;
    EXPECT_EQ(a.l2i.accesses, b.l2i.accesses) << what;
    EXPECT_EQ(a.l2i.misses, b.l2i.misses) << what;
    EXPECT_EQ(a.l2d.accesses, b.l2d.accesses) << what;
    EXPECT_EQ(a.l2d.misses, b.l2d.misses) << what;
    EXPECT_EQ(a.itlb_misses, b.itlb_misses) << what;
    EXPECT_EQ(a.comm_misses, b.comm_misses) << what;
}

TEST(ServiceModel, MatchesReferenceWalkByteForByte)
{
    sim::System sys(smallSystem());
    sys.setup();
    sys.warmup(10);
    trace::TraceBuffer buf;
    sys.run(15, buf);

    core::Layout app = core::baselineLayout(
        sys.appProg(), sys.config().app_text_base);
    core::Layout kern = core::baselineLayout(
        sys.kernelProg(), sys.config().kernel_text_base);

    // Non-integer weights pin the per-request double accumulation order.
    sim::PlatformParams fractional = sim::PlatformParams::sim21364();
    fractional.name = "fractional";
    fractional.cpi_base = 1.25;
    fractional.l2_hit_cycles = 12.3;
    fractional.mem_cycles = 80.7;
    fractional.itlb_cycles = 30.1;
    fractional.fetch_break_cycles = 2.5;
    const sim::PlatformParams platforms[] = {
        sim::PlatformParams::sim21364(),
        sim::PlatformParams::alpha21164(), // direct-mapped 32B L1s
        fractional};

    for (const sim::PlatformParams& platform : platforms) {
        for (int tenants : {1, 2, 3}) {
            for (bool data : {true, false}) {
                serve::ServiceModelConfig smc;
                smc.platform = platform;
                smc.tenants = tenants;
                smc.include_data = data;
                const std::string what =
                    platform.name + " tenants " + std::to_string(tenants) +
                    (data ? " +data" : "");
                const ReferenceService ref =
                    referenceService(buf, app, &kern, smc);
                const serve::ServiceModel model(buf, app, &kern, smc);
                EXPECT_EQ(model.requestCycles(), ref.cycles) << what;
                const serve::ServiceStats& st = model.stats();
                EXPECT_EQ(st.requests, ref.stats.requests) << what;
                EXPECT_EQ(st.total_cycles, ref.stats.total_cycles) << what;
                EXPECT_EQ(st.min_cycles, ref.stats.min_cycles) << what;
                EXPECT_EQ(st.max_cycles, ref.stats.max_cycles) << what;
                EXPECT_EQ(st.mean_cycles, ref.stats.mean_cycles) << what;
                EXPECT_EQ(st.p50_cycles, ref.stats.p50_cycles) << what;
                EXPECT_EQ(st.p99_cycles, ref.stats.p99_cycles) << what;
                EXPECT_EQ(st.instrs, ref.stats.instrs) << what;
                EXPECT_EQ(st.fetch_breaks, ref.stats.fetch_breaks) << what;
                expectHierarchyStatsEq(st.mem, ref.stats.mem, what);
            }
        }
    }
}

TEST(ServiceModel, TenantsShareL2AndInflateService)
{
    sim::System sys(smallSystem());
    sys.setup();
    sys.warmup(10);
    trace::TraceBuffer buf;
    sys.run(30, buf);

    core::Layout app = core::baselineLayout(
        sys.appProg(), sys.config().app_text_base);
    core::Layout kern = core::baselineLayout(
        sys.kernelProg(), sys.config().kernel_text_base);

    serve::ServiceModelConfig solo;
    serve::ServiceModel one(buf, app, &kern, solo);
    serve::ServiceModelConfig shared = solo;
    shared.tenants = 2;
    serve::ServiceModel two(buf, app, &kern, shared);

    // Twice the requests (each tenant runs the whole trace)...
    EXPECT_EQ(two.stats().requests, 2 * one.stats().requests);
    EXPECT_EQ(two.stats().instrs, 2 * one.stats().instrs);
    // ...and LRU interference in the shared L2/iTLB can only add
    // misses, so total cycles are at least 2x solo.
    EXPECT_GE(two.stats().total_cycles, 2 * one.stats().total_cycles);
    EXPECT_GE(two.stats().mem.itlb_misses,
              2 * one.stats().mem.itlb_misses);
}

} // namespace
} // namespace spikesim
