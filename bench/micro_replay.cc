/**
 * @file
 * Headline microbenchmark for the production replay path — the
 * sim/engine.hh entry points over Replayer::resolveSoA: the SoA
 * replay kernels, and the LRU-stack sweep for i-cache and iTLB
 * columns — against its oracle.
 * One multiprocessor trace (4 simulated CPUs) is replayed through
 * every simulator family — i-cache columns with interference
 * attribution, three-C classification, stream buffers, word-granular
 * instrumentation, standalone iTLBs, full hierarchies with the
 * coherence model, sequential-run analysis, and the dynamic
 * instruction count — several ways:
 *
 *   per-config oracle   one scalar Replayer walk per configuration
 *   soa scalar          Replayer::resolveSoA, the production paths, no
 *                       pool
 *   soa pooled          same, sharded across a pool
 *
 * All paths must produce bit-identical results (the process exits
 * non-zero on any divergence, which is what the bench_micro_replay_smoke
 * ctest checks). `--results-out FILE` additionally dumps every
 * replayed counter in a fixed text format; a golden ctest compares
 * that dump byte for byte with the committed one
 * (bench/goldens/micro_replay_results.30.txt).
 *
 * Timed phases, all in BENCH_replay.json:
 *
 *  - the resolve phase: Replayer::resolveSoA of the combined stream.
 *  - per-family columns: the i-cache, three-C, stream-buffer and iTLB
 *    columns, once each.
 *  - the fig04 grid: the paper's 25-configuration direct-mapped
 *    sweep ({32..512}KB x {16..256}B), single-threaded, on the
 *    LRU-stack sweep (sim/sweep.hh) twice: with interference tracking
 *    over the resolved trace (replayICache, bit-compared with 25
 *    per-config oracle walks), and as a plain runSweepJobs job that
 *    builds its own block stream (bit-compared with the first).
 *
 * Usage: micro_replay [profile_txns] [trace_txns] [--results-out FILE]
 */

#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "bench/common.hh"
#include "sim/sweep.hh"
#include "sim/timing.hh"
#include "support/panic.hh"

using namespace spikesim;

namespace {

constexpr int kStreamBuffers = 4;
constexpr int kGridReps = 3; ///< best-of-N for the grid timings

std::vector<mem::CacheConfig>
icacheConfigs()
{
    std::vector<mem::CacheConfig> configs;
    for (std::uint32_t kb : {32, 64, 128, 256, 512})
        configs.push_back({kb * 1024, 128, 4});
    return configs;
}

/** The paper's Figure 4 grid as a sweep spec. */
sim::SweepSpec
fig04Spec()
{
    sim::SweepSpec spec;
    for (std::uint32_t kb : {32, 64, 128, 256, 512})
        spec.size_bytes.push_back(kb * 1024);
    spec.line_bytes = {16, 32, 64, 128, 256};
    return spec;
}

/** The same grid as 25 direct-mapped configurations, size-major. */
std::vector<mem::CacheConfig>
fig04Grid()
{
    std::vector<mem::CacheConfig> configs;
    for (std::uint32_t kb : {32, 64, 128, 256, 512})
        for (std::uint32_t line : {16, 32, 64, 128, 256})
            configs.push_back({kb * 1024, line, 1});
    return configs;
}

std::vector<mem::CacheConfig>
threeCConfigs()
{
    std::vector<mem::CacheConfig> configs;
    for (std::uint32_t kb : {32, 64, 128, 256})
        configs.push_back({kb * 1024, 128, 1});
    return configs;
}

std::vector<mem::CacheConfig>
streamConfigs()
{
    return {{8 * 1024, 32, 1}, {64 * 1024, 32, 2}};
}

std::vector<mem::CacheConfig>
instrConfigs()
{
    return {{64 * 1024, 64, 2}, {64 * 1024, 128, 2}};
}

std::vector<sim::ITlbSpec>
itlbSpecs()
{
    return {{64, 8 * 1024, 64}, {128, 8 * 1024, 64}};
}

std::vector<mem::HierarchyConfig>
hierarchyConfigs()
{
    return {sim::PlatformParams::sim21364().hierarchy,
            sim::PlatformParams::alpha21164().hierarchy};
}

/** Everything one pass over the suite produces, for bit-comparison. */
struct SuiteResults
{
    std::vector<sim::ICacheReplayResult> icache;
    std::vector<mem::ThreeCStats> threec;
    std::vector<mem::StreamBufferStats> sbuf;
    std::vector<sim::WordStats> words;
    std::vector<sim::ITlbReplayResult> itlb;
    std::vector<sim::HierarchyReplayResult> hier;
    metrics::SequenceStats seq;
    std::uint64_t dyn_instrs = 0;
    double resolve_seconds = 0; ///< resolve phase
    double replay_seconds = 0;  ///< simulator walks only
    double seconds = 0;         ///< total
};

/** How runSuite reaches the simulators. */
enum class SuitePath {
    Oracle, ///< one scalar Replayer walk per configuration
    SoA,    ///< Replayer::resolveSoA, then the production paths
};

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

SuiteResults
runSuite(const sim::Replayer& rep, SuitePath path,
         support::ThreadPool* pool)
{
    using clock = std::chrono::steady_clock;
    const auto icfg = icacheConfigs();
    const auto tcfg = threeCConfigs();
    const auto scfg = streamConfigs();
    const auto wcfg = instrConfigs();
    const auto specs = itlbSpecs();
    const auto hcfg = hierarchyConfigs();
    const auto filter = sim::StreamFilter::Combined;
    const auto mode = sim::SimdMode::Auto;

    SuiteResults r;
    const auto t0 = clock::now();
    if (path == SuitePath::Oracle) {
        for (const auto& c : icfg)
            r.icache.push_back(rep.icache(c, filter));
        for (const auto& c : tcfg)
            r.threec.push_back(rep.threeCs(c, filter));
        for (const auto& c : scfg)
            r.sbuf.push_back(
                rep.streamBuffer(c, kStreamBuffers, filter));
        for (const auto& c : wcfg)
            r.words.push_back(rep.instrumented(c, filter));
        for (const auto& s : specs)
            r.itlb.push_back(rep.itlb(s, filter));
        for (const auto& h : hcfg)
            r.hier.push_back(rep.hierarchy(h, true, true));
        r.seq = metrics::sequenceLengths(rep.trace(), rep.app(),
                                         trace::ImageId::App);
        r.dyn_instrs = rep.dynamicInstrs(filter);
        r.replay_seconds = seconds(t0, clock::now());
    } else {
        sim::ResolvedTraceSoA instr = rep.resolveSoA(filter);
        sim::ResolvedTraceSoA with_data = rep.resolveSoA(filter, true);
        sim::ResolvedTraceSoA app_only =
            rep.resolveSoA(sim::StreamFilter::AppOnly);
        const auto t1 = clock::now();
        r.resolve_seconds = seconds(t0, t1);
        r.icache = sim::replayICache(instr, icfg, mode, pool);
        r.threec = sim::replayThreeCs(instr, tcfg, mode, pool);
        r.sbuf = sim::replayStreamBuffer(instr, scfg, kStreamBuffers,
                                         mode, pool);
        r.words = sim::replayInstrumented(instr, wcfg, false, pool);
        r.itlb = sim::replayITlb(instr, specs, mode, pool);
        r.hier = sim::replayHierarchy(with_data, hcfg, true, pool);
        r.seq = sim::replaySequence(app_only, pool);
        r.dyn_instrs = instr.instrs;
        r.replay_seconds = seconds(t1, clock::now());
    }
    r.seconds = seconds(t0, clock::now());
    return r;
}

template <typename H>
bool
sameHist(const H& a, const H& b)
{
    if (a.numBuckets() != b.numBuckets())
        return false;
    for (std::size_t i = 0; i < a.numBuckets(); ++i)
        if (a.bucket(i) != b.bucket(i))
            return false;
    return true;
}

bool
sameDouble(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

bool
sameStats(const mem::HierarchyStats& x, const mem::HierarchyStats& y)
{
    return x.l1i.accesses == y.l1i.accesses &&
           x.l1i.misses == y.l1i.misses &&
           x.l1d.accesses == y.l1d.accesses &&
           x.l1d.misses == y.l1d.misses &&
           x.l2i.accesses == y.l2i.accesses &&
           x.l2i.misses == y.l2i.misses &&
           x.l2d.accesses == y.l2d.accesses &&
           x.l2d.misses == y.l2d.misses &&
           x.itlb_misses == y.itlb_misses &&
           x.comm_misses == y.comm_misses;
}

bool
sameICache(const sim::ICacheReplayResult& x,
           const sim::ICacheReplayResult& y)
{
    if (x.accesses != y.accesses || x.misses != y.misses ||
        x.app_misses != y.app_misses ||
        x.kernel_misses != y.kernel_misses)
        return false;
    for (int m = 0; m < 2; ++m)
        for (int v = 0; v < 3; ++v)
            if (x.interference.counts[m][v] !=
                y.interference.counts[m][v])
                return false;
    return true;
}

bool
sameThreeC(const mem::ThreeCStats& x, const mem::ThreeCStats& y)
{
    return x.accesses() == y.accesses() &&
           x.compulsory == y.compulsory && x.capacity == y.capacity &&
           x.conflict == y.conflict;
}

bool
sameSbuf(const mem::StreamBufferStats& x,
         const mem::StreamBufferStats& y)
{
    return x.accesses() == y.accesses() &&
           x.l1Misses() == y.l1Misses() &&
           x.streamHits() == y.streamHits() &&
           x.demandMisses() == y.demandMisses();
}

bool
sameITlb(const sim::ITlbReplayResult& x, const sim::ITlbReplayResult& y)
{
    return x.accesses == y.accesses && x.misses == y.misses;
}

/** Exit non-zero on the first divergence between two suite runs. */
void
compareSuites(const SuiteResults& a, const SuiteResults& b,
              const char* label)
{
    auto check = [&](bool ok, const char* what) {
        if (ok)
            return;
        std::cerr << "[micro_replay] FAIL: " << what << " differs ("
                  << label << ")\n";
        std::exit(1);
    };

    check(a.icache.size() == b.icache.size(), "icache config count");
    for (std::size_t i = 0; i < a.icache.size(); ++i)
        check(sameICache(a.icache[i], b.icache[i]), "icache counts");

    check(a.threec.size() == b.threec.size(), "threeC config count");
    for (std::size_t i = 0; i < a.threec.size(); ++i)
        check(sameThreeC(a.threec[i], b.threec[i]), "threeC counts");

    check(a.sbuf.size() == b.sbuf.size(), "stream config count");
    for (std::size_t i = 0; i < a.sbuf.size(); ++i)
        check(sameSbuf(a.sbuf[i], b.sbuf[i]), "stream buffer counts");

    check(a.words.size() == b.words.size(), "instr config count");
    for (std::size_t i = 0; i < a.words.size(); ++i) {
        const auto& x = a.words[i];
        const auto& y = b.words[i];
        check(sameHist(x.words_used, y.words_used), "words_used");
        check(sameHist(x.word_reuse, y.word_reuse), "word_reuse");
        check(sameHist(x.lifetimes, y.lifetimes), "lifetimes");
        check(sameDouble(x.unused_word_fraction,
                         y.unused_word_fraction),
              "unused_word_fraction");
        check(x.misses == y.misses, "instrumented misses");
    }

    check(a.itlb.size() == b.itlb.size(), "itlb spec count");
    for (std::size_t i = 0; i < a.itlb.size(); ++i)
        check(sameITlb(a.itlb[i], b.itlb[i]), "itlb counts");

    check(a.hier.size() == b.hier.size(), "hierarchy config count");
    for (std::size_t i = 0; i < a.hier.size(); ++i) {
        const auto& x = a.hier[i];
        const auto& y = b.hier[i];
        check(sameStats(x.total, y.total), "hierarchy totals");
        check(x.per_cpu.size() == y.per_cpu.size(),
              "hierarchy per-cpu count");
        for (std::size_t c = 0; c < x.per_cpu.size(); ++c)
            check(sameStats(x.per_cpu[c], y.per_cpu[c]),
                  "hierarchy per-cpu stats");
        check(x.instrs == y.instrs && x.fetch_breaks == y.fetch_breaks,
              "hierarchy instrs/fetch_breaks");
    }

    check(sameHist(a.seq.lengths, b.seq.lengths), "sequence lengths");
    check(sameDouble(a.seq.mean, b.seq.mean), "sequence mean");
    check(sameDouble(a.seq.mean_block_size, b.seq.mean_block_size),
          "sequence mean_block_size");
    check(a.dyn_instrs == b.dyn_instrs, "dynamic instrs");
}

/**
 * Dump every replayed counter of one suite run in a fixed text format.
 * Counters only — no timings, no host facts — so the file is
 * byte-identical across thread counts and hosts; the golden ctest
 * compares it with bench/goldens/micro_replay_results.30.txt.
 */
void
writeResults(const std::string& path, const SuiteResults& r)
{
    std::ofstream os(path);
    if (!os)
        support::fatal("cannot write --results-out file " + path);
    os << std::setprecision(17);
    auto hist = [&](const char* name, std::size_t i, const auto& h) {
        os << name << '[' << i << "]:";
        for (std::size_t b = 0; b < h.numBuckets(); ++b)
            os << ' ' << h.bucket(b);
        os << '\n';
    };
    for (std::size_t i = 0; i < r.icache.size(); ++i) {
        const auto& x = r.icache[i];
        os << "icache[" << i << "]: " << x.accesses << ' ' << x.misses
           << ' ' << x.app_misses << ' ' << x.kernel_misses;
        for (int m = 0; m < 2; ++m)
            for (int v = 0; v < 3; ++v)
                os << ' ' << x.interference.counts[m][v];
        os << '\n';
    }
    for (std::size_t i = 0; i < r.threec.size(); ++i) {
        const auto& x = r.threec[i];
        os << "threec[" << i << "]: " << x.accesses() << ' '
           << x.compulsory << ' ' << x.capacity << ' ' << x.conflict
           << '\n';
    }
    for (std::size_t i = 0; i < r.sbuf.size(); ++i) {
        const auto& x = r.sbuf[i];
        os << "sbuf[" << i << "]: " << x.accesses() << ' '
           << x.l1Misses() << ' ' << x.streamHits() << ' '
           << x.demandMisses() << '\n';
    }
    for (std::size_t i = 0; i < r.words.size(); ++i) {
        const auto& x = r.words[i];
        hist("words_used", i, x.words_used);
        hist("word_reuse", i, x.word_reuse);
        hist("lifetimes", i, x.lifetimes);
        os << "unused_word_fraction[" << i
           << "]: " << x.unused_word_fraction << '\n'
           << "instr_misses[" << i << "]: " << x.misses << '\n';
    }
    for (std::size_t i = 0; i < r.itlb.size(); ++i)
        os << "itlb[" << i << "]: " << r.itlb[i].accesses << ' '
           << r.itlb[i].misses << '\n';
    for (std::size_t i = 0; i < r.hier.size(); ++i) {
        const auto& x = r.hier[i];
        auto stats = [&](const char* what, const mem::HierarchyStats& s) {
            os << what << ": " << s.l1i.accesses << ' ' << s.l1i.misses
               << ' ' << s.l1d.accesses << ' ' << s.l1d.misses << ' '
               << s.l2i.accesses << ' ' << s.l2i.misses << ' '
               << s.l2d.accesses << ' ' << s.l2d.misses << ' '
               << s.itlb_misses << ' ' << s.comm_misses << '\n';
        };
        os << "hier[" << i << "] instrs: " << x.instrs
           << " fetch_breaks: " << x.fetch_breaks << '\n';
        stats("hier total", x.total);
        for (std::size_t c = 0; c < x.per_cpu.size(); ++c)
            stats("hier cpu", x.per_cpu[c]);
    }
    hist("seq_lengths", 0, r.seq.lengths);
    os << "seq_mean: " << r.seq.mean << '\n'
       << "seq_mean_block_size: " << r.seq.mean_block_size << '\n'
       << "dyn_instrs: " << r.dyn_instrs << '\n';
}

/** Best-of-N single-thread timing of one replay path. */
template <typename Fn>
double
bestOf(Fn&& fn)
{
    using clock = std::chrono::steady_clock;
    double best = 0;
    for (int i = 0; i < kGridReps; ++i) {
        const auto t0 = clock::now();
        fn();
        const double s = seconds(t0, clock::now());
        if (i == 0 || s < best)
            best = s;
    }
    return best;
}

constexpr const char* kUsage =
    "usage: micro_replay [profile_txns] [trace_txns] "
    "[--results-out FILE]";

} // namespace

int
main(int argc, char** argv)
{
    bench::ObsRun obs(bench::obsOptionsFromEnv(), argc, argv);
    bench::banner("Replay engine microbenchmark",
                  "per-config oracle vs production paths (bit-identical)");

    std::uint64_t positional[2] = {400, 300};
    const char* positional_names[2] = {"profile_txns", "trace_txns"};
    int n_positional = 0;
    std::string results_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--results-out" && i + 1 >= argc)
            support::fatal(arg + " needs a value\n" + kUsage);
        if (arg == "--results-out") {
            results_out = argv[++i];
        } else if (arg.rfind("--results-out=", 0) == 0) {
            results_out = arg.substr(14);
        } else if (arg.rfind("--", 0) == 0) {
            support::fatal("unknown flag " + arg + "\n" + kUsage);
        } else if (n_positional < 2) {
            positional[n_positional] = bench::parseTxnCount(
                arg, positional_names[n_positional], kUsage);
            ++n_positional;
        } else {
            support::fatal("too many arguments\n" + std::string(kUsage));
        }
    }
    const std::uint64_t profile_txns = positional[0];
    const std::uint64_t trace_txns = positional[1];

    sim::SystemConfig config;
    config.num_cpus = 4;
    sim::System system(config);
    std::cerr << "[micro_replay] 4-cpu system: loading...\n";
    system.setup();
    system.warmup(50);
    sim::System::Profiles profiles =
        system.collectProfiles(profile_txns);
    trace::TraceBuffer buf;
    system.run(trace_txns, buf);

    core::PipelineOptions opts;
    opts.combo = core::OptCombo::All;
    opts.text_base = config.app_text_base;
    core::Layout app =
        core::buildLayout(system.appProg(), profiles.app, opts);
    core::Layout kernel = core::baselineLayout(system.kernelProg(),
                                               config.kernel_text_base);
    sim::Replayer rep(buf, app, &kernel);

    const int threads = std::max(1, bench::threadsFromEnv());
    support::ThreadPool pool(threads);

    std::cerr << "[micro_replay] trace: " << buf.size() << " events, "
              << buf.numCpus() << " cpus; replaying...\n";
    SuiteResults oracle = runSuite(rep, SuitePath::Oracle, nullptr);
    SuiteResults soa_scalar = runSuite(rep, SuitePath::SoA, nullptr);
    compareSuites(oracle, soa_scalar, "oracle vs soa scalar");
    SuiteResults pooled = runSuite(rep, SuitePath::SoA, &pool);
    compareSuites(oracle, pooled, "oracle vs soa pooled");

    const auto filter = sim::StreamFilter::Combined;
    const double resolve_s =
        bestOf([&] { (void)rep.resolveSoA(filter); });

    // Headline: the paper's 25-config direct-mapped grid (Figure 4),
    // single-threaded, on the sweep. With interference (replayICache)
    // the time excludes the resolve; the plain job's includes building
    // its block stream, which runSweepJobs does on every call.
    const auto grid = fig04Grid();
    const sim::ResolvedTraceSoA grid_soa = rep.resolveSoA(filter);
    std::vector<sim::ICacheReplayResult> grid_owned;
    const double grid_owned_s = bestOf([&] {
        grid_owned = sim::replayICache(grid_soa, grid,
                                       sim::SimdMode::Auto, nullptr);
    });
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!sameICache(rep.icache(grid[i], filter), grid_owned[i])) {
            std::cerr << "[micro_replay] FAIL: fig04 grid config " << i
                      << " of the interference sweep diverges from the "
                         "oracle\n";
            std::exit(1);
        }
    }
    const sim::SweepJob grid_job{&app, &kernel, filter, fig04Spec(),
                                 "fig04"};
    std::vector<sim::SweepResult> grid_sweep;
    const double grid_sweep_s = bestOf([&] {
        grid_sweep = sim::runSweepJobs(buf, {grid_job}, nullptr);
    });
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid_sweep[0].accesses(grid[i].line_bytes) !=
                grid_owned[i].accesses ||
            grid_sweep[0].misses(grid[i]) != grid_owned[i].misses) {
            std::cerr << "[micro_replay] FAIL: fig04 grid config " << i
                      << " of the plain sweep diverges from the "
                         "interference sweep\n";
            std::exit(1);
        }
    }

    // Per-family column timings over the same SoA trace.
    const auto icfg = icacheConfigs();
    const auto tcfg = threeCConfigs();
    const auto scfg = streamConfigs();
    const auto specs = itlbSpecs();
    const auto mode = sim::SimdMode::Auto;
    const double family_icache = bestOf([&] {
        (void)sim::replayICache(grid_soa, icfg, mode, nullptr);
    });
    const double family_threec = bestOf([&] {
        (void)sim::replayThreeCs(grid_soa, tcfg, mode, nullptr);
    });
    const double family_sbuf = bestOf([&] {
        (void)sim::replayStreamBuffer(grid_soa, scfg, kStreamBuffers,
                                      mode, nullptr);
    });
    const double family_itlb = bestOf([&] {
        (void)sim::replayITlb(grid_soa, specs, mode, nullptr);
    });

    const double scalar_speedup = oracle.seconds / soa_scalar.seconds;
    const double pooled_speedup = soa_scalar.seconds / pooled.seconds;
    const double end_to_end = oracle.seconds / pooled.seconds;

    auto phase_row = [](const std::string& name,
                        const SuiteResults& s) {
        std::cout << name << s.seconds << " s (resolve "
                  << s.resolve_seconds << " s + replay "
                  << s.replay_seconds << " s)\n";
    };
    std::cout << "trace events:        " << buf.size() << " ("
              << buf.numCpus() << " cpus)\n"
              << "per-config oracle:   " << oracle.seconds << " s\n";
    phase_row("soa scalar:          ", soa_scalar);
    std::cout << "soa pooled:          " << pooled.seconds << " s ("
              << pool.numThreads() << " threads)\n"
              << "scalar vs oracle:    " << scalar_speedup << "x\n"
              << "pooled vs scalar:    " << pooled_speedup << "x\n"
              << "end-to-end speedup:  " << end_to_end << "x\n"
              << "resolve phase:       " << resolve_s << " s\n"
              << "fig04 grid (25 cfg): interference sweep "
              << grid_owned_s << " s, plain sweep " << grid_sweep_s
              << " s\n"
              << "per-family columns (s): icache " << family_icache
              << "  threec " << family_threec << "  sbuf " << family_sbuf
              << "  itlb " << family_itlb << "\n";
    std::cout << "differential check:  PASS (all simulator families "
                 "bit-identical)\n\n";

    // simd_kernel/simd_kernel_reason stay in the schema until the
    // SimdMode shim goes (sim/kernels.hh).
    const sim::KernelChoice choice = sim::resolveKernel(mode);
    std::ofstream json("BENCH_replay.json");
    json << "{\n"
         << "  \"bench\": \"replay\",\n"
         << "  \"trace_events\": " << buf.size() << ",\n"
         << "  \"trace_cpus\": " << buf.numCpus() << ",\n"
         << "  \"simd_kernel\": \"" << sim::kernelName(choice.kind)
         << "\",\n"
         << "  \"simd_kernel_reason\": \"" << choice.reason << "\",\n"
         << "  \"oracle_seconds\": " << oracle.seconds << ",\n"
         << "  \"soa_scalar_seconds\": " << soa_scalar.seconds << ",\n"
         << "  \"soa_scalar_resolve_seconds\": "
         << soa_scalar.resolve_seconds << ",\n"
         << "  \"soa_scalar_replay_seconds\": "
         << soa_scalar.replay_seconds << ",\n"
         << "  \"pooled_seconds\": " << pooled.seconds << ",\n"
         << "  \"pooled_threads\": " << pool.numThreads() << ",\n"
         << "  \"soa_scalar_vs_oracle\": " << scalar_speedup << ",\n"
         << "  \"pooled_vs_soa_scalar\": " << pooled_speedup << ",\n"
         << "  \"end_to_end_speedup\": " << end_to_end << ",\n"
         << "  \"resolve_seconds\": " << resolve_s << ",\n"
         << "  \"icache_grid_configs\": " << grid.size() << ",\n"
         << "  \"icache_grid_interference_seconds\": " << grid_owned_s
         << ",\n"
         << "  \"icache_grid_sweep_seconds\": " << grid_sweep_s << ",\n"
         << "  \"family_icache_seconds\": " << family_icache
         << ",\n"
         << "  \"family_threec_seconds\": " << family_threec << ",\n"
         << "  \"family_streambuf_seconds\": " << family_sbuf << ",\n"
         << "  \"family_itlb_seconds\": " << family_itlb << ",\n"
         << "  \"differential_ok\": true\n"
         << "}\n";
    json.close(); // flush before the manifest embeds it
    std::cout << "wrote BENCH_replay.json\n";
    obs.addArtifactFile("BENCH_replay.json");

    if (!results_out.empty()) {
        writeResults(results_out, soa_scalar);
        std::cout << "wrote " << results_out << "\n";
    }
    return 0;
}
