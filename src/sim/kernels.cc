#include "sim/kernels.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <string>

#include "sim/kernels_detail.hh"
#include "support/cpufeat.hh"
#include "support/panic.hh"

namespace spikesim::sim {

bool
simdKernelsCompiled()
{
#if defined(SPIKESIM_AVX2_TU)
    return true;
#else
    return false;
#endif
}

bool
simdAvailable()
{
    return simdKernelsCompiled() && support::cpuHasAvx2();
}

bool
avx512KernelsCompiled()
{
#if defined(SPIKESIM_AVX512_TU)
    return true;
#else
    return false;
#endif
}

bool
avx512Available()
{
    return avx512KernelsCompiled() && support::cpuHasAvx512f();
}

SimdMode
simdModeFromEnv()
{
    const char* raw = std::getenv("SPIKESIM_SIMD");
    if (raw == nullptr || raw[0] == '\0')
        return SimdMode::Auto;
    const std::string val(raw);
    if (val == "0")
        return SimdMode::Scalar;
    if (val == "1")
        return SimdMode::Simd;
    if (val == "2")
        return SimdMode::Avx512;
    support::fatal("SPIKESIM_SIMD must be \"0\", \"1\" or \"2\", got \"" +
                   val + "\"");
}

namespace {

/**
 * Build a tiny deterministic single-CPU SoA trace with the shape real
 * resolved traces have — mostly sequential fetch runs with periodic
 * jumps, a minority kernel-owned stretch — for the calibration replay.
 */
ResolvedTraceSoA
makeCalibrationTrace()
{
    ResolvedTraceSoA soa;
    const std::size_t n = 32 * 1024;
    soa.addr.resize(n);
    soa.bytes.resize(n);
    soa.owner.resize(n);
    soa.flags.assign(n, 0);
    soa.num_cpus = 1;
    soa.cpu_begin = {0, n};
    soa.instr_events = n;
    soa.instrs = n;

    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    const auto rnd = [&state]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    std::uint64_t addr = 0;
    std::uint8_t owner = static_cast<std::uint8_t>(mem::Owner::App);
    std::size_t run_left = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (run_left == 0) {
            run_left = 4 + rnd() % 48;
            addr = (rnd() % (1u << 18)) & ~3ULL;
            owner = static_cast<std::uint8_t>(
                rnd() % 10 == 0 ? mem::Owner::Kernel : mem::Owner::App);
        }
        const std::uint32_t bytes =
            4u * (1u + static_cast<std::uint32_t>(rnd() % 16));
        soa.addr[i] = addr;
        soa.bytes[i] = bytes;
        soa.owner[i] = owner;
        addr += bytes;
        --run_left;
    }
    return soa;
}

double
timeKernel(KernelKind kind, const ResolvedTraceSoA& soa,
           const mem::CacheConfig* configs, std::size_t n_cfg)
{
    using clock = std::chrono::steady_clock;
    std::vector<ICacheReplayResult> out(n_cfg);
    detail::IcacheShard sh;
    sh.soa = &soa;
    sh.cpu = 0;
    sh.configs = configs;
    sh.k0 = 0;
    sh.k1 = n_cfg;
    sh.out = out.data();
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = clock::now();
        detail::icacheShardRun(kind, sh);
        const double s =
            std::chrono::duration<double>(clock::now() - t0).count();
        if (rep == 0 || s < best)
            best = s;
    }
    return best;
}

/** Calibration state: an optional real-trace slice seeded by the
 *  caller, the cached choice, and its provenance. */
struct CalibState
{
    std::mutex mu;
    ResolvedTraceSoA slice; ///< empty => use the synthetic trace
    bool seeded = false;
    bool computed = false;
    KernelChoice choice;
    CalibrationInfo info;
};

CalibState&
calibState()
{
    static CalibState s;
    return s;
}

/** One-time calibration replay: time every runnable kernel on the
 *  seeded real-trace slice (else the synthetic trace), keep the
 *  fastest. Caller holds st.mu. */
const KernelChoice&
calibratedChoiceLocked(CalibState& st)
{
    if (st.computed)
        return st.choice;
    st.computed = true;
    KernelChoice& c = st.choice;
    c = KernelChoice();
    st.info = CalibrationInfo();
    if (!simdAvailable() && !avx512Available()) {
        c.kind = KernelKind::Scalar;
        c.reason = "auto: no vector kernel runnable on this host";
        return c;
    }
    const bool real = st.seeded && !st.slice.addr.empty();
    const ResolvedTraceSoA& soa =
        real ? st.slice
             : (st.slice = makeCalibrationTrace(), st.slice);
    st.info.ran = true;
    st.info.source = real ? "real-slice" : "synthetic";
    st.info.sample_refs = soa.addr.size();
    // A fig04-shaped mix: direct-mapped sizes at two line sizes
    // plus one 4-way member.
    const mem::CacheConfig configs[] = {
        {32 * 1024, 32, 1},  {64 * 1024, 32, 1},
        {128 * 1024, 64, 1}, {256 * 1024, 64, 1},
        {64 * 1024, 64, 4},
    };
    const std::size_t n_cfg = sizeof(configs) / sizeof(configs[0]);
    const double scalar_s =
        timeKernel(KernelKind::Scalar, soa, configs, n_cfg);
    c.kind = KernelKind::Scalar;
    double best_s = scalar_s;
    if (simdAvailable()) {
        const double s =
            timeKernel(KernelKind::Avx2, soa, configs, n_cfg);
        if (s < best_s) {
            best_s = s;
            c.kind = KernelKind::Avx2;
        }
    }
    if (avx512Available()) {
        const double s =
            timeKernel(KernelKind::Avx512, soa, configs, n_cfg);
        if (s < best_s) {
            best_s = s;
            c.kind = KernelKind::Avx512;
        }
    }
    std::ostringstream reason;
    if (c.kind == KernelKind::Scalar) {
        reason << "auto-calibrated (" << st.info.source
               << "): scalar (vector kernels slower on this host)";
    } else {
        reason << "auto-calibrated (" << st.info.source << "): "
               << kernelName(c.kind) << " (" << std::fixed
               << std::setprecision(2)
               << (best_s > 0.0 ? scalar_s / best_s : 0.0)
               << "x vs scalar)";
    }
    c.reason = reason.str();
    return c;
}

KernelChoice
explicitChoice(SimdMode mode, const char* source)
{
    KernelChoice c;
    switch (mode) {
    case SimdMode::Scalar:
        c.kind = KernelKind::Scalar;
        break;
    case SimdMode::Simd:
        if (!simdAvailable())
            support::fatal(
                std::string("SIMD kernels requested but unavailable: ") +
                (simdKernelsCompiled()
                     ? "host CPU does not report AVX2"
                     : "binary was built without AVX2 support"));
        c.kind = KernelKind::Avx2;
        break;
    case SimdMode::Avx512:
        if (!avx512Available())
            support::fatal(
                std::string(
                    "AVX-512 kernels requested but unavailable: ") +
                (avx512KernelsCompiled()
                     ? "host CPU does not report AVX512F"
                     : "binary was built without AVX-512 support"));
        c.kind = KernelKind::Avx512;
        break;
    case SimdMode::Auto:
        break;
    }
    c.reason = std::string(source) + ": " + kernelName(c.kind);
    return c;
}

} // namespace

KernelChoice
resolveKernel(SimdMode mode)
{
    if (mode != SimdMode::Auto)
        return explicitChoice(mode, "forced by caller");
    const SimdMode env = simdModeFromEnv();
    if (env != SimdMode::Auto)
        return explicitChoice(env, "SPIKESIM_SIMD");
    CalibState& st = calibState();
    const std::lock_guard<std::mutex> lock(st.mu);
    return calibratedChoiceLocked(st);
}

void
seedCalibrationTrace(const ResolvedTraceSoA& soa, std::size_t max_refs)
{
    const std::size_t n = std::min(max_refs, soa.addr.size());
    CalibState& st = calibState();
    const std::lock_guard<std::mutex> lock(st.mu);
    st.slice = ResolvedTraceSoA();
    if (n > 0) {
        st.slice.addr.assign(soa.addr.begin(),
                             soa.addr.begin() +
                                 static_cast<std::ptrdiff_t>(n));
        st.slice.bytes.assign(soa.bytes.begin(),
                              soa.bytes.begin() +
                                  static_cast<std::ptrdiff_t>(n));
        st.slice.owner.assign(soa.owner.begin(),
                              soa.owner.begin() +
                                  static_cast<std::ptrdiff_t>(n));
        st.slice.flags.assign(soa.flags.begin(),
                              soa.flags.begin() +
                                  static_cast<std::ptrdiff_t>(n));
        st.slice.num_cpus = 1;
        st.slice.cpu_begin = {0, n};
        st.slice.instr_events = n;
        st.slice.instrs = n;
    }
    st.seeded = n > 0;
    st.computed = false; // next Auto resolve re-calibrates
}

CalibrationInfo
calibrationInfo()
{
    CalibState& st = calibState();
    const std::lock_guard<std::mutex> lock(st.mu);
    return st.info;
}

const char*
kernelName(KernelKind kind)
{
    switch (kind) {
    case KernelKind::Scalar:
        return "scalar";
    case KernelKind::Avx2:
        return "avx2";
    case KernelKind::Avx512:
        return "avx512";
    }
    return "scalar";
}

namespace detail {

void
icacheShardScalar(const IcacheShard& shard)
{
    runIcacheShardImpl<ScalarProbe>(shard);
}

void
threeCShardScalar(const ThreeCShard& shard)
{
    runThreeCShardImpl<ScalarStatsProbe>(shard);
}

void
iTlbShard(const ITlbShard& shard)
{
    runITlbShardImpl(shard);
}

void
instrShard(const InstrShard& shard)
{
    runInstrShardImpl(shard);
}

void
hierarchyShard(const HierarchyShard& shard)
{
    runHierarchyShardImpl(shard);
}

void
streamBufShardScalar(const StreamBufShard& shard)
{
    runStreamBufShardImpl<ScalarStatsProbe>(shard);
}

#if !defined(SPIKESIM_AVX2_TU)
void
icacheShardAvx2(const IcacheShard& shard)
{
    (void)shard;
    support::fatal("AVX2 kernel invoked in a binary built without it");
}

void
threeCShardAvx2(const ThreeCShard& shard)
{
    (void)shard;
    support::fatal("AVX2 kernel invoked in a binary built without it");
}

void
streamBufShardAvx2(const StreamBufShard& shard)
{
    (void)shard;
    support::fatal("AVX2 kernel invoked in a binary built without it");
}
#endif

#if !defined(SPIKESIM_AVX512_TU)
void
icacheShardAvx512(const IcacheShard& shard)
{
    (void)shard;
    support::fatal(
        "AVX-512 kernel invoked in a binary built without it");
}

void
threeCShardAvx512(const ThreeCShard& shard)
{
    (void)shard;
    support::fatal(
        "AVX-512 kernel invoked in a binary built without it");
}

void
streamBufShardAvx512(const StreamBufShard& shard)
{
    (void)shard;
    support::fatal(
        "AVX-512 kernel invoked in a binary built without it");
}
#endif

void
icacheShardRun(KernelKind kind, const IcacheShard& shard)
{
    switch (kind) {
    case KernelKind::Scalar:
        icacheShardScalar(shard);
        return;
    case KernelKind::Avx2:
        icacheShardAvx2(shard);
        return;
    case KernelKind::Avx512:
        icacheShardAvx512(shard);
        return;
    }
}

void
threeCShardRun(KernelKind kind, const ThreeCShard& shard)
{
    switch (kind) {
    case KernelKind::Scalar:
        threeCShardScalar(shard);
        return;
    case KernelKind::Avx2:
        threeCShardAvx2(shard);
        return;
    case KernelKind::Avx512:
        threeCShardAvx512(shard);
        return;
    }
}

void
iTlbShardRun(KernelKind kind, const ITlbShard& shard)
{
    (void)kind; // one exact FA-LRU implementation serves every kind
    iTlbShard(shard);
}

void
instrShardRun(KernelKind kind, const InstrShard& shard)
{
    (void)kind; // one per-word scalar implementation serves every kind
    instrShard(shard);
}

void
streamBufShardRun(KernelKind kind, const StreamBufShard& shard)
{
    switch (kind) {
    case KernelKind::Scalar:
        streamBufShardScalar(shard);
        return;
    case KernelKind::Avx2:
        streamBufShardAvx2(shard);
        return;
    case KernelKind::Avx512:
        streamBufShardAvx512(shard);
        return;
    }
}

} // namespace detail

} // namespace spikesim::sim
