#include "serve/arrival.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/panic.hh"
#include "support/rng.hh"

namespace spikesim::serve {

namespace {

/** Per-session RNG stream id namespace (disjoint from other users of
 *  the bench seed). */
constexpr std::uint64_t kArrivalStream = 0xa1120000ULL;

/** Exponential variate with the given mean, in cycles (>= 0). */
double
expVariate(support::Pcg32& rng, double mean)
{
    // nextDouble() is in [0, 1), so 1-u is in (0, 1] and log() is safe.
    return -std::log(1.0 - rng.nextDouble()) * mean;
}

void
poissonSession(std::uint32_t session, const ArrivalConfig& cfg,
               double mean_gap, std::vector<Arrival>& out)
{
    support::Pcg32 rng(cfg.seed, kArrivalStream + session);
    double t = expVariate(rng, mean_gap);
    while (t < static_cast<double>(cfg.horizon_cycles)) {
        out.push_back({static_cast<std::uint64_t>(t), session});
        t += expVariate(rng, mean_gap);
    }
}

void
burstySession(std::uint32_t session, const ArrivalConfig& cfg,
              double mean_gap, std::vector<Arrival>& out)
{
    support::Pcg32 rng(cfg.seed, kArrivalStream + session);
    const double mean_on = cfg.mean_on_cycles;
    const double mean_off =
        mean_on * (1.0 - cfg.on_fraction) / cfg.on_fraction;
    // While ON the session fires faster by 1/on_fraction so its
    // long-run rate matches the Poisson configuration.
    const double on_gap = mean_gap * cfg.on_fraction;
    const double horizon = static_cast<double>(cfg.horizon_cycles);

    // Start in ON with the stationary probability, so the stream has
    // no warm-up transient.
    bool on = rng.nextBool(cfg.on_fraction);
    double t = 0.0;
    while (t < horizon) {
        if (!on) {
            t += expVariate(rng, mean_off);
            on = true;
            continue;
        }
        double burst_end = t + expVariate(rng, mean_on);
        double a = t + expVariate(rng, on_gap);
        while (a < burst_end && a < horizon) {
            out.push_back({static_cast<std::uint64_t>(a), session});
            a += expVariate(rng, on_gap);
        }
        t = burst_end;
        on = false;
    }
}

} // namespace

std::string
ArrivalConfig::check() const
{
    if (sessions == 0)
        return "sessions must be > 0";
    if (!(rate > 0.0))
        return "rate must be > 0";
    if (horizon_cycles == 0)
        return "horizon_cycles must be > 0";
    if (kind == ArrivalKind::Bursty &&
        (!(on_fraction > 0.0) || on_fraction > 1.0))
        return "on_fraction must be in (0, 1]";
    if (kind == ArrivalKind::Bursty && !(mean_on_cycles > 0.0))
        return "mean_on_cycles must be > 0";
    return "";
}

std::vector<Arrival>
sessionArrivals(const ArrivalConfig& cfg)
{
    SPIKESIM_ASSERT(cfg.check().empty(),
                    "bad arrival config: " << cfg.check());
    const double mean_gap =
        static_cast<double>(cfg.sessions) / cfg.rate;
    std::vector<Arrival> out;
    out.reserve(static_cast<std::size_t>(
        cfg.rate * static_cast<double>(cfg.horizon_cycles) * 1.1));
    for (std::uint32_t s = 0; s < cfg.sessions; ++s) {
        if (cfg.kind == ArrivalKind::Poisson)
            poissonSession(s, cfg, mean_gap, out);
        else
            burstySession(s, cfg, mean_gap, out);
    }
    return out;
}

std::vector<Arrival>
generateArrivals(const ArrivalConfig& cfg)
{
    // Stable LSD radix sort on time, 16-bit digits, with only as many
    // passes as the largest time needs. The input is session-major and
    // each session's times never decrease, so ordering stably by time
    // alone yields exactly the (time, session, generation) order.
    std::vector<Arrival> out = sessionArrivals(cfg);
    std::uint64_t max_time = 0;
    for (const Arrival& a : out)
        max_time = std::max(max_time, a.time);
    std::vector<Arrival> tmp(out.size());
    std::vector<std::size_t> start(std::size_t{1} << 16);
    for (unsigned shift = 0; shift < 64 && (max_time >> shift) != 0;
         shift += 16) {
        std::fill(start.begin(), start.end(), 0);
        for (const Arrival& a : out)
            ++start[(a.time >> shift) & 0xffff];
        std::size_t sum = 0;
        for (std::size_t& n : start)
            sum += std::exchange(n, sum);
        for (const Arrival& a : out)
            tmp[start[(a.time >> shift) & 0xffff]++] = a;
        out.swap(tmp);
    }
    return out;
}

} // namespace spikesim::serve
