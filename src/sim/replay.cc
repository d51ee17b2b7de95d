#include "sim/replay.hh"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

#include "sim/soa.hh"
#include "support/panic.hh"

namespace spikesim::sim {

using trace::ImageId;
using trace::TraceEvent;

namespace {

mem::Owner
ownerOf(ImageId image)
{
    return image == ImageId::App ? mem::Owner::App : mem::Owner::Kernel;
}

} // namespace

Replayer::Replayer(const trace::TraceBuffer& trace,
                   const core::Layout& app_layout,
                   const core::Layout* kernel_layout)
    : trace_(trace), app_(app_layout), kernel_(kernel_layout),
      num_cpus_(trace.numCpus())
{
}

namespace {

/** Kernel events may only be replayed when a kernel layout exists. */
const core::Layout&
layoutFor(ImageId image, const core::Layout& app,
          const core::Layout* kernel)
{
    if (image == ImageId::App)
        return app;
    SPIKESIM_ASSERT(kernel != nullptr,
                    "replaying kernel events requires a kernel layout");
    return *kernel;
}

} // namespace

ICacheReplayResult
Replayer::icache(const mem::CacheConfig& config, StreamFilter filter) const
{
    ICacheReplayResult result;
    std::vector<mem::SetAssocCache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config);

    const std::uint64_t line = config.line_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::Owner owner = ownerOf(e.image);
        int m = owner == mem::Owner::App ? 0 : 1;
        mem::SetAssocCache& cache = caches[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line) {
            ++result.accesses;
            mem::AccessResult r = cache.access(a, owner);
            if (!r.hit) {
                ++result.misses;
                if (owner == mem::Owner::App)
                    ++result.app_misses;
                else
                    ++result.kernel_misses;
                int v = r.victim == mem::Owner::App      ? 0
                        : r.victim == mem::Owner::Kernel ? 1
                                                         : 2;
                ++result.interference.counts[m][v];
            }
        }
    }
    return result;
}

std::string
SweepSpec::check() const
{
    const bool no_grid = size_bytes.empty() && line_bytes.empty();
    if (no_grid && itlb.empty())
        return "sweep needs a cache grid or an iTLB spec";
    if (!no_grid &&
        (size_bytes.empty() || line_bytes.empty() || assocs.empty()))
        return "sweep needs at least one size, line size and assoc";
    for (const ITlbSpec& spec : itlb) {
        if (spec.entries == 0)
            return "iTLB needs at least one entry";
        if (!std::has_single_bit(spec.page_bytes))
            return "iTLB page size " + std::to_string(spec.page_bytes) +
                   "B is not a power of two";
        if (!std::has_single_bit(spec.fetch_bytes))
            return "iTLB fetch size " + std::to_string(spec.fetch_bytes) +
                   "B is not a power of two";
    }
    if (interference)
        for (std::uint32_t assoc : assocs)
            if (assoc > 64)
                return "interference tracks at most 64 ways, not " +
                       std::to_string(assoc);
    for (std::uint32_t size : size_bytes)
        for (std::uint32_t line : line_bytes)
            for (std::uint32_t assoc : assocs) {
                mem::CacheConfig config{size, line, assoc};
                std::string err = config.check();
                if (!err.empty())
                    return config.label() + ": " + err;
            }
    return "";
}

SweepResult::SweepResult(SweepSpec spec) : spec_(std::move(spec))
{
    accesses_.assign(spec_.line_bytes.size(), 0);
    misses_.assign(spec_.numConfigs(), 0);
    itlb_.assign(spec_.itlb.size(), ITlbReplayResult());
    // emplace keeps the first occurrence, matching what a linear scan
    // of a (degenerate) spec with duplicates would have found.
    for (std::size_t i = 0; i < spec_.size_bytes.size(); ++i)
        size_index_.emplace(spec_.size_bytes[i], i);
    for (std::size_t i = 0; i < spec_.line_bytes.size(); ++i)
        line_index_.emplace(spec_.line_bytes[i], i);
    for (std::size_t i = 0; i < spec_.assocs.size(); ++i)
        assoc_index_.emplace(spec_.assocs[i], i);
}

std::size_t
SweepResult::lineIndex(std::uint32_t line_bytes) const
{
    auto it = line_index_.find(line_bytes);
    SPIKESIM_ASSERT(it != line_index_.end(),
                    "line size " << line_bytes << "B not in sweep");
    return it->second;
}

std::size_t
SweepResult::index(std::size_t si, std::size_t li, std::size_t ai) const
{
    return (li * spec_.size_bytes.size() + si) * spec_.assocs.size() + ai;
}

std::uint64_t
SweepResult::accesses(std::uint32_t line_bytes) const
{
    return accesses_[lineIndex(line_bytes)];
}

std::size_t
SweepResult::cell(std::uint32_t size_bytes, std::uint32_t line_bytes,
                  std::uint32_t assoc) const
{
    auto sit = size_index_.find(size_bytes);
    SPIKESIM_ASSERT(sit != size_index_.end(),
                    "cache size " << size_bytes << "B not in sweep");
    auto ait = assoc_index_.find(assoc);
    SPIKESIM_ASSERT(ait != assoc_index_.end(),
                    "associativity " << assoc << " not in sweep");
    return index(sit->second, lineIndex(line_bytes), ait->second);
}

std::uint64_t
SweepResult::misses(std::uint32_t size_bytes, std::uint32_t line_bytes,
                    std::uint32_t assoc) const
{
    return misses_[cell(size_bytes, line_bytes, assoc)];
}

ICacheReplayResult
SweepResult::icache(const mem::CacheConfig& config) const
{
    SPIKESIM_ASSERT(spec_.interference,
                    "icache() needs a sweep with interference set");
    const std::size_t k =
        cell(config.size_bytes, config.line_bytes, config.assoc);
    ICacheReplayResult r;
    r.accesses = accesses(config.line_bytes);
    r.misses = misses_[k];
    r.interference = interference_[k];
    r.app_misses = r.interference.missesBy(0);
    r.kernel_misses = r.interference.missesBy(1);
    return r;
}

ResolvedTraceSoA
Replayer::resolveSoA(StreamFilter filter, bool include_data) const
{
    return resolveBlockStream(trace_, filter, include_data, app_, kernel_);
}

WordStats
Replayer::instrumented(const mem::CacheConfig& config, StreamFilter filter,
                       bool flush_at_end) const
{
    std::vector<mem::InstrumentedICache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config);

    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint32_t words = layout.blockSize(e.block);
        std::uint64_t addr = layout.blockAddr(e.block);
        mem::Owner owner = ownerOf(e.image);
        mem::InstrumentedICache& cache = caches[e.cpu];
        for (std::uint32_t w = 0; w < words; ++w)
            cache.fetchWord(addr + w * 4ull, owner);
    }

    WordStats out;
    out.words_used = support::Histogram(config.line_bytes / 4 + 1);
    double fetched = 0.0;
    double unused = 0.0;
    for (auto& cache : caches) {
        if (flush_at_end)
            cache.flush();
        out.words_used.merge(cache.wordsUsed());
        out.word_reuse.merge(cache.wordReuse());
        out.lifetimes.merge(cache.lifetimes());
        out.misses += cache.misses();
        fetched += static_cast<double>(cache.wordReuse().totalSamples());
        unused += cache.unusedWordFraction() *
                  static_cast<double>(cache.wordReuse().totalSamples());
    }
    out.unused_word_fraction = fetched == 0.0 ? 0.0 : unused / fetched;
    return out;
}

mem::ThreeCStats
Replayer::threeCs(const mem::CacheConfig& config,
                  StreamFilter filter) const
{
    std::vector<mem::ClassifyingICache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config);

    const std::uint64_t line = config.line_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::ClassifyingICache& cache = caches[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line)
            cache.access(a);
    }
    mem::ThreeCStats total;
    for (const auto& c : caches)
        total += c.stats();
    return total;
}

ITlbReplayResult
Replayer::itlb(const ITlbSpec& spec, StreamFilter filter) const
{
    std::vector<mem::ITlb> tlbs;
    tlbs.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        tlbs.emplace_back(spec.entries, spec.page_bytes);

    ITlbReplayResult result;
    const std::uint64_t line = spec.fetch_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::ITlb& tlb = tlbs[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line) {
            ++result.accesses;
            tlb.access(a);
        }
    }
    for (const mem::ITlb& t : tlbs)
        result.misses += t.misses();
    return result;
}

mem::StreamBufferStats
Replayer::streamBuffer(const mem::CacheConfig& config, int num_buffers,
                       StreamFilter filter) const
{
    std::vector<mem::StreamBufferICache> caches;
    caches.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        caches.emplace_back(config, num_buffers);

    const std::uint64_t line = config.line_bytes;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        mem::StreamBufferICache& cache = caches[e.cpu];
        for (std::uint64_t a = addr & ~(line - 1); a < end; a += line)
            cache.fetchLine(a);
    }
    mem::StreamBufferStats total;
    for (const auto& c : caches)
        total += c.stats();
    return total;
}

HierarchyReplayResult
Replayer::hierarchy(const mem::HierarchyConfig& config,
                    bool include_data, bool model_coherence) const
{
    // line -> last CPU that touched it (coherence model).
    std::unordered_map<std::uint64_t, std::uint8_t> data_owner;
    HierarchyReplayResult result;
    std::vector<mem::MemoryHierarchy> cpus;
    cpus.reserve(static_cast<std::size_t>(num_cpus_));
    for (int i = 0; i < num_cpus_; ++i)
        cpus.emplace_back(config);

    const std::uint64_t iline = config.l1i.line_bytes;
    const std::uint64_t dline = config.l1d.line_bytes;
    std::vector<std::uint64_t> expected(
        static_cast<std::size_t>(num_cpus_), ~0ULL);
    for (const TraceEvent& e : trace_.events()) {
        if (e.image == ImageId::Data) {
            if (include_data) {
                std::uint64_t line =
                    (static_cast<std::uint64_t>(e.block) << 2) &
                    ~(dline - 1);
                if (model_coherence) {
                    auto [it, fresh] = data_owner.try_emplace(line,
                                                              e.cpu);
                    if (!fresh && it->second != e.cpu) {
                        // The line migrates: remote dirty copy.
                        ++result.total.comm_misses;
                        it->second = e.cpu;
                    }
                }
                cpus[e.cpu].dataLine(line);
            }
            continue;
        }
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        std::uint64_t bytes = layout.blockBytes(e.block);
        if (bytes == 0)
            continue;
        std::uint64_t addr = layout.blockAddr(e.block);
        std::uint64_t end = addr + bytes;
        result.instrs += layout.blockSize(e.block);
        if (addr != expected[e.cpu])
            ++result.fetch_breaks;
        expected[e.cpu] = end;
        mem::Owner owner = ownerOf(e.image);
        mem::MemoryHierarchy& h = cpus[e.cpu];
        for (std::uint64_t a = addr & ~(iline - 1); a < end; a += iline)
            h.fetchLine(a, owner);
    }
    for (auto& h : cpus) {
        result.per_cpu.push_back(h.stats());
        result.total += h.stats();
    }
    return result;
}

std::uint64_t
Replayer::dynamicInstrs(StreamFilter filter) const
{
    std::uint64_t total = 0;
    for (const TraceEvent& e : trace_.events()) {
        if (!wantImage(filter, e.image))
            continue;
        const core::Layout& layout = layoutFor(e.image, app_, kernel_);
        total += layout.blockSize(e.block);
    }
    return total;
}

} // namespace spikesim::sim
