#ifndef SPIKESIM_TRACE_TRACE_HH
#define SPIKESIM_TRACE_TRACE_HH

#include <cstdint>
#include <vector>

#include "program/program.hh"

/**
 * @file
 * Block-granular execution traces. The workload executes once and
 * records a stream of (cpu, process, image, block) events; layouts and
 * cache configurations are then evaluated by *replaying* the trace with
 * different block-address mappings, exactly mirroring the paper's
 * trace-driven methodology (SimOS-generated instruction traces fed to
 * simple cache simulators).
 */

namespace spikesim::trace {

/**
 * Which stream a trace event belongs to. App and Kernel are the two
 * executable images (block events); Data tags data-reference events
 * (used by the L1D/L2 studies; data addresses are layout-independent).
 */
enum class ImageId : std::uint8_t {
    App = 0,
    Kernel = 1,
    Data = 2,
};

inline constexpr std::size_t kNumImages = 3;

/** Execution context a block event occurred in. */
struct ExecContext
{
    std::uint16_t process = 0; ///< server process id (kernel work keeps
                               ///< the process it ran on behalf of)
    std::uint8_t cpu = 0;      ///< processor the block executed on
};

/**
 * One executed basic block (image App/Kernel; `block` is a global block
 * id) or one data reference (image Data; `block` is the word index, the
 * byte address divided by 4). 8 bytes; traces run to tens of millions.
 */
struct TraceEvent
{
    std::uint32_t block = 0;
    std::uint16_t process = 0;
    std::uint8_t cpu = 0;
    ImageId image = ImageId::App;
};

static_assert(sizeof(TraceEvent) == 8, "TraceEvent should stay compact");

/**
 * Receiver for execution events emitted by the CFG walker. onBlock is
 * the hot callback; edge/call callbacks exist so profile collection
 * sees exact flow- and call-edge counts (Pixie-equivalent).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** A basic block executed. */
    virtual void onBlock(const ExecContext& ctx, ImageId image,
                         program::GlobalBlockId block) = 0;

    /** Control flowed across an intra-procedure edge. */
    virtual void
    onEdge(ImageId image, program::GlobalBlockId from,
           program::GlobalBlockId to)
    {
        (void)image;
        (void)from;
        (void)to;
    }

    /** A call executed from a block to a procedure (same image). */
    virtual void
    onCall(ImageId image, program::GlobalBlockId caller_block,
           program::ProcId callee)
    {
        (void)image;
        (void)caller_block;
        (void)callee;
    }

    /** A data word was referenced at the given byte address. */
    virtual void
    onData(const ExecContext& ctx, std::uint64_t byte_addr)
    {
        (void)ctx;
        (void)byte_addr;
    }
};

/** Fans events out to several sinks (e.g., trace buffer + profiler). */
class TeeSink : public TraceSink
{
  public:
    /** Sinks are borrowed; caller keeps them alive. */
    explicit TeeSink(std::vector<TraceSink*> sinks);

    void onBlock(const ExecContext& ctx, ImageId image,
                 program::GlobalBlockId block) override;
    void onEdge(ImageId image, program::GlobalBlockId from,
                program::GlobalBlockId to) override;
    void onCall(ImageId image, program::GlobalBlockId caller_block,
                program::ProcId callee) override;
    void onData(const ExecContext& ctx, std::uint64_t byte_addr) override;

  private:
    std::vector<TraceSink*> sinks_;
};

/** In-memory trace store. */
class TraceBuffer : public TraceSink
{
  public:
    TraceBuffer() = default;

    void onBlock(const ExecContext& ctx, ImageId image,
                 program::GlobalBlockId block) override;
    void onData(const ExecContext& ctx, std::uint64_t byte_addr) override;

    /** Append an already-formed event (bulk loads, e.g. TraceReader). */
    void
    append(const TraceEvent& e)
    {
        events_.push_back(e);
        count(e.cpu, e.image);
    }

    /**
     * Bulk append for decoders: copy n already-formed events of one
     * image and one CPU (decoders emit (process, cpu) runs, so the cpu
     * is constant per call). Unlike append() in a loop, the copy is a
     * single memcpy with no per-event bookkeeping and no
     * value-initialization pass.
     */
    void
    appendRun(const TraceEvent* events, std::size_t n, ImageId image,
              std::uint8_t cpu)
    {
        events_.insert(events_.end(), events, events + n);
        if (n > 0)
            count(cpu, image, n);
    }

    const std::vector<TraceEvent>& events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    void
    clear()
    {
        events_.clear();
        for (std::size_t c = 0; c <= max_cpu_; ++c)
            for (std::uint64_t& n : cpu_events_[c])
                n = 0;
        max_cpu_ = 0;
    }

    /**
     * Number of CPUs the trace was recorded on: one past the highest
     * cpu id observed, maintained incrementally at capture/append time
     * so consumers (Replayer, the parallel replay engine) never rescan
     * the full event stream. An empty trace reports 1.
     */
    int numCpus() const { return static_cast<int>(max_cpu_) + 1; }

    /**
     * Pre-allocate space for n events. Multi-megabyte reservations are
     * additionally madvise'd for transparent huge pages on Linux:
     * traces run to hundreds of MB, and first-touch faults on 4KB
     * pages otherwise dominate bulk decode time.
     */
    void reserve(std::size_t n);

    /** Number of events from the given image (block events, or data
     *  references for ImageId::Data). */
    std::uint64_t imageEvents(ImageId image) const;

    /**
     * Number of events from `image` recorded on `cpu`, kept per event
     * as the trace grows, so a consumer can size per-CPU partitions
     * without scanning the trace (sim::buildBlockStream). 0 for a CPU
     * past numCpus().
     */
    std::uint64_t
    cpuEvents(int cpu, ImageId image) const
    {
        if (cpu < 0 || cpu > max_cpu_)
            return 0;
        return cpu_events_[cpu][static_cast<std::size_t>(image)];
    }

    /**
     * Total dynamic instructions in the trace for an image, given the
     * program the image ids refer to (sums block sizes; excludes
     * layout-materialized branches).
     */
    std::uint64_t dynamicInstrs(const program::Program& prog,
                                ImageId image) const;

  private:
    /** One more (or `n` more) events of `image` on `cpu`. */
    void
    count(std::uint8_t cpu, ImageId image, std::uint64_t n = 1)
    {
        cpu_events_[cpu][static_cast<std::size_t>(image)] += n;
        if (cpu > max_cpu_)
            max_cpu_ = cpu;
    }

    /** Largest number of CPUs a trace can name (TraceEvent::cpu). */
    static constexpr std::size_t kMaxCpus = 256;

    std::vector<TraceEvent> events_;
    std::uint8_t max_cpu_ = 0;
    /** Events per (cpu, image); rows past max_cpu_ are all zero. */
    std::uint64_t cpu_events_[kMaxCpus][kNumImages] = {};
};

/** Sink that discards everything (for warmup phases). */
class NullSink : public TraceSink
{
  public:
    void
    onBlock(const ExecContext&, ImageId, program::GlobalBlockId) override
    {
    }
};

} // namespace spikesim::trace

#endif // SPIKESIM_TRACE_TRACE_HH
