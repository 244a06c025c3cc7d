/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a
 * span around each call it makes into a simulator layer (set-up and
 * run phases, structure calls and txRun inside simulated-thread
 * bodies, trace serialize/parse/replay, the oracle check). Spans stay
 * in memory and are written out at the end as Chrome trace-event JSON.
 *
 * Simulated threads are fibers on one host thread, so a span opened
 * inside a body may enclose a fiber switch. Self time is therefore
 * accumulated from the event stream: the host time between two
 * consecutive span events of the same thread belongs to that thread's
 * innermost open span; the time between events of two different
 * threads is a switch gap (scheduler work plus untraced body code) and
 * belongs to the innermost open span of the host thread, i.e.
 * Machine::run. A span's self time thus excludes both its children and
 * the intervals in which another simulated thread ran.
 *
 * Span events are timed with the monotonic clock (about 40 ns a read,
 * where the process CPU clock is a system call of about 350 ns), so
 * start, end and self are wall time. Spans on the host thread (set-up
 * and run phases, serialize/parse/replay, the oracle check) are few and
 * long; they also read the process CPU clock at open and close, and
 * the benchmark's host-phase metrics use that CPU time.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Layers the benchmark calls into directly, named after the
 *  repository's src/ modules (mem and commtm are only reached through
 *  these, so they are measured by counters, not spans), plus the
 *  benchmark's own input generation. */
enum class Layer : uint8_t { Rt, Htm, Lib, Trace, Sim, Bench };

const char *layerName(Layer layer);

/** Thread id of host-side (non-fiber) spans. */
constexpr uint32_t kHostTid = 0xffffffffu;

struct Span {
    const char *name;
    Layer layer;
    uint32_t tid;    //!< simulated thread, or kHostTid
    uint64_t req;    //!< request id shared by the spans of one request
    int64_t parent;  //!< index of the enclosing span, or -1
    uint64_t start;  //!< ns since the recorder was created
    uint64_t end;
    uint64_t self;   //!< ns attributed to this span alone
    double cpuStart; //!< process CPU s at open (host-thread spans only)
    double cpuEnd;   //!< process CPU s at close (host-thread spans only)

    /** Process CPU seconds the span covered; 0 for simulated-thread
     *  spans. */
    double cpuSeconds() const { return cpuEnd - cpuStart; }
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span on @p tid; returns its index for close(). */
    int64_t open(const char *name, Layer layer, uint32_t tid,
                 uint64_t req = 0);
    void close(int64_t index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing). */
    void writeChrome(const std::string &path) const;

  private:
    /** Attribute the time since the previous event to the span that
     *  owned it, and make @p tid the thread of the latest event. */
    void charge(uint32_t tid, uint64_t now);
    std::vector<int64_t> &stackOf(uint32_t tid);

    uint64_t origin_;
    uint64_t lastTime_ = 0;
    uint32_t lastTid_ = kHostTid;
    std::vector<Span> spans_;
    std::vector<int64_t> hostStack_;
    std::vector<std::vector<int64_t>> stacks_; //!< per simulated thread
};

/** RAII span; a no-op when the recorder is null (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, Layer layer,
               uint32_t tid = kHostTid, uint64_t req = 0)
        : rec_(rec), index_(rec ? rec->open(name, layer, tid, req) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int64_t index_;
};

/** Host CPU time of this process, in seconds. */
double processCpuSeconds();

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
