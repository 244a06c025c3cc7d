/**
 * @file
 * Span recorder implementation: event-stream self-time attribution
 * and the Chrome trace-event writer.
 */

#include "spans.h"

#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace perfbench {

namespace {

uint64_t
monotonicNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Rt: return "rt";
      case Layer::Htm: return "htm";
      case Layer::Lib: return "lib";
      case Layer::Trace: return "trace";
      case Layer::Sim: return "sim";
      case Layer::Bench: return "bench";
    }
    return "?";
}

double
processCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

SpanRecorder::SpanRecorder() : origin_(monotonicNs())
{
    spans_.reserve(1 << 16);
}

std::vector<int64_t> &
SpanRecorder::stackOf(uint32_t tid)
{
    if (tid == kHostTid)
        return hostStack_;
    if (tid >= stacks_.size())
        stacks_.resize(tid + 1);
    return stacks_[tid];
}

void
SpanRecorder::charge(uint32_t tid, uint64_t now)
{
    const uint64_t elapsed = now - lastTime_;
    // Same thread as the previous event: it ran the whole interval.
    // Otherwise a fiber switch happened somewhere in between, and the
    // gap goes to the host thread's innermost span (Machine::run).
    const std::vector<int64_t> &owner =
        tid == lastTid_ ? stackOf(tid) : hostStack_;
    if (!owner.empty())
        spans_[size_t(owner.back())].self += elapsed;
    else if (!hostStack_.empty())
        spans_[size_t(hostStack_.back())].self += elapsed;
    lastTime_ = now;
    lastTid_ = tid;
}

int64_t
SpanRecorder::open(const char *name, Layer layer, uint32_t tid,
                   uint64_t req)
{
    const uint64_t now = monotonicNs() - origin_;
    charge(tid, now);
    std::vector<int64_t> &stack = stackOf(tid);
    int64_t parent = -1;
    if (!stack.empty())
        parent = stack.back();
    else if (!hostStack_.empty())
        parent = hostStack_.back();
    const auto index = int64_t(spans_.size());
    const double cpu = tid == kHostTid ? processCpuSeconds() : 0.0;
    spans_.push_back(
        Span{name, layer, tid, req, parent, now, 0, 0, cpu, cpu});
    stack.push_back(index);
    return index;
}

void
SpanRecorder::close(int64_t index)
{
    Span &span = spans_[size_t(index)];
    if (span.tid == kHostTid)
        span.cpuEnd = processCpuSeconds();
    const uint64_t now = monotonicNs() - origin_;
    charge(span.tid, now);
    std::vector<int64_t> &stack = stackOf(span.tid);
    if (stack.empty() || stack.back() != index)
        throw std::logic_error("span closed out of order");
    stack.pop_back();
    span.end = now;
}

void
SpanRecorder::writeChrome(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    std::fprintf(f, "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"host\"}}");
    std::vector<bool> named(stacks_.size(), false);
    for (const Span &s : spans_) {
        const uint32_t tid = s.tid == kHostTid ? 0 : s.tid + 1;
        if (s.tid != kHostTid && !named[s.tid]) {
            named[s.tid] = true;
            std::fprintf(f,
                         ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":"
                         "\"thread_name\",\"args\":{\"name\":"
                         "\"sim thread %u\"}}",
                         tid, s.tid);
        }
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":"
                     "\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"req\":%llu,\"parent\":%lld,"
                     "\"self_us\":%.3f}}",
                     tid, s.name, layerName(s.layer), double(s.start) / 1e3,
                     double(s.end - s.start) / 1e3,
                     (unsigned long long)s.req, (long long)s.parent,
                     double(s.self) / 1e3);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("error writing " + path);
}

} // namespace perfbench
