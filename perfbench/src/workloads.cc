/**
 * @file
 * The three workloads. Every input is generated host-side from the
 * seed; every expectation a check compares against is computed from
 * those inputs (or is a law the method must obey), never taken from
 * an earlier run of the simulator.
 */

#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "lib/hash_table.h"
#include "lib/linked_list.h"
#include "list_model.h"
#include "rt/frontend.h"
#include "rt/machine.h"
#include "rt/open_loop.h"
#include "sim/replay_oracle.h"
#include "trace/replay.h"
#include "trace/trace_reader.h"

namespace perfbench {

using namespace commtm;

uint64_t
RoundResult::failed() const
{
    uint64_t n = failedOps;
    for (const CheckResult &c : checks)
        n += c.wholeRunFailed ? 1 : 0;
    return n;
}

namespace {

/** splitmix64: derives independent streams from the run seed. */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Collects check outcomes. An operation check marks each operation it
 * finds wrong; a failed whole-run check counts as one failure. begin()
 * says whether this check's host-side expectation must be falsified
 * (the self-test's fault injection).
 */
class Checker
{
  public:
    Checker(const RoundOptions &opts, RoundResult &res, uint64_t ops)
        : opts_(opts), res_(res), failedOp_(ops, false)
    {
        res_.attempted = ops;
    }

    bool
    begin(const char *name)
    {
        current_ = CheckResult{name, true, "", false};
        return opts_.inject == name;
    }

    void
    failOp(uint64_t op, const std::string &diag)
    {
        if (!failedOp_[op]) {
            failedOp_[op] = true;
            res_.failedOps++;
        }
        if (current_.ok)
            current_.diag = "op " + std::to_string(op) + ": " + diag;
        current_.ok = false;
    }

    void
    fail(const std::string &diag)
    {
        if (current_.ok)
            current_.diag = diag;
        current_.ok = false;
        current_.wholeRunFailed = true;
    }

    void end() { res_.checks.push_back(current_); }

  private:
    const RoundOptions &opts_;
    RoundResult &res_;
    std::vector<bool> failedOp_;
    CheckResult current_;
};

void
setLatencies(RoundResult &res, std::vector<std::vector<uint64_t>> &lat)
{
    std::vector<uint64_t> all;
    for (const auto &t : lat)
        all.insert(all.end(), t.begin(), t.end());
    res.latencySamples = all.size();
    res.txP50 = nearestRank(all, 0.50);
    res.txP99 = nearestRank(all, 0.99);
}

/** The law every run must keep: each attempt commits or aborts. */
void
checkAccounting(Checker &chk, const StatsSnapshot &stats,
                const char *name)
{
    const bool inject = chk.begin(name);
    const ThreadStats sum = stats.aggregateThreads();
    const uint64_t expected =
        sum.txCommitted + sum.txAborted + (inject ? 1 : 0);
    if (sum.txStarted != expected) {
        chk.fail("tx_started " + std::to_string(sum.txStarted) +
                 " != committed + aborted " + std::to_string(expected));
    }
    chk.end();
}

/** A structure call inside a body: span plus simulated latency. */
template <typename Fn>
void
timedCall(SpanRecorder *spans, const char *name, ThreadContext &ctx,
          uint64_t req, std::vector<uint64_t> &lat, Fn &&fn)
{
    ScopedSpan span(spans, name, Layer::Lib, ctx.id(), req);
    const Cycle start = ctx.now();
    fn();
    lat.push_back(ctx.now() - start);
}

// ---------------------------------------------------------------------
// list_abort_storm: baseline HTM, every thread enqueues onto one list.
// ---------------------------------------------------------------------

RoundResult
runListAbortStorm(const RoundOptions &opts)
{
    const uint32_t threads = opts.small ? 16 : 128;
    const uint32_t ops = opts.small ? 8 : 40;
    SpanRecorder *spans = opts.spans;
    RoundResult res;

    const double t0 = processCpuSeconds();
    // Values carry their thread in the top bits so the per-thread
    // order check can pick them out of the final list.
    std::vector<std::vector<uint64_t>> values(threads);
    {
        ScopedSpan span(spans, "bench.inputs", Layer::Bench);
        Rng rng(mix64(opts.seed ^ 0x11));
        for (uint32_t t = 0; t < threads; t++) {
            for (uint32_t i = 0; i < ops; i++) {
                values[t].push_back((uint64_t(t) << 40) |
                                    (rng.next() & ((1ull << 40) - 1)));
            }
        }
    }
    MachineConfig cfg;
    cfg.mode = SystemMode::BaselineHtm;
    cfg.conflictDetection = ConflictDetection::Eager;
    cfg.seed = mix64(opts.seed ^ 0x12);
    std::unique_ptr<Machine> m;
    {
        ScopedSpan span(spans, "rt.machine", Layer::Rt);
        m = std::make_unique<Machine>(cfg);
    }
    std::unique_ptr<CommList> list;
    {
        ScopedSpan span(spans, "lib.alloc", Layer::Lib);
        const Label label = CommList::defineLabel(*m);
        list = std::make_unique<CommList>(*m, label, true);
    }
    std::vector<std::vector<uint64_t>> lat(threads);
    {
        ScopedSpan span(spans, "rt.attach", Layer::Rt);
        ClosedLoopFrontend fe;
        for (uint32_t t = 0; t < threads; t++) {
            fe.add([&, t](ThreadContext &ctx) {
                for (uint32_t i = 0; i < ops; i++) {
                    timedCall(spans, "lib.enqueue", ctx,
                              (uint64_t(t) << 32) | i, lat[t],
                              [&] { list->enqueue(ctx, values[t][i]); });
                    ctx.compute(8);
                }
            });
        }
        fe.attach(*m);
    }
    const double t1 = processCpuSeconds();
    {
        ScopedSpan span(spans, "rt.run", Layer::Rt);
        m->run();
    }
    const double t2 = processCpuSeconds();
    res.setupS = t1 - t0;
    res.runS = res.machineRunS = t2 - t1;
    res.stats = m->stats();
    setLatencies(res, lat);
    res.counts["lib.calls.enqueue"] = double(threads) * ops;

    // Checks. Operation index of (t, i) is t * ops + i.
    Checker chk(opts, res, uint64_t(threads) * ops);
    const std::vector<uint64_t> got = list->peekAll(*m);
    std::vector<std::vector<uint64_t>> expected = values;

    if (chk.begin("list.multiset"))
        expected[0][0] ^= 1;
    {
        std::unordered_map<uint64_t, int64_t> count;
        for (uint64_t v : got)
            count[v]++;
        for (uint32_t t = 0; t < threads; t++) {
            for (uint32_t i = 0; i < ops; i++) {
                if (--count[expected[t][i]] < 0) {
                    chk.failOp(uint64_t(t) * ops + i,
                               "value missing from the final list");
                }
            }
        }
        for (const auto &kv : count) {
            if (kv.second > 0) {
                chk.fail("final list holds a value never enqueued");
                break;
            }
        }
    }
    chk.end();

    expected = values;
    if (chk.begin("list.thread_order"))
        std::swap(expected[0][0], expected[0][1]);
    {
        std::vector<std::vector<uint64_t>> seen(threads);
        for (uint64_t v : got) {
            if ((v >> 40) < threads)
                seen[v >> 40].push_back(v);
        }
        for (uint32_t t = 0; t < threads; t++) {
            for (uint32_t i = 0; i < ops; i++) {
                if (i >= seen[t].size() || seen[t][i] != expected[t][i]) {
                    chk.failOp(uint64_t(t) * ops + i,
                               "thread's values out of enqueue order");
                }
            }
        }
    }
    chk.end();
    checkAccounting(chk, res.stats, "htm.accounting");
    return res;
}

// ---------------------------------------------------------------------
// hashset_dedup: CommTM, genome-shaped dedup inserts with duplicates
// into a resizable hash set, then a read-mostly lookup phase.
// ---------------------------------------------------------------------

uint64_t
valueOf(uint64_t key)
{
    return mix64(key ^ 0x5a5a);
}

RoundResult
runHashsetDedup(const RoundOptions &opts)
{
    const uint32_t threads = opts.small ? 16 : 128;
    const uint32_t segsPerThread = opts.small ? 8 : 96;
    const uint32_t phase2PerThread = opts.small ? 8 : 96;
    const uint32_t kFreshEvery = 8; // 1 in 8 phase-2 ops inserts
    const uint64_t segments = uint64_t(threads) * segsPerThread;
    const uint64_t keySpace = segments * 2 / 3; // ~48% duplicate inserts
    const uint32_t kInitialBuckets = 256;
    const double kFill = 1.0;
    SpanRecorder *spans = opts.spans;
    RoundResult res;

    const double t0 = processCpuSeconds();
    // Inputs: segment keys with duplicates; phase-2 op list per
    // thread (lookups of segment keys, or inserts of fresh keys).
    std::vector<uint64_t> seg(segments);
    std::vector<std::vector<uint64_t>> p2(threads);
    std::vector<std::vector<bool>> p2Insert(threads);
    {
        ScopedSpan span(spans, "bench.inputs", Layer::Bench);
        Rng rng(mix64(opts.seed ^ 0x21));
        for (auto &s : seg)
            s = 1 + rng.below(keySpace);
        std::unordered_set<uint64_t> fresh;
        for (uint32_t t = 0; t < threads; t++) {
            for (uint32_t j = 0; j < phase2PerThread; j++) {
                const bool ins = j % kFreshEvery == kFreshEvery - 1;
                uint64_t key = seg[rng.below(segments)];
                while (ins) {
                    key = keySpace + 1 + rng.below(1ull << 40);
                    if (fresh.insert(key).second)
                        break;
                }
                p2[t].push_back(key);
                p2Insert[t].push_back(ins);
            }
        }
    }
    MachineConfig cfg;
    cfg.mode = SystemMode::CommTm;
    cfg.conflictDetection = ConflictDetection::Eager;
    cfg.seed = mix64(opts.seed ^ 0x22);
    std::unique_ptr<Machine> m;
    {
        ScopedSpan span(spans, "rt.machine", Layer::Rt);
        m = std::make_unique<Machine>(cfg);
    }
    std::unique_ptr<ResizableHashMap> table;
    Addr segArr = 0, remainingAddr = 0;
    bool remainingFound = false;
    {
        ScopedSpan span(spans, "lib.alloc", Layer::Lib);
        const Label bounded = BoundedCounter::defineLabel(*m);
        // The map allocates its header line, its resize-lock line and
        // then its remaining-space counter; locate the counter from
        // the allocator watermark and confirm it by its initial value.
        const Addr header = (m->allocator().watermark() + kLineSize - 1) &
                            ~Addr(kLineSize - 1);
        table = std::make_unique<ResizableHashMap>(*m, bounded,
                                                   kInitialBuckets, kFill);
        remainingAddr = header + 2 * kLineSize;
        remainingFound = m->memory().read<int64_t>(remainingAddr) ==
                         int64_t(kFill * kInitialBuckets);
        segArr = m->allocator().alloc(8 * segments, kLineSize);
        for (uint64_t i = 0; i < segments; i++)
            m->memory().write<uint64_t>(segArr + 8 * i, seg[i]);
    }
    std::vector<std::vector<uint64_t>> lat(threads);
    // Per-op outcomes: phase-1 insert results, phase-2 results/values.
    std::vector<uint8_t> inserted(segments, 0);
    std::vector<std::vector<uint8_t>> p2Ok(threads);
    std::vector<std::vector<uint64_t>> p2Val(threads);
    {
        ScopedSpan span(spans, "rt.attach", Layer::Rt);
        ClosedLoopFrontend fe;
        for (uint32_t t = 0; t < threads; t++) {
            p2Ok[t].assign(phase2PerThread, 0);
            p2Val[t].assign(phase2PerThread, 0);
            fe.add([&, t](ThreadContext &ctx) {
                const uint64_t lo = uint64_t(t) * segsPerThread;
                uint64_t req = uint64_t(t) << 32;
                for (uint64_t i = lo; i < lo + segsPerThread; i++, req++) {
                    uint64_t key = 0;
                    {
                        ScopedSpan tx(spans, "htm.txRun", Layer::Htm, t,
                                      req);
                        ctx.txRun([&] {
                            key = ctx.read<uint64_t>(segArr + 8 * i);
                        });
                    }
                    timedCall(spans, "lib.insert", ctx, req, lat[t], [&] {
                        inserted[i] = table->insert(ctx, key, valueOf(key));
                    });
                    ctx.compute(4); // hashing the segment
                }
                ctx.barrier();
                for (uint32_t j = 0; j < phase2PerThread; j++, req++) {
                    const uint64_t key = p2[t][j];
                    if (p2Insert[t][j]) {
                        timedCall(spans, "lib.insert", ctx, req, lat[t],
                                  [&] {
                            p2Ok[t][j] =
                                table->insert(ctx, key, valueOf(key));
                        });
                    } else {
                        timedCall(spans, "lib.lookup", ctx, req, lat[t],
                                  [&] {
                            p2Ok[t][j] =
                                table->lookup(ctx, key, &p2Val[t][j]);
                        });
                    }
                    ctx.compute(4);
                }
            });
        }
        fe.attach(*m);
    }
    const double t1 = processCpuSeconds();
    {
        ScopedSpan span(spans, "rt.run", Layer::Rt);
        m->run();
    }
    const double t2 = processCpuSeconds();
    res.setupS = t1 - t0;
    res.runS = res.machineRunS = t2 - t1;
    res.stats = m->stats();
    setLatencies(res, lat);
    const uint64_t freshPerThread = phase2PerThread / kFreshEvery;
    res.counts["lib.calls.insert"] =
        double(segments + uint64_t(threads) * freshPerThread);
    res.counts["lib.calls.lookup"] =
        double(uint64_t(threads) * (phase2PerThread - freshPerThread));

    // Operations: phase-1 inserts [0, segments), then phase-2 ops.
    const auto p2Op = [&](uint32_t t, uint32_t j) {
        return segments + uint64_t(t) * phase2PerThread + j;
    };
    Checker chk(opts, res, segments + uint64_t(threads) * phase2PerThread);

    // Host-side expected key set.
    std::unordered_set<uint64_t> keys(seg.begin(), seg.end());
    for (uint32_t t = 0; t < threads; t++) {
        for (uint32_t j = 0; j < phase2PerThread; j++) {
            if (p2Insert[t][j])
                keys.insert(p2[t][j]);
        }
    }

    if (chk.begin("set.keys"))
        keys.insert(keySpace + (1ull << 41)); // a key nobody inserted
    {
        const uint64_t size = table->peekSize(*m);
        if (size != keys.size()) {
            chk.fail("peekSize " + std::to_string(size) +
                     " != expected " + std::to_string(keys.size()));
        }
        const auto present = [&](uint64_t key) {
            uint64_t v = 0;
            return table->peekLookup(*m, key, &v) && v == valueOf(key);
        };
        for (uint64_t i = 0; i < segments; i++) {
            if (!present(seg[i]))
                chk.failOp(i, "inserted key missing from the final set");
        }
        for (uint32_t t = 0; t < threads; t++) {
            for (uint32_t j = 0; j < phase2PerThread; j++) {
                if (p2Insert[t][j] && !present(p2[t][j]))
                    chk.failOp(p2Op(t, j), "fresh key missing");
            }
        }
        for (uint64_t key : keys) {
            if (!present(key)) {
                chk.fail("expected key " + std::to_string(key) +
                         " missing from the final set");
                break;
            }
        }
    }
    chk.end();

    // Exactly one insert of each distinct key reports success.
    const bool injectOnce = chk.begin("set.insert_once");
    {
        std::unordered_map<uint64_t, uint32_t> wins;
        for (uint64_t i = 0; i < segments; i++)
            wins[seg[i]] += inserted[i];
        if (injectOnce)
            wins[seg[0]]++;
        for (uint64_t i = 0; i < segments; i++) {
            if (wins[seg[i]] != 1)
                chk.failOp(i, "key inserted successfully " +
                                  std::to_string(wins[seg[i]]) + " times");
        }
        for (uint32_t t = 0; t < threads; t++) {
            for (uint32_t j = 0; j < phase2PerThread; j++) {
                if (p2Insert[t][j] && !p2Ok[t][j])
                    chk.failOp(p2Op(t, j), "fresh insert rejected");
            }
        }
    }
    chk.end();

    // Every phase-2 lookup targets a key inserted before the barrier.
    const bool injectLookup = chk.begin("set.lookups");
    for (uint32_t t = 0; t < threads; t++) {
        for (uint32_t j = 0; j < phase2PerThread; j++) {
            if (p2Insert[t][j])
                continue;
            uint64_t want = valueOf(p2[t][j]);
            if (injectLookup && t == 0)
                want ^= 1;
            if (!p2Ok[t][j] || p2Val[t][j] != want)
                chk.failOp(p2Op(t, j), "lookup of an inserted key failed");
        }
    }
    chk.end();

    // The remaining-space counter tracks capacity minus size.
    const bool injectRemaining = chk.begin("set.remaining");
    if (!remainingFound) {
        chk.fail("remaining-space counter not found at its address");
    } else {
        const LineData line =
            m->memSys().debugReducedValue(lineAddr(remainingAddr));
        int64_t remaining = 0;
        std::memcpy(&remaining, line.data() + lineOffset(remainingAddr),
                    sizeof(remaining));
        const int64_t capacity =
            int64_t(kFill * double(table->peekBuckets(*m)));
        const int64_t want = capacity - int64_t(keys.size()) +
                             (injectRemaining ? 1 : 0);
        if (remaining != want) {
            chk.fail("remaining " + std::to_string(remaining) +
                     " != capacity - size " + std::to_string(want));
        }
    }
    chk.end();
    checkAccounting(chk, res.stats, "htm.accounting");
    return res;
}

// ---------------------------------------------------------------------
// svc_list_observed: CommTM at 256 threads, open-loop Zipf-keyed
// enqueue/dequeue requests over a few lists, all observers on; the
// capture is serialized, parsed and replayed on a lazy machine.
// ---------------------------------------------------------------------

struct SvcOp {
    uint32_t list;
    bool enqueue;
    bool ok;
    uint64_t value;
};

RoundResult
runSvcListObserved(const RoundOptions &opts)
{
    const uint32_t threads = opts.small ? 32 : 256;
    const uint32_t kLists = 4;
    const uint32_t kEnqueuePct = 70;
    const uint64_t kRequestWork = 48;
    const bool observe = !opts.observersOff;
    SpanRecorder *spans = opts.spans;
    RoundResult res;

    const double t0 = processCpuSeconds();
    MachineConfig cfg = MachineConfig::forCores(threads);
    cfg.mode = SystemMode::CommTm;
    cfg.conflictDetection = ConflictDetection::Eager;
    cfg.seed = mix64(opts.seed ^ 0x31);
    cfg.recordCommits = observe;
    cfg.captureTrace = observe;
    cfg.checkInvariants = observe;

    OpenLoopConfig ol;
    ol.pattern.kind = ArrivalPattern::Kind::Poisson;
    ol.pattern.meanGap = 4000;
    ol.arrivalsPerThread = opts.small ? 16 : 48;
    ol.warmupPerThread = opts.small ? 4 : 8;
    ol.queueDepth = 16;
    ol.zipfItems = kLists;
    ol.zipfS = 0.99;
    ol.seed = mix64(opts.seed ^ 0x32);
    const uint64_t opSeed = mix64(opts.seed ^ 0x33);

    std::vector<std::vector<SvcOp>> log(threads);
    std::vector<std::unique_ptr<CommList>> lists;
    std::unique_ptr<ReplayOracle> oracle;
    std::vector<uint32_t> modelId(kLists);
    const bool injectOracle = opts.inject == "svc.oracle";

    std::unique_ptr<OpenLoopFrontend> fe;
    {
        ScopedSpan span(spans, "rt.arrivals", Layer::Rt);
        fe = std::make_unique<OpenLoopFrontend>(
            ol, threads, [&](ThreadContext &ctx, uint64_t key) {
                const uint32_t t = ctx.id();
                const uint64_t seq = log[t].size();
                const uint64_t req = (uint64_t(t) << 32) | seq;
                ScopedSpan reqSpan(spans, "bench.request", Layer::Bench, t,
                                   req);
                ctx.compute(kRequestWork);
                SvcOp op{uint32_t(key), false, false, 0};
                op.enqueue = mix64(opSeed ^ req) % 100 < kEnqueuePct;
                {
                    ScopedSpan call(spans,
                                    op.enqueue ? "lib.enqueue"
                                               : "lib.dequeue",
                                    Layer::Lib, t, req);
                    if (op.enqueue) {
                        op.value = req;
                        lists[key]->enqueue(ctx, op.value);
                        op.ok = true;
                    } else {
                        op.ok = lists[key]->dequeue(ctx, &op.value);
                    }
                }
                if (oracle) {
                    oracle->recordOp(
                        ctx, ModelOp{modelId[key],
                                     op.enqueue ? ListModel::kEnqueue
                                                : ListModel::kDequeue,
                                     op.ok, {op.ok ? op.value : 0}});
                }
                log[t].push_back(op);
            });
    }
    std::unique_ptr<Machine> m;
    {
        ScopedSpan span(spans, "rt.machine", Layer::Rt);
        m = std::make_unique<Machine>(cfg);
    }
    {
        ScopedSpan span(spans, "lib.alloc", Layer::Lib);
        const Label label = CommList::defineLabel(*m);
        for (uint32_t l = 0; l < kLists; l++)
            lists.push_back(std::make_unique<CommList>(*m, label));
        if (observe) {
            oracle = std::make_unique<ReplayOracle>(*m);
            for (uint32_t l = 0; l < kLists; l++) {
                modelId[l] = oracle->addModel(std::make_unique<ListModel>(
                    lists[l].get(), injectOracle && l == 0));
            }
        }
    }
    {
        ScopedSpan span(spans, "rt.attach", Layer::Rt);
        fe->attach(*m);
    }
    const double t1 = processCpuSeconds();
    {
        ScopedSpan span(spans, "rt.run", Layer::Rt);
        m->run();
    }
    const double t2 = processCpuSeconds();
    res.setupS = t1 - t0;
    res.machineRunS = t2 - t1;
    res.stats = m->stats();

    // Serialize, parse and replay the capture on the lazy machine.
    Trace trace;
    StatsSnapshot replayStats;
    std::string parseError;
    bool parsed = false;
    if (observe) {
        std::vector<uint8_t> bytes;
        {
            ScopedSpan span(spans, "trace.serialize", Layer::Trace);
            bytes = m->traceWriter()->serialize();
        }
        {
            ScopedSpan span(spans, "trace.parse", Layer::Trace);
            parsed = TraceReader::parse(bytes, &trace, &parseError);
        }
        if (parsed) {
            ScopedSpan span(spans, "trace.replay", Layer::Trace);
            MachineConfig lazy = cfg;
            lazy.conflictDetection = ConflictDetection::Lazy;
            lazy.recordCommits = false;
            lazy.captureTrace = false;
            lazy.checkInvariants = false;
            Machine rm(lazy);
            (void)CommList::defineLabel(rm);
            ReplayFrontend rfe(trace);
            rfe.attach(rm);
            rm.run();
            replayStats = rm.stats();
            res.replayAccesses = replayStats.machine.l1Hits +
                                 replayStats.machine.l1Misses;
        }
        res.counts["trace.bytes"] = double(bytes.size());
        uint64_t records = 0;
        for (const auto &stream : trace.threads)
            records += stream.size();
        res.counts["trace.records"] = double(records);
        res.counts["trace.replay_cyc"] = double(replayStats.runtimeCycles());
        res.counts["trace.replay_commits"] =
            double(replayStats.aggregateThreads().txCommitted);
        res.counts["sim.commit_records"] =
            double(m->commitLog()->records().size());
        res.counts["sim.invariant_sweeps"] =
            double(m->invariantChecker()->sweeps());
    }
    res.runS = processCpuSeconds() - t1;

    const LatencyHistogram hist = fe->mergedMeasure();
    res.latencySamples = hist.totalCount();
    res.txP50 = hist.p50();
    res.txP99 = hist.p99();
    const ServiceStats svc = fe->totalService();
    res.counts["rt.ol_admitted"] = double(svc.admitted);
    res.counts["rt.ol_dropped"] = double(svc.dropped);
    res.counts["rt.ol_qdepth_max"] = double(svc.maxDepth);
    uint64_t enq = 0, deq = 0;
    for (const auto &ops : log) {
        for (const SvcOp &op : ops)
            (op.enqueue ? enq : deq)++;
    }
    res.counts["lib.calls.enqueue"] = double(enq);
    res.counts["lib.calls.dequeue"] = double(deq);

    // Operations: every arrival of every thread's schedule.
    const uint64_t arrivals = uint64_t(threads) * ol.arrivalsPerThread;
    Checker chk(opts, res, arrivals);
    const auto opIndex = [&](uint32_t t, uint64_t seq) {
        return uint64_t(t) * ol.arrivalsPerThread + seq;
    };

    const uint64_t wantDropped = chk.begin("svc.no_drops") ? 1 : 0;
    if (svc.dropped != wantDropped) {
        chk.fail(std::to_string(svc.dropped) + " arrivals dropped, " +
                 std::to_string(wantDropped) + " expected");
    }
    chk.end();

    const bool injectDone = chk.begin("svc.completed");
    for (uint32_t t = 0; t < threads; t++) {
        const ServiceStats &s = fe->serviceStats(t);
        const uint64_t want = s.admitted + (injectDone && t == 0 ? 1 : 0);
        for (uint64_t seq = std::min<uint64_t>(s.completed, log[t].size());
             seq < ol.arrivalsPerThread; seq++) {
            chk.failOp(opIndex(t, seq), "request never serviced");
        }
        if (s.completed != want || log[t].size() != want)
            chk.fail("admitted requests not all completed");
    }
    chk.end();

    // Conservation: every enqueued value leaves exactly once, through
    // a dequeue of the same list or in that list's final contents.
    const bool injectCons = chk.begin("svc.conservation");
    {
        // (list, value) -> times the value left that list.
        using Key = std::pair<uint32_t, uint64_t>;
        std::map<Key, int64_t> out;
        for (uint32_t l = 0; l < kLists; l++) {
            for (uint64_t v : lists[l]->peekAll(*m))
                out[Key(l, v)]++;
        }
        for (uint32_t t = 0; t < threads; t++) {
            for (const SvcOp &op : log[t]) {
                if (!op.enqueue && op.ok)
                    out[Key(op.list, op.value)]++;
            }
        }
        bool skipped = !injectCons;
        std::set<Key> enqueued;
        for (uint32_t t = 0; t < threads; t++) {
            for (uint64_t seq = 0; seq < log[t].size(); seq++) {
                const SvcOp &op = log[t][seq];
                if (!op.enqueue)
                    continue;
                if (!skipped) {
                    skipped = true; // expectation forgets this value
                    continue;
                }
                const Key k = Key(op.list, op.value);
                enqueued.insert(k);
                auto it = out.find(k);
                if (it == out.end() || it->second != 1) {
                    chk.failOp(opIndex(t, seq),
                               "enqueued value lost or duplicated");
                }
            }
        }
        for (uint32_t t = 0; t < threads; t++) {
            for (uint64_t seq = 0; seq < log[t].size(); seq++) {
                const SvcOp &op = log[t][seq];
                if (!op.enqueue && op.ok &&
                    !enqueued.count(Key(op.list, op.value))) {
                    chk.failOp(opIndex(t, seq),
                               "dequeued a value never enqueued");
                }
            }
        }
        for (const auto &kv : out) {
            if (!enqueued.count(kv.first)) {
                chk.fail("a value left a list it was never enqueued on");
                break;
            }
        }
    }
    chk.end();

    if (observe) {
        chk.begin("svc.oracle");
        std::string diag;
        bool agreed;
        {
            ScopedSpan span(spans, "sim.oracle", Layer::Sim);
            agreed = oracle->replaySerial(&diag);
        }
        if (!agreed)
            chk.fail("serial replay disagrees: " + diag);
        chk.end();

        const bool injectReplay = chk.begin("svc.replay_commits");
        const uint64_t captured =
            res.stats.aggregateThreads().txCommitted +
            (injectReplay ? 1 : 0);
        if (!parsed) {
            chk.fail("capture does not parse: " + parseError);
        } else if (replayStats.aggregateThreads().txCommitted != captured ||
                   trace.commitOrder.size() != captured) {
            chk.fail("lazy replay committed " +
                     std::to_string(
                         replayStats.aggregateThreads().txCommitted) +
                     " transactions, capture holds " +
                     std::to_string(captured));
        }
        chk.end();
        checkAccounting(chk, replayStats, "htm.accounting_replay");
    }
    checkAccounting(chk, res.stats, "htm.accounting");
    return res;
}

struct Entry {
    const char *name;
    WorkloadFn fn;
    std::vector<std::string> checks;
};

const std::vector<Entry> &
registry()
{
    static const std::vector<Entry> entries = {
        {"list_abort_storm", runListAbortStorm,
         {"list.multiset", "list.thread_order", "htm.accounting"}},
        {"hashset_dedup", runHashsetDedup,
         {"set.keys", "set.insert_once", "set.lookups", "set.remaining",
          "htm.accounting"}},
        {"svc_list_observed", runSvcListObserved,
         {"svc.no_drops", "svc.completed", "svc.conservation",
          "svc.oracle", "svc.replay_commits", "htm.accounting_replay",
          "htm.accounting"}},
    };
    return entries;
}

} // namespace

WorkloadFn
findWorkload(const std::string &name)
{
    for (const Entry &e : registry()) {
        if (name == e.name)
            return e.fn;
    }
    return nullptr;
}

std::vector<std::string>
checkNames(const std::string &workload)
{
    for (const Entry &e : registry()) {
        if (workload == e.name)
            return e.checks;
    }
    return {};
}

} // namespace perfbench
