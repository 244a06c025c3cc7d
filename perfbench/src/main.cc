/**
 * @file
 * Benchmark entry point: runs whole rounds of one workload for the given
 * number of seconds and prints one JSON result line (README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--small] [--inject CHECK]
 *   perfbench --list-checks NAME
 *
 * --trace 0 reports the end-to-end metrics from untraced rounds;
 * --trace 1 alternates untraced and traced rounds and reports the
 * per-layer metrics, the tracing overhead, and a self-time table, and
 * writes the last traced round's spans to kChromeDir.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using commtm::ThreadStats;
using commtm::AbortCause;

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool small = false;
    std::string inject;
};

/** Where a traced run writes its Chrome trace-event file, relative to
 *  the working directory (the repository root). */
constexpr const char *kChromeDir = ".bench_build/perfbench";

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--small] "
                 "[--inject CHECK]\n"
                 "       perfbench --list-checks NAME\n",
                 msg);
    std::exit(2);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Every simulated number a round reports; rounds of one seed must
 *  agree on all of them exactly. */
std::vector<uint64_t>
simSignature(const RoundResult &r)
{
    const ThreadStats s = r.stats.aggregateThreads();
    const auto &ms = r.stats.machine;
    std::vector<uint64_t> sig = {
        r.stats.runtimeCycles(), r.txP50, r.txP99, r.latencySamples,
        s.txStarted, s.txCommitted, s.txAborted, s.nonTxCycles,
        s.txCommittedCycles, s.txAbortedCycles, s.instrs,
        s.labeledInstrs, ms.l1Hits, ms.l1Misses, ms.l2Hits, ms.l3Misses,
        ms.invalidations, ms.nacks, ms.reductions, ms.gathers,
        ms.splits, ms.writebacks, r.replayAccesses};
    for (const char *k : {"trace.bytes", "trace.replay_cyc",
                          "trace.replay_commits", "sim.commit_records",
                          "rt.ol_dropped"}) {
        auto it = r.counts.find(k);
        sig.push_back(it == r.counts.end() ? 0 : uint64_t(it->second));
    }
    return sig;
}

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

/** Per-layer numbers taken from one traced round's spans: host phases
 *  in process CPU seconds, structure calls in wall ns of self time. */
struct SpanFigures {
    double setupS = 0, runS = 0, schedShare = 0;
    std::map<std::string, std::vector<double>> callNs; //!< self ns
    std::map<std::string, double> phaseS; //!< trace.* and sim.* spans
};

SpanFigures
spanFigures(const SpanRecorder &rec)
{
    SpanFigures f;
    uint64_t runSelf = 0, runDur = 0;
    for (const Span &s : rec.spans()) {
        const std::string name = s.name;
        if (name == "rt.machine" || name == "rt.attach") {
            f.setupS += s.cpuSeconds();
        } else if (name == "rt.run") {
            f.runS += s.cpuSeconds();
            runSelf += s.self;
            runDur += s.end - s.start;
        } else if (s.layer == Layer::Lib && name != "lib.alloc") {
            f.callNs[name.substr(4)].push_back(double(s.self));
        } else if (s.layer == Layer::Trace || s.layer == Layer::Sim) {
            f.phaseS[name + "_s"] += s.cpuSeconds();
        }
    }
    f.schedShare = runDur ? double(runSelf) / double(runDur) : 0;
    return f;
}

/** The per-layer self-time table of one traced round, by span name
 *  and by layer. */
void
printSelfTimeTable(const SpanRecorder &rec)
{
    struct Row {
        Layer layer;
        uint64_t count = 0, self = 0;
    };
    std::map<std::string, Row> byName;
    std::map<std::string, uint64_t> byLayer;
    uint64_t total = 0;
    for (const Span &s : rec.spans()) {
        Row &row = byName[s.name];
        row.layer = s.layer;
        row.count++;
        row.self += s.self;
        byLayer[layerName(s.layer)] += s.self;
        total += s.self;
    }
    std::printf("%-18s %-6s %9s %11s %7s\n", "span", "layer", "count",
                "self_ms", "share");
    for (const auto &kv : byName) {
        std::printf("%-18s %-6s %9llu %11.3f %6.1f%%\n", kv.first.c_str(),
                    layerName(kv.second.layer),
                    (unsigned long long)kv.second.count,
                    double(kv.second.self) / 1e6,
                    total ? 100.0 * double(kv.second.self) / double(total)
                          : 0.0);
    }
    std::printf("%-18s %-6s %9s %11s %7s\n", "layer total", "", "",
                "self_ms", "share");
    for (const auto &kv : byLayer) {
        std::printf("%-18s %-6s %9s %11.3f %6.1f%%\n", kv.first.c_str(), "",
                    "", double(kv.second) / 1e6,
                    total ? 100.0 * double(kv.second) / double(total) : 0.0);
    }
}

double
peakRssMb()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** The simulated counters of the per-layer report (mem, htm, commtm,
 *  rt.nontx_cyc); identical in every round of one seed. */
void
counterMetrics(const RoundResult &r, std::vector<Metric> &out)
{
    const ThreadStats s = r.stats.aggregateThreads();
    const auto &ms = r.stats.machine;
    const auto cause = [&](AbortCause c) {
        return double(s.abortsByCause[size_t(c)]);
    };
    const double accesses = double(ms.l1Hits + ms.l1Misses);
    const auto gets = [&](commtm::GetType g) {
        return double(ms.l3Gets[size_t(g)]);
    };
    out.push_back({"rt.nontx_cyc", double(s.nonTxCycles), "cycles"});
    out.push_back({"mem.accesses", accesses, "count"});
    out.push_back({"mem.l1_hits", double(ms.l1Hits), "count"});
    out.push_back({"mem.l2_hits", double(ms.l2Hits), "count"});
    out.push_back({"mem.l3_misses", double(ms.l3Misses), "count"});
    out.push_back({"mem.gets", gets(commtm::GetType::GETS), "count"});
    out.push_back({"mem.getx", gets(commtm::GetType::GETX), "count"});
    out.push_back({"mem.getu", gets(commtm::GetType::GETU), "count"});
    out.push_back({"mem.invalidations", double(ms.invalidations), "count"});
    out.push_back({"mem.nacks", double(ms.nacks), "count"});
    out.push_back({"mem.downgrades", double(ms.downgrades), "count"});
    out.push_back({"mem.writebacks", double(ms.writebacks), "count"});
    out.push_back({"mem.reductions", double(ms.reductions), "count"});
    out.push_back({"mem.gathers", double(ms.gathers), "count"});
    out.push_back({"mem.splits", double(ms.splits), "count"});
    out.push_back({"mem.u_forwards", double(ms.uForwards), "count"});
    out.push_back({"htm.tx_started", double(s.txStarted), "count"});
    out.push_back({"htm.tx_committed", double(s.txCommitted), "count"});
    out.push_back({"htm.commit_ratio",
                   s.txStarted ? double(s.txCommitted) / double(s.txStarted)
                               : 0.0,
                   "ratio"});
    out.push_back({"htm.aborts_raw", cause(AbortCause::ReadAfterWrite),
                   "count"});
    out.push_back({"htm.aborts_war", cause(AbortCause::WriteAfterRead),
                   "count"});
    out.push_back({"htm.aborts_waw", cause(AbortCause::WriteAfterWrite),
                   "count"});
    out.push_back({"htm.aborts_gather",
                   cause(AbortCause::GatherAfterLabeled), "count"});
    out.push_back({"htm.aborts_labeled", cause(AbortCause::LabeledConflict),
                   "count"});
    out.push_back({"htm.aborts_capacity", cause(AbortCause::Capacity),
                   "count"});
    out.push_back({"htm.aborts_other",
                   cause(AbortCause::UEviction) +
                       cause(AbortCause::SelfDemotion) +
                       cause(AbortCause::Explicit),
                   "count"});
    out.push_back({"htm.committed_cyc", double(s.txCommittedCycles),
                   "cycles"});
    out.push_back({"htm.wasted_cyc", double(s.txAbortedCycles), "cycles"});
    out.push_back({"commtm.labeled_instrs", double(s.labeledInstrs),
                   "count"});
    out.push_back({"commtm.labeled_frac",
                   s.instrs ? double(s.labeledInstrs) / double(s.instrs)
                            : 0.0,
                   "ratio"});
}

int
run(const Args &args)
{
    const WorkloadFn fn = findWorkload(args.workload);
    if (!fn)
        usage(("unknown workload " + args.workload).c_str());

    RoundOptions opts;
    opts.seed = args.seed;
    opts.small = args.small;
    opts.inject = args.inject;

    uint64_t attempted = 0, failed = 0;
    bool correct = true;
    std::vector<uint64_t> signature;
    const auto account = [&](const RoundResult &r) {
        attempted += r.attempted;
        failed += r.failed();
        for (const CheckResult &c : r.checks) {
            if (!c.ok) {
                correct = false;
                std::fprintf(stderr, "check %s failed: %s\n",
                             c.name.c_str(), c.diag.c_str());
            }
        }
        if (signature.empty()) {
            signature = simSignature(r);
            if (args.inject == "sim.repeat")
                signature[0] ^= 1; // self-test: falsify the expectation
        } else if (simSignature(r) != signature) {
            correct = false;
            failed++;
            std::fprintf(stderr, "check sim.repeat failed: simulated "
                                 "results differ between rounds\n");
        }
    };

    // Warm-up round: fills the allocator's free lists and the page
    // tables; its outputs are checked but its times are not used.
    RoundResult first = fn(opts);
    account(first);

    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    const int minRounds = args.small ? 1 : 3;

    std::vector<double> setupS, runS, machineRunS;
    std::vector<Metric> metrics;
    if (!args.trace) {
        for (int i = 0; i < minRounds || elapsed() < args.seconds; i++) {
            RoundResult r = fn(opts);
            account(r);
            setupS.push_back(r.setupS);
            runS.push_back(r.runS);
            std::fprintf(stderr, "round %d setup_s %.6f run_s %.6f\n", i,
                         r.setupS, r.runS);
        }
        // run_s is the mean over rounds, not the median: host speed on
        // a shared VM switches between a fast and a slow regime every
        // few seconds, and the mean moves smoothly with the share of
        // time spent in each, where the median jumps between them
        // (README.md, "Noise and bounds").
        double runMean = 0;
        for (double v : runS)
            runMean += v / double(runS.size());
        // Every simulated access run_s covers: on svc_list_observed the
        // lazy replay's too.
        const auto &ms = first.stats.machine;
        const double accesses =
            double(ms.l1Hits + ms.l1Misses + first.replayAccesses);
        metrics = {
            {"setup_s", median(setupS), "s"},
            {"run_s", runMean, "s"},
            {"sim_maccess_per_s", accesses / runMean / 1e6, "M/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_cycles", double(first.stats.runtimeCycles()), "cycles"},
            {"tx_p50_cyc", double(first.txP50), "cycles"},
            {"tx_p99_cyc", double(first.txP99), "cycles"},
        };
        if (first.latencySamples < 1000 && !args.small) {
            correct = false;
            std::fprintf(stderr, "only %llu latency samples\n",
                         (unsigned long long)first.latencySamples);
        }
    } else {
        const bool svc = args.workload == "svc_list_observed";
        std::vector<double> tracedRunS, offRunS;
        std::vector<SpanFigures> figs;
        std::unique_ptr<SpanRecorder> last;
        for (int i = 0; i < minRounds || elapsed() < args.seconds; i++) {
            RoundResult plain = fn(opts);
            account(plain);
            runS.push_back(plain.runS);
            machineRunS.push_back(plain.machineRunS);
            if (svc) {
                RoundOptions off = opts;
                off.observersOff = true;
                off.inject.clear();
                RoundResult r = fn(off);
                for (const CheckResult &c : r.checks)
                    correct = correct && c.ok;
                offRunS.push_back(r.machineRunS);
            }
            auto rec = std::make_unique<SpanRecorder>();
            RoundOptions traced = opts;
            traced.spans = rec.get();
            RoundResult r = fn(traced);
            account(r);
            tracedRunS.push_back(r.runS);
            figs.push_back(spanFigures(*rec));
            last = std::move(rec);
        }
        const auto med = [&](auto get) {
            std::vector<double> v;
            for (const SpanFigures &f : figs)
                v.push_back(get(f));
            return median(v);
        };
        // Workload-specific counts and phase times read 0 where they do
        // not apply.
        const auto count = [&](const std::string &k) {
            auto it = first.counts.find(k);
            return it == first.counts.end() ? 0.0 : it->second;
        };
        const auto phase = [&](const std::string &k) {
            return med([&](const SpanFigures &f) {
                auto it = f.phaseS.find(k);
                return it == f.phaseS.end() ? 0.0 : it->second;
            });
        };
        const double rtRunS = med([](const SpanFigures &f) {
            return f.runS;
        });
        const ThreadStats s = first.stats.aggregateThreads();
        const auto &ms = first.stats.machine;
        const double accesses = double(ms.l1Hits + ms.l1Misses);
        metrics.push_back({"rt.setup_s", med([](const SpanFigures &f) {
                               return f.setupS;
                           }),
                           "s"});
        metrics.push_back({"rt.run_s", rtRunS, "s"});
        metrics.push_back({"rt.sched_share", med([](const SpanFigures &f) {
                               return f.schedShare;
                           }),
                           "ratio"});
        for (const char *k : {"rt.ol_admitted", "rt.ol_dropped",
                              "rt.ol_qdepth_max"})
            metrics.push_back({k, count(k), "count"});
        counterMetrics(first, metrics);
        metrics.push_back({"mem.host_ns_per_access",
                           accesses ? rtRunS * 1e9 / accesses : 0.0, "ns"});
        metrics.push_back({"htm.host_us_per_attempt",
                           s.txStarted ? rtRunS * 1e6 / double(s.txStarted)
                                       : 0.0,
                           "us"});
        for (const char *op : {"enqueue", "dequeue", "insert", "lookup"}) {
            const std::string k = std::string("lib.calls.") + op;
            metrics.push_back({k, count(k), "count"});
        }
        for (const char *op : {"enqueue", "dequeue", "insert", "lookup"}) {
            for (const auto &[tag, q] :
                 {std::pair<const char *, double>{"p50", 0.50},
                  std::pair<const char *, double>{"p99", 0.99}}) {
                metrics.push_back(
                    {std::string("lib.call_ns.") + op + "." + tag,
                     med([&, op = op, q = q](const SpanFigures &f) {
                         auto it = f.callNs.find(op);
                         return it == f.callNs.end()
                                    ? 0.0
                                    : nearestRank(it->second, q);
                     }),
                     "ns"});
            }
        }
        metrics.push_back({"trace.bytes", count("trace.bytes"), "bytes"});
        metrics.push_back({"trace.records", count("trace.records"), "count"});
        for (const char *k : {"trace.serialize_s", "trace.parse_s",
                              "trace.replay_s"})
            metrics.push_back({k, phase(k), "s"});
        metrics.push_back(
            {"trace.replay_cyc", count("trace.replay_cyc"), "cycles"});
        for (const char *k : {"trace.replay_commits", "sim.commit_records",
                              "sim.invariant_sweeps"})
            metrics.push_back({k, count(k), "count"});
        metrics.push_back({"sim.oracle_s", phase("sim.oracle_s"), "s"});
        metrics.push_back(
            {"sim.observer_overhead",
             svc ? median(machineRunS) / median(offRunS) : 0.0, "ratio"});
        metrics.push_back({"bench.trace_overhead",
                           median(tracedRunS) / median(runS), "ratio"});

        printSelfTimeTable(*last);
        const std::string chrome = std::string(kChromeDir) + "/trace_" +
                                   args.workload + ".json";
        last->writeChrome(chrome);
        std::fprintf(stderr, "chrome trace: %s\n", chrome.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using perfbench::usage;
    perfbench::Args args;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            args.workload = value();
        } else if (a == "--seed") {
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::atof(value().c_str());
        } else if (a == "--trace") {
            args.trace = value() == "1";
        } else if (a == "--small") {
            args.small = true;
        } else if (a == "--inject") {
            args.inject = value();
        } else if (a == "--list-checks") {
            for (const std::string &c : perfbench::checkNames(value()))
                std::printf("%s\n", c.c_str());
            std::printf("sim.repeat\n");
            return 0;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return perfbench::run(args);
}
