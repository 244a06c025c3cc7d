/**
 * @file
 * The benchmark's three workloads (README.md, "Workloads"). Each call
 * runs one whole round: it generates the inputs from the seed, builds
 * and runs the simulated machine, and checks the outputs against
 * expectations computed apart from the simulator.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "spans.h"

namespace perfbench {

struct RoundOptions {
    uint64_t seed = 1;
    /** Tiny input sizes for the self-test. */
    bool small = false;
    /** Name of the check whose host-side expectation is deliberately
     *  falsified (self-test), or empty. */
    std::string inject;
    /** Span recorder of the traced run, or null. */
    SpanRecorder *spans = nullptr;
    /** svc_list_observed only: run with commit recording, invariant
     *  checking and trace capture all off, and skip the observer-
     *  dependent steps (the observer-overhead reference run). */
    bool observersOff = false;
};

/**
 * Outcome of one named check. Operation checks mark the operations
 * they found wrong; whole-run checks (accounting laws, final sizes)
 * count one failure each.
 */
struct CheckResult {
    std::string name;
    bool ok = true;
    std::string diag;          //!< the first failure found
    bool wholeRunFailed = false;
};

struct RoundResult {
    double setupS = 0; //!< host CPU s: inputs, Machine, structures, threads
    double runS = 0;   //!< host CPU s: first simulated cycle to the end
    double machineRunS = 0; //!< host CPU s of the (captured) Machine::run

    commtm::StatsSnapshot stats; //!< the (captured) machine
    /** svc_list_observed: simulated accesses (l1Hits + l1Misses) of the
     *  lazy replay, which runS also covers. */
    uint64_t replayAccesses = 0;
    uint64_t txP50 = 0;
    uint64_t txP99 = 0;
    uint64_t latencySamples = 0;

    uint64_t attempted = 0; //!< operations issued
    uint64_t failedOps = 0; //!< operations an operation check rejected
    std::vector<CheckResult> checks;

    /** Workload-specific layer counts (lib.calls.*, rt.ol_*, trace.*,
     *  sim.*), already under their metric names. */
    std::map<std::string, double> counts;

    uint64_t failed() const;
};

/** Nearest-rank quantile of @p v (0 when empty). */
template <typename T>
T
nearestRank(std::vector<T> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(q * double(v.size()) + 0.999999);
    rank = std::max<size_t>(1, std::min(rank, v.size()));
    return v[rank - 1];
}

using WorkloadFn = RoundResult (*)(const RoundOptions &);

/** The workload called @p name, or null. */
WorkloadFn findWorkload(const std::string &name);
/** Names of the checks @p workload runs (for the self-test). */
std::vector<std::string> checkNames(const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
