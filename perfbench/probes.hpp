#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include "workloads.hpp"

#include <string>
#include <vector>

namespace perfbench {

/**
 * The per-layer ladder: the workload's own counters from the traced
 * phase (sim, fabric, tuner, serving) plus probes that time calls into
 * each module's public functions (gpu, core, channel, collective,
 * nccl_compat, dsl, baseline, inference). Probe calls count under
 * "probe".
 */
std::vector<Metric> runProbes(const std::string& workload,
                              std::uint64_t seed, const TimedPhase& traced,
                              OpCounts& ops);

/** Print every per-layer metric with the end-to-end metric and
 *  workload it should move, and the paper's value where one exists. */
void printLadder(const std::vector<Metric>& metrics);

/** Print host self time per span name (duration minus children). */
void printSelfTimes();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
