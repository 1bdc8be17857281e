#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "coll.hpp"
#include "serve.hpp"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** The three workloads. */
inline const std::vector<std::string> kWorkloads = {
    "coll_sweep", "serve_steady", "serve_disagg_fault"};

/** Host-cost and layer counters read from the workload's own passes. */
struct LayerReadings
{
    double eventsPerPass = 0;
    double eventsPerS = 0;
    double maxQueueDepth = 0;
    double framesPerPass = 0;
    double heapAllocsPerPass = 0;
    double intraBytesPerCall = 0;
    double netBytesPerCall = 0;
    double linkBusyPctMax = 0;
    double planHitPct = 0;
};

/** Result of one timed phase (untraced or traced). */
struct TimedPhase
{
    /// Host seconds of one pass: coll_sweep sums over shapes the 10th
    /// percentile of the shape's passes, serve takes the median stream.
    double hostWallS = 0;
    std::vector<double> setup; ///< host seconds per set-up
    /// Virtual-time results of the phase; repeats must match it.
    std::vector<double> fingerprint;
    bool deterministic = true;
    LayerReadings layers;
    /// Collective leg: reference pass per shape (coll_sweep) or of the
    /// serving node (companion of the serve workloads).
    std::vector<std::pair<Shape, GridPass>> collPasses;
    std::vector<GridPoint> grid;
    /// Serving leg: the request streams (companion for coll_sweep).
    std::optional<ServeBatch> serve;
    std::uint64_t passes = 0;
};

/**
 * Run the timed phase of @p workload, counting operations under
 * "setup", "warmup", "timed" and "repeat". coll_sweep measures grid
 * passes for about @p seconds of host time, in @p rounds set-up rounds
 * with at least @p minPasses passes per shape and round; the serve
 * workloads run a fixed number of streams set by @p seconds.
 */
TimedPhase runTimed(const std::string& workload, std::uint64_t seed,
                    double seconds, int minPasses, int rounds,
                    OpCounts& ops);

/** Print the effective configuration of @p workload for @p seed. */
void printConfig(const std::string& workload, std::uint64_t seed,
                 double seconds);

/** The request streams of a workload (coll_sweep: serve_steady's
 *  stream, fewer streams). */
ServeSpec serveSpecOf(const std::string& workload);

/** Run the leg the workload's timed phase lacks (serving for
 *  coll_sweep, the serving node's collectives for serve_*), outside
 *  every timed window, into @p phase. Counts under "companion". */
void runCompanion(const std::string& workload, std::uint64_t seed,
                  double seconds, TimedPhase& phase, OpCounts& ops);

/** Output checks of the workload (collectives <= 64 KiB in Functional
 *  mode; serving request invariants). */
void verifyWorkload(const std::string& workload, std::uint64_t seed,
                    const TimedPhase& phase, OpCounts& ops);

/** The end-to-end metrics of a phase (host metrics are added by the
 *  caller). */
std::vector<Metric> endToEndMetrics(const TimedPhase& phase);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
