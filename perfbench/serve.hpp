#ifndef PERFBENCH_SERVE_HPP
#define PERFBENCH_SERVE_HPP

#include "common.hpp"

#include "serving/cluster.hpp"

#include <string>
#include <vector>

namespace perfbench {

namespace serving = mscclpp::serving;

/** SLO limits every serving metric is judged against. */
inline constexpr sim::Time kSloTtft = sim::msec(1000);
inline constexpr sim::Time kSloTpot = sim::msec(50);

/** One open-loop request stream on a cluster of Llama2-70b TP=8
 *  replicas (A100-80G, MSCCL++ backend). */
struct ServeSpec
{
    int replicas = 4;
    int prefillReplicas = 0;
    serving::ArrivalMode mode = serving::ArrivalMode::Poisson;
    int requests = 1000;
    double rate = 10.0; ///< nominal req/s
    /// Streams per phase at --seconds 10, scaled with --seconds.
    int streams = 6;
    /// Degrade gpu3.tx of replica 2 to 0.05x from its step 200 until
    /// it recovers at step 1200.
    bool fault = false;
};

/** 4 unified replicas, Poisson at 10 req/s. */
ServeSpec steadySpec();
/** 2 prefill + 2 decode replicas, bursty (factor 4) at 5 req/s, with
 *  the link fault. */
ServeSpec disaggFaultSpec();

/** Everything read back from one cluster run. */
struct ServeRun
{
    std::vector<serving::RequestStats> stats;
    serving::ServingReport report;
    double setupS = 0;   ///< ServingCluster construction, host
    double hostRunS = 0; ///< ServingCluster::run(), host
    std::uint64_t events = 0;
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t framesCreated = 0;
    std::uint64_t heapAllocs = 0;
    std::uint64_t intraBytes = 0;
    std::uint64_t netBytes = 0;
    double linkBusyPctMax = 0;
    std::uint64_t planHits = 0;
    std::uint64_t planMisses = 0;
    double meanDecodeBatch = 0;
    double kvPeakPct = 0;
};

/** The streams of one phase: independent request streams drawn from
 *  sub-seeds of the run's seed. */
struct ServeBatch
{
    std::vector<ServeRun> streams;
    std::vector<double> setupS; ///< one per cluster construction
};

/** Number of streams a phase of @p seconds runs (fixed work: the same
 *  --seconds always gives the same streams). */
int streamsFor(const ServeSpec& spec, double seconds);

/** Sub-seed of stream @p j of a run seeded with @p seed. */
std::uint64_t streamSeed(std::uint64_t seed, int j);

/** Run one stream at the spec's nominal rate. */
ServeRun runStream(const ServeSpec& spec, std::uint64_t streamSeed,
                   OpCounts& ops, const std::string& phase);

/** Run @p count streams of @p spec. */
ServeBatch runStreams(const ServeSpec& spec, std::uint64_t seed, int count,
                      OpCounts& ops, const std::string& phase);

/** Request-latency metrics of a batch (virtual time): per-stream
 *  percentiles, median over streams; SLO attainment over every request
 *  sent. */
struct ServeMetrics
{
    double ttftP50Ms = 0, ttftP99Ms = 0;
    double tpotP50Ms = 0, tpotP99Ms = 0;
    std::size_t ttftSamples = 0, tpotSamples = 0;
    double sloAttainPct = 0;
    std::size_t sent = 0;
    /// SLO-meeting requests per virtual second: their count over the
    /// summed stream spans (first arrival to last completion).
    double goodputRps = 0;
};

ServeMetrics serveMetrics(const ServeBatch& batch);

/** Highest rate at which >= 99% of the requests sent meet both SLO
 *  limits, on a ladder of 0.5x..3x the nominal rate (300 requests per
 *  rung), interpolated linearly between rungs. */
double ladderGoodputRps(const ServeSpec& spec, std::uint64_t seed,
                        OpCounts& ops);

/** The virtual-time results of a stream that must repeat bit for bit. */
std::vector<double> streamFingerprint(const ServeRun& run);

/** Arrival <= first token <= completion for every non-dropped request,
 *  and every request sent completed. Counts under "verify". */
void verifyServe(const ServeRun& run, OpCounts& ops);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HPP
