#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

/** Virtual results of a grid pass, in call order. */
std::vector<double>
virtualOf(const GridPass& p)
{
    std::vector<double> v;
    for (const auto* leg : {&p.nccl, &p.dsl}) {
        for (const CallResult& c : *leg) {
            v.push_back(c.ok ? c.us : -1.0);
        }
    }
    return v;
}

double
maxLinkBusyPct(gpu::Machine& m)
{
    const double now = static_cast<double>(m.scheduler().now());
    double best = 0;
    for (int g = 0; now > 0 && g < m.numGpus(); ++g) {
        best = std::max(best, 100.0 *
                                  static_cast<double>(
                                      m.fabric().gpuTx(g).busyTime()) /
                                  now);
    }
    return best;
}

TimedPhase
runCollTimed(std::uint64_t seed, double seconds, int minPasses, int rounds,
             OpCounts& ops)
{
    TimedPhase ph;
    ph.grid = makeGrid(seed);
    const std::vector<Shape> shapes = sweepShapes();
    const double share =
        seconds / static_cast<double>(rounds * shapes.size());
    std::vector<std::vector<double>> hostByShape(shapes.size());
    std::vector<std::vector<double>> reference(shapes.size());
    std::vector<double> eventsByShape(shapes.size(), 0.0);
    std::vector<double> framesByShape(shapes.size(), 0.0);
    std::vector<double> heapByShape(shapes.size(), 0.0);
    double events = 0, hostTotal = 0, intra = 0, net = 0, calls = 0;
    double hits = 0, misses = 0;

    for (int round = 0; round < rounds; ++round) {
        double setupS = 0;
        for (std::size_t si = 0; si < shapes.size(); ++si) {
            calibrate();
            const std::int64_t t0 = hostNs();
            std::unique_ptr<Rig> rig;
            {
                ScopedSpan s("coll.setup." + shapes[si].tag, nullptr);
                rig = std::make_unique<Rig>(shapes[si], gpu::DataMode::Timed,
                                            kGridMaxBytes, ph.grid);
                ops.ok("setup");
                runGridPass(*rig, ph.grid, ops, "warmup");
            }
            setupS += secondsSince(t0);

            gpu::Machine& m = rig->machine();
            fab::Fabric& fabric = m.fabric();
            const std::int64_t t1 = hostNs();
            int n = 0;
            while (n < minPasses || secondsSince(t1) < share) {
                const std::uint64_t e0 = m.scheduler().eventsProcessed();
                const std::uint64_t f0 = sim::frameStats().created;
                const std::uint64_t h0 = heapAllocs();
                const std::uint64_t i0 = fabric.intraBytesCarried();
                const std::uint64_t n0 = fabric.netBytesCarried();
                GridPass pass = runGridPass(*rig, ph.grid, ops, "timed");
                const double de =
                    static_cast<double>(m.scheduler().eventsProcessed() - e0);
                events += de;
                eventsByShape[si] += de;
                framesByShape[si] +=
                    static_cast<double>(sim::frameStats().created - f0);
                heapByShape[si] += static_cast<double>(heapAllocs() - h0);
                intra += static_cast<double>(fabric.intraBytesCarried() - i0);
                net += static_cast<double>(fabric.netBytesCarried() - n0);
                calls += static_cast<double>(2 * ph.grid.size());
                hostTotal += pass.hostS;
                hostByShape[si].push_back(pass.hostS);
                const std::vector<double> v = virtualOf(pass);
                if (reference[si].empty()) {
                    reference[si] = v;
                    ph.collPasses.emplace_back(shapes[si], std::move(pass));
                } else if (!sameBits(v, reference[si])) {
                    ph.deterministic = false;
                }
                ++n;
                ph.passes++;
            }
            calibrate();
            ph.layers.maxQueueDepth =
                std::max(ph.layers.maxQueueDepth,
                         static_cast<double>(m.scheduler().maxQueueDepth()));
            ph.layers.linkBusyPctMax =
                std::max(ph.layers.linkBusyPctMax, maxLinkBusyPct(m));
            const mscclpp::obs::MetricsRegistry& reg = m.obs().metrics();
            hits += static_cast<double>(
                counterValue(reg, "tuner.plan_cache.hit"));
            misses += static_cast<double>(
                counterValue(reg, "tuner.plan_cache.miss"));
        }
        ph.setup.push_back(setupS);
    }

    // One "pass" is one full grid over all shapes: per-shape values,
    // summed.
    for (std::size_t si = 0; si < shapes.size(); ++si) {
        const double k = static_cast<double>(hostByShape[si].size());
        // Low percentile, not median: a pass is ~10 ms of host time, and
        // on a shared machine whole seconds run slow; the fast passes
        // are the simulator's own cost.
        std::vector<double> h = hostByShape[si];
        std::sort(h.begin(), h.end());
        ph.hostWallS += h[h.size() / 10];
        ph.layers.eventsPerPass += eventsByShape[si] / k;
        ph.layers.framesPerPass += framesByShape[si] / k;
        ph.layers.heapAllocsPerPass += heapByShape[si] / k;
        ph.fingerprint.insert(ph.fingerprint.end(), reference[si].begin(),
                              reference[si].end());
    }
    ph.layers.eventsPerS = hostTotal > 0 ? events / hostTotal : 0;
    ph.layers.intraBytesPerCall = calls > 0 ? intra / calls : 0;
    ph.layers.netBytesPerCall = calls > 0 ? net / calls : 0;
    ph.layers.planHitPct =
        hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0;
    return ph;
}

void
setServeLayers(TimedPhase& ph)
{
    const ServeRun& run = ph.serve->streams.front();
    const serving::ServingReport& r = run.report;
    const double steps = static_cast<double>(r.decodeSteps + r.prefillSteps);
    ph.layers.eventsPerPass = static_cast<double>(run.events);
    ph.layers.eventsPerS =
        run.hostRunS > 0 ? static_cast<double>(run.events) / run.hostRunS : 0;
    ph.layers.maxQueueDepth = static_cast<double>(run.maxQueueDepth);
    ph.layers.framesPerPass = static_cast<double>(run.framesCreated);
    ph.layers.heapAllocsPerPass = static_cast<double>(run.heapAllocs);
    ph.layers.intraBytesPerCall =
        steps > 0 ? static_cast<double>(run.intraBytes) / steps : 0;
    ph.layers.netBytesPerCall =
        steps > 0 ? static_cast<double>(run.netBytes) / steps : 0;
    ph.layers.linkBusyPctMax = run.linkBusyPctMax;
    const double lookups = static_cast<double>(run.planHits + run.planMisses);
    ph.layers.planHitPct =
        lookups > 0 ? 100.0 * static_cast<double>(run.planHits) / lookups
                    : 0;
}

/** Fixed work: streamsFor(spec, seconds) streams, then a short stream
 *  twice to check that it repeats bit for bit. host_wall_s is the
 *  median host time of one stream. */
TimedPhase
runServeTimed(const ServeSpec& spec, std::uint64_t seed, double seconds,
              OpCounts& ops)
{
    TimedPhase ph;
    ph.serve =
        runStreams(spec, seed, streamsFor(spec, seconds), ops, "timed");
    const ServeBatch& b = *ph.serve;
    ph.passes = b.streams.size();
    std::vector<double> host;
    for (const ServeRun& run : b.streams) {
        host.push_back(run.hostRunS);
    }
    ph.hostWallS = median(host);
    ph.setup = b.setupS;
    for (const ServeRun& run : b.streams) {
        const std::vector<double> fp = streamFingerprint(run);
        ph.fingerprint.insert(ph.fingerprint.end(), fp.begin(), fp.end());
    }
    // Determinism: a short stream, run twice.
    ServeSpec probe = spec;
    probe.requests = 200;
    const ServeRun first = runStream(probe, streamSeed(seed, 0), ops, "repeat");
    const ServeRun again = runStream(probe, streamSeed(seed, 0), ops, "repeat");
    ph.deterministic =
        sameBits(streamFingerprint(again), streamFingerprint(first));
    setServeLayers(ph);
    return ph;
}

} // namespace

TimedPhase
runTimed(const std::string& workload, std::uint64_t seed, double seconds,
         int minPasses, int rounds, OpCounts& ops)
{
    if (workload == "coll_sweep") {
        return runCollTimed(seed, seconds, minPasses, rounds, ops);
    }
    return runServeTimed(serveSpecOf(workload), seed, seconds, ops);
}

void
printConfig(const std::string& workload, std::uint64_t seed, double seconds)
{
    std::printf("config: grid sizes (bytes):");
    for (const GridPoint& p : makeGrid(seed)) {
        std::printf(" %s=%zu", p.label().c_str(), p.bytes);
    }
    const ServeSpec s = serveSpecOf(workload);
    std::printf("\nconfig: %s streams=%d x %d requests, %s %.1f req/s, "
                "replicas=%d (prefill-only %d), Llama2-70b TP=8 on "
                "A100-80G, MSCCL++ backend, fault=%s, SLO TTFT <= %.0f ms "
                "and TPOT <= %.0f ms\n",
                workload == "coll_sweep" ? "companion serving:" : "serving:",
                streamsFor(s, seconds), s.requests,
                serving::toString(s.mode), s.rate, s.replicas,
                s.prefillReplicas,
                s.fault ? "replica 2 gpu3.tx x0.05 steps 200-1200" : "none",
                sim::toMs(kSloTtft), sim::toMs(kSloTpot));
    std::printf("config: collective shapes %s; NCCL-API leg + DSL leg, "
                "Timed mode, F16 sum; observability off\n",
                workload == "coll_sweep"
                    ? "A100-40G 1n8g, A100-40G 2n16g, H100 1n8g"
                    : "A100-80G 1n8g (companion)");
}

ServeSpec
serveSpecOf(const std::string& workload)
{
    if (workload == "serve_disagg_fault") {
        return disaggFaultSpec();
    }
    ServeSpec s = steadySpec();
    if (workload == "coll_sweep") {
        s.streams = 3; // companion leg: half of serve_steady's streams
    }
    return s;
}

void
runCompanion(const std::string& workload, std::uint64_t seed,
             double seconds, TimedPhase& phase, OpCounts& ops)
{
    if (workload == "coll_sweep") {
        const ServeSpec spec = serveSpecOf(workload);
        phase.serve = runStreams(spec, seed, streamsFor(spec, seconds), ops,
                                 "companion");
        return;
    }
    phase.grid = makeGrid(seed);
    Rig rig(servingShape(), gpu::DataMode::Timed, kGridMaxBytes,
            phase.grid);
    runGridPass(rig, phase.grid, ops, "companion");
    phase.collPasses.emplace_back(
        servingShape(), runGridPass(rig, phase.grid, ops, "companion"));
}

void
verifyWorkload(const std::string& workload, std::uint64_t seed,
               const TimedPhase& phase, OpCounts& ops)
{
    const std::vector<GridPoint> grid = makeGrid(seed);
    const std::vector<Shape> shapes =
        workload == "coll_sweep" ? sweepShapes()
                                 : std::vector<Shape>{servingShape()};
    for (const Shape& s : shapes) {
        verifyShape(s, grid, seed, ops);
    }
    for (const ServeRun& run : phase.serve->streams) {
        verifyServe(run, ops);
    }
}

std::vector<Metric>
endToEndMetrics(const TimedPhase& ph)
{
    std::vector<double> small, large, dsl;
    for (const auto& [shape, pass] : ph.collPasses) {
        const int ranks = shape.nodes * shape.env.gpusPerNode;
        for (std::size_t i = 0; i < ph.grid.size(); ++i) {
            const GridPoint& p = ph.grid[i];
            if (pass.nccl[i].ok) {
                if (p.small()) {
                    small.push_back(pass.nccl[i].us);
                } else {
                    large.push_back(busBwGBps(p, ranks, pass.nccl[i].us));
                }
            }
            if (pass.dsl[i].ok) {
                dsl.push_back(pass.dsl[i].us);
            }
        }
    }
    std::vector<Metric> out = {
        {"coll_small_latency_us", geomean(small), "us", small.size()},
        {"coll_large_busbw_GBps", geomean(large), "GB/s", large.size()},
        {"dsl_latency_us", geomean(dsl), "us", dsl.size()},
    };
    const ServeMetrics sm = serveMetrics(*ph.serve);
    out.push_back({"ttft_p50_ms", sm.ttftP50Ms, "ms", sm.ttftSamples});
    out.push_back({"ttft_p99_ms", sm.ttftP99Ms, "ms", sm.ttftSamples});
    out.push_back({"tpot_p50_ms", sm.tpotP50Ms, "ms", sm.tpotSamples});
    out.push_back({"tpot_p99_ms", sm.tpotP99Ms, "ms", sm.tpotSamples});
    out.push_back({"goodput_rps", sm.goodputRps, "req/s", sm.sent});
    out.push_back({"slo_attain_pct", sm.sloAttainPct, "%", sm.sent});
    return out;
}

} // namespace perfbench
