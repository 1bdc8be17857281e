#include "serve.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

serving::ServingConfig
configFor(const ServeSpec& spec, std::uint64_t seed)
{
    serving::ServingConfig cfg;
    cfg.env = fab::makeA100_80G();
    cfg.backend = mscclpp::inference::CommBackend::Mscclpp;
    cfg.seed = seed;
    cfg.replicas = spec.replicas;
    cfg.prefillReplicas = spec.prefillReplicas;
    cfg.workload.mode = spec.mode;
    cfg.workload.requests = spec.requests;
    cfg.workload.ratePerSec = spec.rate;
    cfg.sloTtft = kSloTtft;
    cfg.sloTpot = kSloTpot;
    cfg.reqtrace = false;
    cfg.slomon = false;
    if (spec.fault) {
        cfg.faults.push_back({2, "gpu3.tx", 0.05, 200, 1200});
    }
    return cfg;
}

ServeRun
runCluster(const serving::ServingConfig& cfg, bool requestSpans)
{
    ServeRun out;
    std::int64_t t0 = hostNs();
    std::unique_ptr<serving::ServingCluster> cluster;
    {
        ScopedSpan s("serving.cluster.construct", nullptr);
        cluster = std::make_unique<serving::ServingCluster>(cfg);
    }
    for (int i = 0; i < cluster->numReplicas(); ++i) {
        cluster->replica(i).machine().obs().setDumpOnDestroy(false);
    }
    out.setupS = secondsSince(t0);

    const std::uint64_t frames0 = sim::frameStats().created;
    const std::uint64_t heap0 = heapAllocs();
    t0 = hostNs();
    {
        ScopedSpan s("serving.cluster.run", nullptr);
        out.report = cluster->run();
        out.stats = cluster->requests();
        if (requestSpans && spans().enabled()) {
            for (const serving::RequestStats& r : out.stats) {
                spans().virtualSpan("serving.request", r.id,
                                    sim::toUs(r.arrival),
                                    sim::toUs(r.completed));
            }
        }
    }
    out.hostRunS = secondsSince(t0);
    out.framesCreated = sim::frameStats().created - frames0;
    out.heapAllocs = heapAllocs() - heap0;

    double batchSum = 0;
    double batchCount = 0;
    for (int i = 0; i < cluster->numReplicas(); ++i) {
        serving::Replica& rep = cluster->replica(i);
        gpu::Machine& m = rep.machine();
        out.events += m.scheduler().eventsProcessed();
        out.maxQueueDepth =
            std::max<std::uint64_t>(out.maxQueueDepth,
                                    m.scheduler().maxQueueDepth());
        out.intraBytes += m.fabric().intraBytesCarried();
        out.netBytes += m.fabric().netBytesCarried();
        if (rep.clock() > 0) {
            for (int g = 0; g < m.numGpus(); ++g) {
                const double busy =
                    static_cast<double>(m.fabric().gpuTx(g).busyTime());
                out.linkBusyPctMax =
                    std::max(out.linkBusyPctMax,
                             100.0 * busy / static_cast<double>(rep.clock()));
            }
        }
        const mscclpp::obs::MetricsRegistry& reg = m.obs().metrics();
        out.planHits += counterValue(reg, "tuner.plan_cache.hit");
        out.planMisses += counterValue(reg, "tuner.plan_cache.miss");
        auto it = reg.summaries().find("serving.decode_batch");
        if (it != reg.summaries().end()) {
            batchSum += it->second.sum();
            batchCount += static_cast<double>(it->second.count());
        }
        out.kvPeakPct = std::max(
            out.kvPeakPct, 100.0 * static_cast<double>(rep.kv().peakUsed()) /
                               static_cast<double>(rep.kv().capacity()));
    }
    out.meanDecodeBatch = batchCount > 0 ? batchSum / batchCount : 0;
    return out;
}

bool
meetsSlo(const serving::RequestStats& r)
{
    return !r.dropped && r.completed > 0 && r.ttft() <= kSloTtft &&
           (r.outputLen <= 1 || r.tpot() <= kSloTpot);
}

void
countRequests(const ServeRun& run, OpCounts& ops, const std::string& phase)
{
    for (const serving::RequestStats& r : run.stats) {
        if (r.dropped || r.completed == 0) {
            ops.fail(phase);
        } else {
            ops.ok(phase);
        }
    }
}

} // namespace

ServeSpec
steadySpec()
{
    return ServeSpec{};
}

ServeSpec
disaggFaultSpec()
{
    ServeSpec s;
    s.prefillReplicas = 2;
    s.mode = serving::ArrivalMode::Bursty;
    s.rate = 5.0;
    s.streams = 4; // twice the host time per stream of serve_steady
    s.fault = true;
    return s;
}

int
streamsFor(const ServeSpec& spec, double seconds)
{
    return std::max(2, static_cast<int>(spec.streams * seconds / 10 + 0.5));
}

std::uint64_t
streamSeed(std::uint64_t seed, int j)
{
    // splitmix64 of (seed, j): distinct streams for distinct seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      static_cast<std::uint64_t>(j + 1) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

ServeRun
runStream(const ServeSpec& spec, std::uint64_t streamSeed, OpCounts& ops,
          const std::string& phase)
{
    ServeRun run = runCluster(configFor(spec, streamSeed), true);
    ops.ok("setup");
    countRequests(run, ops, phase);
    return run;
}

ServeBatch
runStreams(const ServeSpec& spec, std::uint64_t seed, int count,
           OpCounts& ops, const std::string& phase)
{
    ServeBatch batch;
    for (int j = 0; j < count; ++j) {
        calibrate();
        batch.streams.push_back(
            runStream(spec, streamSeed(seed, j), ops, phase));
        batch.setupS.push_back(batch.streams.back().setupS);
    }
    calibrate();
    return batch;
}

ServeMetrics
serveMetrics(const ServeBatch& batch)
{
    // Percentiles per stream (1000 requests: ten beyond the p99), then
    // the median over streams: one unlucky burst moves one stream's
    // tail, not the reported value.
    ServeMetrics m;
    std::vector<double> ttft50, ttft99, tpot50, tpot99;
    std::size_t meeting = 0;
    double spanS = 0;
    for (const ServeRun& run : batch.streams) {
        std::vector<sim::Time> ttft, tpot;
        sim::Time first = sim::kTimeMax, last = 0;
        for (const serving::RequestStats& r : run.stats) {
            m.sent++;
            first = std::min(first, r.arrival);
            if (r.dropped || r.completed == 0) {
                continue;
            }
            last = std::max(last, r.completed);
            ttft.push_back(r.ttft());
            if (r.outputLen > 1) {
                tpot.push_back(r.tpot());
            }
            meeting += meetsSlo(r) ? 1 : 0;
        }
        if (last > first) {
            spanS += sim::toSec(last - first);
        }
        m.ttftSamples += ttft.size();
        m.tpotSamples += tpot.size();
        ttft50.push_back(sim::toMs(serving::percentile(ttft, 0.50)));
        ttft99.push_back(sim::toMs(serving::percentile(ttft, 0.99)));
        tpot50.push_back(sim::toMs(serving::percentile(tpot, 0.50)));
        tpot99.push_back(sim::toMs(serving::percentile(tpot, 0.99)));
    }
    m.ttftP50Ms = median(ttft50);
    m.ttftP99Ms = median(ttft99);
    m.tpotP50Ms = median(tpot50);
    m.tpotP99Ms = median(tpot99);
    m.sloAttainPct = m.sent > 0 ? 100.0 * static_cast<double>(meeting) /
                                      static_cast<double>(m.sent)
                                : 0;
    m.goodputRps = spanS > 0 ? static_cast<double>(meeting) / spanS : 0;
    return m;
}

double
ladderGoodputRps(const ServeSpec& spec, std::uint64_t seed, OpCounts& ops)
{
    constexpr double kTarget = 99.0;
    constexpr double kRungs[] = {0.5, 1.0, 1.5, 2.0, 3.0};
    double prevRate = 0;
    double prevPct = 100.0; // rate 0 meets every SLO
    for (double f : kRungs) {
        ServeSpec rung = spec;
        rung.rate = spec.rate * f;
        rung.requests = 300;
        ServeBatch b;
        b.streams.push_back(
            runStream(rung, streamSeed(seed, 0), ops, "ladder"));
        const double pct = serveMetrics(b).sloAttainPct;
        if (pct < kTarget) {
            return prevRate + (rung.rate - prevRate) * (prevPct - kTarget) /
                                  (prevPct - pct);
        }
        prevRate = rung.rate;
        prevPct = pct;
    }
    return prevRate; // every rung met the target: the ladder's ceiling
}

std::vector<double>
streamFingerprint(const ServeRun& run)
{
    const serving::ServingReport& r = run.report;
    return {static_cast<double>(r.ttftP50), static_cast<double>(r.ttftP99),
            static_cast<double>(r.tpotP50), static_cast<double>(r.tpotP99),
            static_cast<double>(r.makespan), static_cast<double>(r.decodeSteps),
            static_cast<double>(r.prefillSteps),
            static_cast<double>(r.preemptions),
            static_cast<double>(run.events)};
}

void
verifyServe(const ServeRun& run, OpCounts& ops)
{
    for (const serving::RequestStats& r : run.stats) {
        const bool ok = !r.dropped && r.completed > 0 &&
                        r.arrival <= r.firstToken &&
                        r.firstToken <= r.completed;
        if (ok) {
            ops.ok("verify");
            continue;
        }
        std::fprintf(stderr,
                     "perfbench: request %d %s (arrival %llu first %llu "
                     "done %llu)\n",
                     r.id, r.dropped ? "dropped" : "out of order",
                     static_cast<unsigned long long>(r.arrival),
                     static_cast<unsigned long long>(r.firstToken),
                     static_cast<unsigned long long>(r.completed));
        ops.fail("verify");
    }
}

} // namespace perfbench
