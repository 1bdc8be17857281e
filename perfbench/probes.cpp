#include "probes.hpp"

#include "baseline/msccl.hpp"
#include "baseline/nccl.hpp"
#include "channel/channel_mesh.hpp"
#include "channel/switch_channel.hpp"
#include "core/bootstrap.hpp"
#include "core/communicator.hpp"
#include "gpu/kernel.hpp"
#include "inference/llm.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

namespace perfbench {

namespace {

using mscclpp::ChannelMesh;
using mscclpp::Communicator;
using mscclpp::Protocol;
using mscclpp::Transport;
using Body = std::function<sim::Task<>(gpu::BlockCtx&)>;

constexpr int kProbeIters = 16;

/**
 * Run @p op in a one-block kernel on @p rank (with @p peerOp in a
 * kernel on @p peer, when given) and return the op's device-side
 * virtual latency: from the block's start to the op's completion.
 */
double
opUs(gpu::Machine& m, int rank, const Body& op, int peer = -1,
     const Body& peerOp = {})
{
    sim::Time t0 = 0;
    sim::Time t1 = 0;
    gpu::LaunchConfig cfg;
    if (peerOp) {
        sim::detach(m.scheduler(), gpu::launchKernel(m.gpu(peer), cfg, peerOp));
    }
    sim::detach(m.scheduler(),
                gpu::launchKernel(m.gpu(rank), cfg,
                                  [&](gpu::BlockCtx& ctx) -> sim::Task<> {
                                      t0 = ctx.scheduler().now();
                                      co_await op(ctx);
                                      t1 = ctx.scheduler().now();
                                  }));
    m.run();
    return sim::toUs(t1 - t0);
}

/** Repeat an op probe; @return (median virtual us, host ns per op). */
std::pair<double, double>
repeatOp(const std::string& name, gpu::Machine& m,
         const std::function<double()>& once, OpCounts& ops)
{
    ScopedSpan s("probe." + name, &m.scheduler());
    std::vector<double> us;
    const std::int64_t t0 = hostNs();
    for (int i = 0; i < kProbeIters; ++i) {
        us.push_back(once());
    }
    const double hostNsPerOp =
        static_cast<double>(hostNs() - t0) / kProbeIters;
    ops.ok("probe", kProbeIters);
    return {median(us), hostNsPerOp};
}

/** Ranks' communicators over an in-process bootstrap. */
struct Comms
{
    explicit Comms(gpu::Machine& m)
    {
        auto boots = mscclpp::createInProcessBootstrap(m.numGpus());
        for (int r = 0; r < m.numGpus(); ++r) {
            owned.push_back(std::make_unique<Communicator>(boots[r], m));
            ptrs.push_back(owned.back().get());
        }
    }
    std::vector<std::unique_ptr<Communicator>> owned;
    std::vector<Communicator*> ptrs;
};

std::vector<gpu::DeviceBuffer>
allocAll(gpu::Machine& m, std::size_t bytes)
{
    std::vector<gpu::DeviceBuffer> b;
    for (int r = 0; r < m.numGpus(); ++r) {
        b.push_back(m.gpu(r).alloc(bytes));
    }
    return b;
}

void
probeGpu(std::vector<Metric>& out, OpCounts& ops)
{
    auto m = makeMachine(fab::makeA100_40G(), 1, gpu::DataMode::Timed);
    ScopedSpan s("probe.gpu.empty_launch", &m->scheduler());
    std::vector<double> us;
    const std::int64_t t0 = hostNs();
    for (int i = 0; i < kProbeIters; ++i) {
        const sim::Time v0 = m->scheduler().now();
        sim::detach(m->scheduler(),
                    gpu::launchKernel(m->gpu(0), gpu::LaunchConfig{},
                                      [](gpu::BlockCtx&) -> sim::Task<> {
                                          co_return;
                                      }));
        m->run();
        us.push_back(sim::toUs(m->scheduler().now() - v0));
    }
    out.push_back({"gpu.empty_launch_us", median(us), "us", us.size()});
    out.push_back({"gpu.empty_launch_host_ns",
                   static_cast<double>(hostNs() - t0) / kProbeIters, "ns",
                   us.size()});
    ops.ok("probe", kProbeIters);
}

void
probeCore(std::vector<Metric>& out, OpCounts& ops)
{
    std::vector<std::unique_ptr<gpu::Machine>> machines;
    for (const Shape& s : sweepShapes()) {
        machines.push_back(
            makeMachine(s.env, s.nodes, gpu::DataMode::Timed));
    }
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t t0 = hostNs();
        for (auto& m : machines) {
            ScopedSpan s("probe.core.communicators", &m->scheduler());
            Comms c(*m);
            ops.ok("probe");
        }
        ms.push_back(secondsSince(t0) * 1e3);
    }
    out.push_back({"core.setup_ms", median(ms), "ms", ms.size()});
}

void
probeChannels(std::uint64_t seed, std::vector<Metric>& out, OpCounts& ops)
{
    // Seeded payload near 64 KiB, 16-byte aligned.
    const std::size_t bytes = (std::size_t(64) << 10) - 16 * (seed % 64);

    {
        auto m = makeMachine(fab::makeA100_40G(), 1, gpu::DataMode::Timed);
        Comms c(*m);
        auto bufs = allocAll(*m, std::size_t(1) << 20);
        const std::int64_t t0 = hostNs();
        ChannelMesh hb = ChannelMesh::build(c.ptrs, bufs, bufs,
                                            {Transport::Memory, Protocol::HB});
        out.push_back({"channel.mesh_build_ms", secondsSince(t0) * 1e3, "ms",
                       1});
        ChannelMesh ll = ChannelMesh::build(c.ptrs, bufs, bufs,
                                            {Transport::Memory, Protocol::LL});
        auto put = repeatOp("channel.memory.put", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) {
                return hb.mem(0, 1).put(ctx, 0, 0, bytes);
            });
        }, ops);
        // Paired signal + wait first: the signal probe below leaves
        // unconsumed signals on rank 1's semaphore.
        auto wait = repeatOp("channel.memory.wait", *m, [&] {
            return opUs(
                *m, 1,
                [&](gpu::BlockCtx& ctx) { return hb.mem(1, 0).wait(ctx); },
                0,
                [&](gpu::BlockCtx& ctx) { return hb.mem(0, 1).signal(ctx); });
        }, ops);
        auto sig = repeatOp("channel.memory.signal", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) {
                return hb.mem(0, 1).signal(ctx);
            });
        }, ops);
        auto llPut = repeatOp("channel.memory.ll_put", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) {
                return ll.mem(0, 1).putPackets(ctx, 0, 0, bytes);
            });
        }, ops);
        out.push_back({"channel.memory.put_us", put.first, "us", kProbeIters});
        out.push_back({"channel.memory.signal_us", sig.first, "us",
                       kProbeIters});
        out.push_back({"channel.memory.wait_us", wait.first, "us",
                       kProbeIters});
        out.push_back({"channel.memory.ll_put_us", llPut.first, "us",
                       kProbeIters});
        out.push_back({"channel.memory.host_ns_per_op",
                       (put.second + sig.second + wait.second + llPut.second) /
                           4,
                       "ns", 4 * kProbeIters});
    }
    {
        // Cross-node PortChannel: rank 0 -> rank 8 over RDMA.
        auto m = makeMachine(fab::makeA100_40G(), 2, gpu::DataMode::Timed);
        Comms c(*m);
        auto bufs = allocAll(*m, std::size_t(1) << 20);
        ChannelMesh port = ChannelMesh::build(c.ptrs, bufs, bufs,
                                              {Transport::Port, Protocol::HB});
        auto put = repeatOp("channel.port.put", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) {
                return port.port(0, 8).put(ctx, 0, 0, bytes);
            });
        }, ops);
        auto sig = repeatOp("channel.port.signal", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) {
                return port.port(0, 8).signal(ctx);
            });
        }, ops);
        auto flush = repeatOp("channel.port.flush", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) -> sim::Task<> {
                co_await port.port(0, 8).put(ctx, 0, 0, bytes);
                co_await port.port(0, 8).flush(ctx);
            });
        }, ops);
        port.shutdown();
        m->run();
        out.push_back({"channel.port.put_us", put.first, "us", kProbeIters});
        out.push_back({"channel.port.signal_us", sig.first, "us",
                       kProbeIters});
        out.push_back({"channel.port.flush_us", flush.first, "us",
                       kProbeIters});
        out.push_back({"channel.port.host_ns_per_op",
                       (put.second + sig.second + flush.second) / 3, "ns",
                       3 * kProbeIters});
    }
    {
        auto m = makeMachine(fab::makeH100(), 1, gpu::DataMode::Timed);
        Comms c(*m);
        auto bufs = allocAll(*m, std::size_t(1) << 20);
        auto local = allocAll(*m, std::size_t(1) << 20);
        std::vector<int> ranks;
        std::vector<mscclpp::RegisteredMemory> mems;
        for (int r = 0; r < m->numGpus(); ++r) {
            ranks.push_back(r);
            mems.push_back(c.owned[r]->registerMemory(bufs[r]));
        }
        mscclpp::SwitchChannel sw(*m, ranks, mems, 0);
        auto red = repeatOp("channel.switch.reduce", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) {
                return sw.reduce(ctx, local[0], 0, bytes, gpu::DataType::F16,
                                 gpu::ReduceOp::Sum);
            });
        }, ops);
        auto bc = repeatOp("channel.switch.broadcast", *m, [&] {
            return opUs(*m, 0, [&](gpu::BlockCtx& ctx) {
                return sw.broadcast(ctx, 0, local[0], bytes);
            });
        }, ops);
        out.push_back({"channel.switch.reduce_us", red.first, "us",
                       kProbeIters});
        out.push_back({"channel.switch.broadcast_us", bc.first, "us",
                       kProbeIters});
        out.push_back({"channel.switch.host_ns_per_op",
                       (red.second + bc.second) / 2, "ns", 2 * kProbeIters});
    }
}

/** Collective, NCCL-compat, DSL and baseline probes over the grid. */
void
probeCollectives(std::uint64_t seed, std::vector<Metric>& out,
                 OpCounts& ops)
{
    const std::vector<GridPoint> grid = makeGrid(seed);
    std::vector<double> dslRatio, ncclAll, mscclAll, nccl1n8g1K;
    double directHost = 0, ncclHost = 0, dslHost = 0, calls = 0;
    double dslCalls = 0;
    double overheadUs = 0, events = 0, setupMs = 0;
    double dslHits = 0, dslLookups = 0;
    for (const Shape& shape : sweepShapes()) {
        Rig rig(shape, gpu::DataMode::Timed, kGridMaxBytes, grid);
        gpu::Machine& m = rig.machine();
        sim::Scheduler& sched = m.scheduler();
        {
            const std::int64_t t0 = hostNs();
            ScopedSpan s("probe.collective.construct." + shape.tag, &sched);
            mscclpp::CollectiveComm::Options opt;
            opt.maxBytes = kGridMaxBytes;
            mscclpp::CollectiveComm extra(m, opt);
            setupMs += secondsSince(t0) * 1e3;
        }
        mscclpp::baseline::NcclComm nccl(m, kGridMaxBytes);
        mscclpp::baseline::MscclComm msccl(m, kGridMaxBytes);
        runGridPass(rig, grid, ops, "probe"); // warm every cache
        std::vector<double> small, large;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const GridPoint& p = grid[i];
            rig.directCall(p);
            std::int64_t t0 = hostNs();
            const std::uint64_t e0 = sched.eventsProcessed();
            CallResult direct;
            {
                ScopedSpan s("probe.collective." + p.label(), &sched);
                direct = rig.directCall(p);
            }
            directHost += secondsSince(t0);
            events += static_cast<double>(sched.eventsProcessed() - e0);
            t0 = hostNs();
            CallResult viaNccl;
            {
                ScopedSpan s("probe.nccl_compat." + p.label(), &sched);
                viaNccl = rig.nccl(p, mscclpp::compat::ncclFloat16);
            }
            ncclHost += secondsSince(t0);
            CallResult viaDsl;
            if (rig.hasDsl(i)) {
                t0 = hostNs();
                ScopedSpan s("probe.dsl." + p.label(), &sched);
                viaDsl = rig.dsl(i, gpu::DataType::F16);
                dslHost += secondsSince(t0);
                dslCalls += 1;
            }
            calls += 1;

            double tNccl = 0;
            double tMsccl = 0;
            {
                ScopedSpan s("probe.baseline." + p.label(), &sched);
                const std::size_t shard =
                    p.bytes / static_cast<std::size_t>(rig.ranks());
                tNccl = sim::toUs(
                    p.op == Op::AllReduce
                        ? nccl.allReduce(p.bytes, gpu::DataType::F16,
                                         gpu::ReduceOp::Sum)
                        : nccl.allGather(shard));
                tMsccl = sim::toUs(
                    p.op == Op::AllReduce
                        ? msccl.allReduce(p.bytes, gpu::DataType::F16,
                                          gpu::ReduceOp::Sum)
                        : msccl.allGather(shard));
            }
            const bool ok = direct.ok && viaNccl.ok &&
                            (viaDsl.ok || !rig.hasDsl(i)) && tNccl > 0 &&
                            tMsccl > 0;
            if (!ok) {
                ops.fail("probe");
                continue;
            }
            ops.ok("probe", rig.hasDsl(i) ? 5 : 4);
            out.push_back({std::string("collective.") + opName(p.op) + "." +
                               shape.tag + "." + kSizeLabels[p.idx] + "_us",
                           direct.us, "us", 1});
            overheadUs += viaNccl.us - direct.us;
            if (viaDsl.ok) {
                dslRatio.push_back(viaDsl.us / direct.us);
            }
            const double speedup = tNccl / direct.us;
            ncclAll.push_back(speedup);
            mscclAll.push_back(tMsccl / direct.us);
            (p.small() ? small : large).push_back(speedup);
            if (shape.tag == "1n8g" && p.op == Op::AllReduce && p.idx == 0) {
                nccl1n8g1K.push_back(speedup);
            }
        }
        out.push_back({"baseline.nccl.speedup." + shape.tag + ".small",
                       geomean(small), "x", small.size()});
        out.push_back({"baseline.nccl.speedup." + shape.tag + ".large",
                       geomean(large), "x", large.size()});
        dslHits += static_cast<double>(rig.executor().planCache().hits());
        dslLookups += static_cast<double>(rig.executor().planCache().hits() +
                                          rig.executor().planCache().misses());
    }
    const std::size_t n = static_cast<std::size_t>(calls);
    out.push_back({"collective.host_us_per_call", directHost * 1e6 / calls,
                   "us", n});
    out.push_back({"collective.events_per_call", events / calls, "count", n});
    out.push_back({"collective.setup_ms", setupMs, "ms", 3});
    out.push_back({"nccl_compat.overhead_us", overheadUs / calls, "us", n});
    out.push_back({"nccl_compat.host_overhead_us",
                   (ncclHost - directHost) * 1e6 / calls, "us", n});
    double maxRatio = 0;
    for (double r : dslRatio) {
        maxRatio = std::max(maxRatio, r);
    }
    out.push_back({"dsl.overhead_pct.geomean",
                   100.0 * (geomean(dslRatio) - 1.0), "%", dslRatio.size()});
    out.push_back({"dsl.overhead_pct.max", 100.0 * (maxRatio - 1.0), "%",
                   dslRatio.size()});
    out.push_back({"dsl.plan_cache_hit_pct",
                   dslLookups > 0 ? 100.0 * dslHits / dslLookups : 0, "%",
                   static_cast<std::size_t>(dslLookups)});
    out.push_back({"dsl.host_us_per_call", dslHost * 1e6 / dslCalls, "us",
                   static_cast<std::size_t>(dslCalls)});
    out.push_back({"baseline.nccl.speedup", geomean(ncclAll), "x",
                   ncclAll.size()});
    out.push_back({"baseline.nccl.speedup.1n8g.1K", geomean(nccl1n8g1K), "x",
                   nccl1n8g1K.size()});
    out.push_back({"baseline.msccl.speedup", geomean(mscclAll), "x",
                   mscclAll.size()});
}

void
probeInference(std::vector<Metric>& out, OpCounts& ops)
{
    namespace inf = mscclpp::inference;
    auto m = makeMachine(fab::makeA100_80G(), 1, gpu::DataMode::Timed);
    inf::InferenceSim sim(*m, inf::InferenceConfig{});
    struct Shape2
    {
        int batch;
        int seqlen;
        const char* name;
    };
    const Shape2 decodes[] = {{8, 512, "b8.s512"},
                              {32, 1024, "b32.s1024"},
                              {128, 2048, "b128.s2048"}};
    double comm = 0, total = 0, host = 0;
    int steps = 0;
    for (const Shape2& d : decodes) {
        sim.decodeStep(d.batch, d.seqlen, inf::CommBackend::Mscclpp);
        const std::int64_t t0 = hostNs();
        inf::InferenceSim::Breakdown b;
        {
            ScopedSpan s(std::string("probe.inference.decode.") + d.name,
                         &m->scheduler());
            b = sim.decodeStep(d.batch, d.seqlen, inf::CommBackend::Mscclpp);
        }
        host += secondsSince(t0);
        steps++;
        const inf::InferenceSim::Breakdown base =
            sim.decodeStep(d.batch, d.seqlen, inf::CommBackend::Nccl);
        comm += static_cast<double>(b.comm);
        total += static_cast<double>(b.total());
        out.push_back({std::string("inference.decode_step_ms.") + d.name,
                       sim::toMs(b.total()), "ms", 1});
        std::printf("  anchor inference.decode_step_ms.%s: %.1f%% faster "
                    "than the NCCL backend (paper: decode 4-15%% faster)\n",
                    d.name,
                    100.0 * (static_cast<double>(base.total()) /
                                 static_cast<double>(b.total()) -
                             1.0));
        ops.ok("probe", 3);
    }
    sim.prefill(4, 1024, inf::CommBackend::Mscclpp);
    inf::InferenceSim::Breakdown p;
    {
        ScopedSpan s("probe.inference.prefill.b4.s1024", &m->scheduler());
        p = sim.prefill(4, 1024, inf::CommBackend::Mscclpp);
    }
    ops.ok("probe", 2);
    out.push_back({"inference.prefill_ms.b4.s1024", sim::toMs(p.total()),
                   "ms", 1});
    out.push_back({"inference.comm_share_pct", 100.0 * comm / total, "%",
                   3});
    out.push_back({"inference.host_us_per_step", host * 1e6 / steps, "us",
                   static_cast<std::size_t>(steps)});
}

void
addWorkloadLayers(const TimedPhase& ph, std::vector<Metric>& out)
{
    const LayerReadings& l = ph.layers;
    out.push_back({"sim.events", l.eventsPerPass, "count", ph.passes});
    out.push_back({"sim.events_per_s", l.eventsPerS, "1/s", ph.passes});
    out.push_back({"sim.max_queue_depth", l.maxQueueDepth, "count",
                   ph.passes});
    out.push_back({"sim.frames_created", l.framesPerPass, "count",
                   ph.passes});
    out.push_back({"sim.frames_peak",
                   static_cast<double>(sim::frameStats().peak), "count", 1});
    out.push_back({"sim.heap_allocs", l.heapAllocsPerPass, "count",
                   ph.passes});
    out.push_back({"fabric.intra_bytes_per_call", l.intraBytesPerCall,
                   "bytes", ph.passes});
    out.push_back({"fabric.net_bytes_per_call", l.netBytesPerCall, "bytes",
                   ph.passes});
    out.push_back({"fabric.link_busy_pct_max", l.linkBusyPctMax, "%",
                   ph.passes});
    out.push_back({"tuner.plan_cache_hit_pct", l.planHitPct, "%",
                   ph.passes});

    const ServeRun& run = ph.serve->streams.front();
    const serving::ServingReport& r = run.report;
    std::vector<sim::Time> faultTpot;
    for (const serving::RequestStats& s : run.stats) {
        if (!s.dropped && s.replica == 2 && s.outputLen > 1) {
            faultTpot.push_back(s.tpot());
        }
    }
    const double steps = static_cast<double>(r.decodeSteps + r.prefillSteps);
    out.push_back({"serving.decode_steps", static_cast<double>(r.decodeSteps),
                   "count", 1});
    out.push_back({"serving.prefill_steps",
                   static_cast<double>(r.prefillSteps), "count", 1});
    out.push_back({"serving.mean_decode_batch", run.meanDecodeBatch, "count",
                   static_cast<std::size_t>(r.decodeSteps)});
    out.push_back({"serving.preemptions", static_cast<double>(r.preemptions),
                   "count", 1});
    out.push_back({"serving.kv_peak_pct", run.kvPeakPct, "%", 1});
    out.push_back({"serving.migrations", static_cast<double>(r.migrations),
                   "count", 1});
    out.push_back({"serving.fault_window_tpot_p50_ms",
                   sim::toMs(serving::percentile(faultTpot, 0.5)), "ms",
                   faultTpot.size()});
    out.push_back({"serving.setup_ms", median(ph.serve->setupS) * 1e3, "ms",
                   ph.serve->setupS.size()});
    out.push_back({"serving.host_ms_per_step",
                   steps > 0 ? run.hostRunS * 1e3 / steps : 0, "ms",
                   static_cast<std::size_t>(steps)});
}

/** Which end-to-end metric (on which workload) each layer should move. */
struct Tag
{
    const char* prefix;
    const char* moves;
};

constexpr Tag kTags[] = {
    {"sim.", "host_wall_s, peak_rss_mb on serve_steady and coll_sweep "
             "(2n16g); virtual metrics must not move"},
    {"gpu.", "coll_small_latency_us on coll_sweep (1K)"},
    {"core.", "setup_s on coll_sweep"},
    {"channel.memory.", "coll_small_latency_us on coll_sweep (1n8g), "
                        "tpot_p50_ms on serve_steady"},
    {"channel.port.", "coll_small_latency_us on coll_sweep (2n16g)"},
    {"channel.switch.", "coll_large_busbw_GBps on coll_sweep (h100)"},
    {"channel.mesh", "setup_s on coll_sweep"},
    {"fabric.", "coll_large_busbw_GBps on coll_sweep, tpot_p99_ms on "
                "serve_disagg_fault"},
    {"tuner.", "host_wall_s on serve_steady"},
    {"dsl.", "dsl_latency_us, host_wall_s on coll_sweep"},
    {"collective.", "coll_small_latency_us / coll_large_busbw_GBps on "
                    "coll_sweep, tpot_p50_ms on serve_steady"},
    {"nccl_compat.", "coll_small_latency_us on coll_sweep"},
    {"baseline.", "none: paper-claim ledger; moves only with src/baseline"},
    {"inference.decode", "tpot_p50_ms on serve_steady"},
    {"inference.prefill", "ttft_p50_ms on serve_disagg_fault"},
    {"inference.", "host_wall_s on serve_steady"},
    {"serving.fault", "tpot_p99_ms on serve_disagg_fault"},
    {"serving.preemptions", "ttft_p99_ms on serve_disagg_fault"},
    {"serving.kv", "ttft_p99_ms on serve_disagg_fault"},
    {"serving.", "tpot_p50_ms, host_wall_s on serve_steady"},
    {"trace.", "none: tracing cost of the traced run"},
};

const char*
tagFor(const std::string& name)
{
    for (const Tag& t : kTags) {
        if (name.rfind(t.prefix, 0) == 0) {
            return t.moves;
        }
    }
    return "-";
}

const char*
anchorFor(const std::string& name)
{
    if (name == "baseline.nccl.speedup.1n8g.1K") {
        return "paper Fig. 8: 4.2x vs NCCL";
    }
    if (name == "dsl.overhead_pct.geomean") {
        return "paper: DSL ~3% slower on average";
    }
    if (name == "dsl.overhead_pct.max") {
        return "paper: 18% in the worst case";
    }
    if (name == "baseline.nccl.speedup") {
        return "paper: 1.7x geomean, up to 5.4x";
    }
    return nullptr;
}

} // namespace

std::vector<Metric>
runProbes(const std::string& workload, std::uint64_t seed,
          const TimedPhase& traced, OpCounts& ops)
{
    std::vector<Metric> out;
    addWorkloadLayers(traced, out);
    out.push_back({"serving.ladder_goodput_rps",
                   ladderGoodputRps(serveSpecOf(workload), seed, ops), "req/s",
                   5});
    probeGpu(out, ops);
    probeCore(out, ops);
    probeChannels(seed, out, ops);
    probeCollectives(seed, out, ops);
    probeInference(out, ops);
    return out;
}

void
printLadder(const std::vector<Metric>& metrics)
{
    std::printf("per-layer metrics (value, unit, samples -> should move):\n");
    for (const Metric& m : metrics) {
        std::printf("  %-44s %16.6f %-6s (n=%zu) -> %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples, tagFor(m.name));
        if (const char* a = anchorFor(m.name)) {
            std::printf("  %-44s anchor: %s\n", "", a);
        }
    }
}

void
printSelfTimes()
{
    auto totals = spans().totals();
    std::vector<std::pair<std::string, SpanLog::Totals>> rows(totals.begin(),
                                                              totals.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.selfNs > b.second.selfNs;
    });
    std::printf("span self time (host ms, top 15 of %zu names):\n",
                rows.size());
    for (std::size_t i = 0; i < rows.size() && i < 15; ++i) {
        const SpanLog::Totals& t = rows[i].second;
        std::printf("  %-40s calls %8llu self %10.3f total %10.3f "
                    "virtual %12.3f us\n",
                    rows[i].first.c_str(),
                    static_cast<unsigned long long>(t.count), t.selfNs * 1e-6,
                    t.hostNs * 1e-6, t.virtUs);
    }
}

} // namespace perfbench
