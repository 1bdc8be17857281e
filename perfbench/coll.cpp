#include "coll.hpp"

#include "dsl/algorithms.hpp"

#include <cstdio>
#include <cstring>
#include <exception>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace compat = mscclpp::compat;
namespace dsl = mscclpp::dsl;
using mscclpp::AllGatherAlgo;
using mscclpp::AllReduceAlgo;
using mscclpp::CollectiveComm;

std::vector<Shape>
sweepShapes()
{
    return {{"1n8g", fab::makeA100_40G(), 1},
            {"2n16g", fab::makeA100_40G(), 2},
            {"h100", fab::makeH100(), 1}};
}

Shape
servingShape()
{
    return {"a100_80g", fab::makeA100_80G(), 1};
}

const char*
opName(Op op)
{
    return op == Op::AllReduce ? "allreduce" : "allgather";
}

std::vector<GridPoint>
makeGrid(std::uint64_t seed)
{
    constexpr std::size_t kAlign = 256; // 16 ranks x 16-byte shards
    constexpr std::array<std::size_t, 5> kNominal = {
        std::size_t(1) << 10, std::size_t(64) << 10, std::size_t(1) << 20,
        std::size_t(16) << 20, std::size_t(64) << 20};
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<GridPoint> grid;
    for (Op op : {Op::AllReduce, Op::AllGather}) {
        for (int i = 0; i < static_cast<int>(kNominal.size()); ++i) {
            const std::size_t steps =
                std::max<std::size_t>(1, kNominal[i] / (32 * kAlign));
            const std::size_t k = rng() % (steps + 1);
            grid.push_back({op, i, kNominal[i] - k * kAlign});
        }
    }
    return grid;
}

double
busBwGBps(const GridPoint& p, int ranks, double us)
{
    const double n = ranks;
    const double factor =
        p.op == Op::AllReduce ? 2.0 * (n - 1) / n : (n - 1) / n;
    return static_cast<double>(p.bytes) / (us * 1e3) * factor;
}

namespace {

std::optional<dsl::Program>
programFor(const CollectiveComm& cc, const GridPoint& p, int n, int gpn)
{
    if (p.op == Op::AllReduce) {
        switch (cc.chooseAllReduce(p.bytes)) {
          case AllReduceAlgo::AllPairs1P:
            return dsl::buildAllPairs1PAllReduce(n, p.bytes);
          case AllReduceAlgo::AllPairs2PLL:
            return dsl::buildAllPairs2PAllReduceLL(n, p.bytes);
          case AllReduceAlgo::AllPairs2PPort:
            return dsl::buildAllPairs2PAllReducePort(n, p.bytes);
          case AllReduceAlgo::Switch2P:
            return dsl::buildSwitchAllReduce(n, p.bytes);
          case AllReduceAlgo::Hier2PLL:
          case AllReduceAlgo::Hier2PHB:
            return dsl::buildHierAllReduce(n, gpn, p.bytes);
          default:
            return dsl::buildAllPairs2PAllReduceHB(n, p.bytes);
        }
    }
    const std::size_t shard = p.bytes / static_cast<std::size_t>(n);
    if (n > gpn) {
        return std::nullopt; // no hierarchical AllGather builder
    }
    if (cc.chooseAllGather(shard) == AllGatherAlgo::AllPairsLL) {
        return dsl::buildAllPairsAllGatherLL(n, shard);
    }
    return dsl::buildAllPairsAllGather(n, shard);
}

} // namespace

Rig::Rig(const Shape& shape, gpu::DataMode mode, std::size_t maxBytes,
         const std::vector<GridPoint>& grid)
    : shape_(shape), grid_(grid)
{
    machine_ = makeMachine(shape.env, shape.nodes, mode);
    compat::mscclppNcclBindMachine(*machine_, maxBytes);
    compat::ncclUniqueId id;
    compat::ncclGetUniqueId(&id);
    const int n = machine_->numGpus();
    comms_.assign(n, nullptr);
    for (int r = 0; r < n; ++r) {
        if (compat::ncclCommInitRank(&comms_[r], n, id, r) !=
            compat::ncclSuccess) {
            throw std::runtime_error("ncclCommInitRank failed");
        }
    }
    CollectiveComm::Options opt;
    opt.maxBytes = maxBytes;
    direct_ = std::make_unique<CollectiveComm>(*machine_, opt);
    exec_ = std::make_unique<dsl::Executor>(*machine_, maxBytes);
    for (const GridPoint& p : grid_) {
        programs_.push_back(
            programFor(*direct_, p, n, shape.env.gpusPerNode));
    }
}

Rig::~Rig()
{
    for (compat::ncclComm_t c : comms_) {
        compat::ncclCommDestroy(c);
    }
    compat::mscclppNcclReset();
    exec_.reset();
    direct_.reset();
}

CallResult
Rig::nccl(const GridPoint& p, compat::ncclDataType_t dt,
          const std::vector<const void*>& send,
          const std::vector<void*>& recv)
{
    // Timed mode never touches the buffers, but the API wants them.
    static char placeholder[16];
    const int n = ranks();
    const std::size_t elem = dt == compat::ncclFloat16 ? 2 : 4;
    const sim::Time before = compat::mscclppNcclElapsed(comms_[0]);
    CallResult res;
    try {
        for (int r = 0; r < n; ++r) {
            const void* s = send.empty() ? placeholder : send[r];
            void* d = recv.empty() ? placeholder : recv[r];
            const compat::ncclResult_t rc =
                p.op == Op::AllReduce
                    ? compat::ncclAllReduce(s, d, p.bytes / elem, dt,
                                            compat::ncclSum, comms_[r], 0)
                    : compat::ncclAllGather(s, d, p.bytes / elem / n, dt,
                                            comms_[r], 0);
            if (rc != compat::ncclSuccess) {
                return res;
            }
        }
        for (int r = 0; r < n; ++r) {
            if (compat::mscclppNcclStreamSynchronize(comms_[r], 0) !=
                compat::ncclSuccess) {
                return res;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: nccl %s failed: %s\n",
                     p.label().c_str(), e.what());
        return res;
    }
    res.us = sim::toUs(compat::mscclppNcclElapsed(comms_[0]) - before);
    res.ok = res.us > 0;
    return res;
}

CallResult
Rig::dsl(std::size_t i, gpu::DataType dt)
{
    CallResult res;
    try {
        res.us = sim::toUs(exec_->execute(*programs_.at(i), dt,
                                          gpu::ReduceOp::Sum));
        res.ok = res.us > 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: dsl %s failed: %s\n",
                     grid_.at(i).label().c_str(), e.what());
    }
    return res;
}

CallResult
Rig::directCall(const GridPoint& p)
{
    CallResult res;
    try {
        const sim::Time t =
            p.op == Op::AllReduce
                ? direct_->allReduce(p.bytes, gpu::DataType::F16,
                                     gpu::ReduceOp::Sum)
                : direct_->allGather(p.bytes /
                                     static_cast<std::size_t>(ranks()));
        res.us = sim::toUs(t);
        res.ok = res.us > 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: direct %s failed: %s\n",
                     p.label().c_str(), e.what());
    }
    return res;
}

GridPass
runGridPass(Rig& rig, const std::vector<GridPoint>& grid, OpCounts& ops,
            const std::string& phase)
{
    GridPass pass;
    sim::Scheduler* sched = &rig.machine().scheduler();
    ScopedSpan whole("coll.pass." + rig.shape().tag, sched);
    const std::int64_t t0 = hostNs();
    for (const GridPoint& p : grid) {
        ScopedSpan s("nccl." + p.label(), sched);
        pass.nccl.push_back(rig.nccl(p, mscclpp::compat::ncclFloat16));
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!rig.hasDsl(i)) {
            pass.dsl.emplace_back();
            continue;
        }
        ScopedSpan s("dsl.execute." + grid[i].label(), sched);
        pass.dsl.push_back(rig.dsl(i, gpu::DataType::F16));
    }
    pass.hostS = secondsSince(t0);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const bool ok = pass.nccl[i].ok && (!rig.hasDsl(i) || pass.dsl[i].ok);
        if (ok) {
            ops.ok(phase, rig.hasDsl(i) ? 2 : 1);
        } else {
            ops.fail(phase);
        }
    }
    return pass;
}

namespace {

/** Seeded small-integer F32 input of rank @p r, element @p i: sums
 *  over 16 ranks stay exact in F32. */
float
inputValue(std::uint64_t seed, int r, std::size_t i)
{
    const std::uint64_t h =
        (seed * 2654435761ull + static_cast<std::uint64_t>(r) * 7919ull +
         static_cast<std::uint64_t>(i) * 104729ull) %
        23ull;
    return static_cast<float>(static_cast<int>(h) - 11);
}

/** Per-rank input of @p p: the whole buffer (AllReduce) or the shard. */
std::vector<float>
rankInput(const GridPoint& p, int n, int r, std::uint64_t seed)
{
    const std::size_t elems =
        p.op == Op::AllReduce ? p.bytes / 4
                              : p.bytes / 4 / static_cast<std::size_t>(n);
    std::vector<float> in(elems);
    for (std::size_t i = 0; i < elems; ++i) {
        in[i] = inputValue(seed, r, i);
    }
    return in;
}

/** Expected output of @p p on every rank, from the host. */
std::vector<float>
reference(const GridPoint& p, int n, std::uint64_t seed)
{
    std::vector<float> out;
    if (p.op == Op::AllReduce) {
        out.assign(p.bytes / 4, 0.0f);
        for (int r = 0; r < n; ++r) {
            const std::vector<float> in = rankInput(p, n, r, seed);
            for (std::size_t i = 0; i < in.size(); ++i) {
                out[i] += in[i];
            }
        }
    } else {
        for (int r = 0; r < n; ++r) {
            const std::vector<float> in = rankInput(p, n, r, seed);
            out.insert(out.end(), in.begin(), in.end());
        }
    }
    return out;
}

bool
matches(const void* got, const std::vector<float>& want)
{
    return got != nullptr &&
           std::memcmp(got, want.data(), want.size() * sizeof(float)) == 0;
}

} // namespace

void
verifyShape(const Shape& shape, const std::vector<GridPoint>& grid,
            std::uint64_t seed, OpCounts& ops)
{
    constexpr std::size_t kMax = std::size_t(64) << 10;
    std::vector<GridPoint> pts;
    for (const GridPoint& p : grid) {
        if (p.bytes <= kMax) {
            pts.push_back(p);
        }
    }
    Rig rig(shape, gpu::DataMode::Functional, kMax, pts);
    const int n = rig.ranks();
    for (std::size_t k = 0; k < pts.size(); ++k) {
        const GridPoint& p = pts[k];
        const std::vector<float> want = reference(p, n, seed);

        // NCCL leg: host buffers in, host buffers out.
        std::vector<std::vector<float>> in(n), out(n);
        std::vector<const void*> send(n);
        std::vector<void*> recv(n);
        for (int r = 0; r < n; ++r) {
            in[r] = rankInput(p, n, r, seed);
            out[r].assign(want.size(), -1000.0f);
            send[r] = in[r].data();
            recv[r] = out[r].data();
        }
        bool ok = rig.nccl(p, compat::ncclFloat32, send, recv).ok;
        for (int r = 0; ok && r < n; ++r) {
            ok = matches(out[r].data(), want);
        }
        if (!ok) {
            std::fprintf(stderr, "perfbench: verify nccl %s on %s failed\n",
                         p.label().c_str(), shape.tag.c_str());
        }
        ok ? ops.ok("verify") : ops.fail("verify");
        if (!rig.hasDsl(k)) {
            continue;
        }

        // DSL leg: inputs written straight into the executor's buffers.
        for (int r = 0; r < n; ++r) {
            std::byte* dst = rig.executor().dataBuffer(r).data();
            const std::size_t off =
                p.op == Op::AllReduce ? 0 : r * in[r].size() * sizeof(float);
            std::memset(dst, 0, p.bytes);
            std::memcpy(dst + off, in[r].data(),
                        in[r].size() * sizeof(float));
        }
        ok = rig.dsl(k, gpu::DataType::F32).ok;
        for (int r = 0; ok && r < n; ++r) {
            ok = matches(rig.executor().dataBuffer(r).data(), want);
        }
        if (!ok) {
            std::fprintf(stderr, "perfbench: verify dsl %s on %s failed\n",
                         p.label().c_str(), shape.tag.c_str());
        }
        ok ? ops.ok("verify") : ops.fail("verify");
    }
}

} // namespace perfbench
