#ifndef PERFBENCH_COLL_HPP
#define PERFBENCH_COLL_HPP

#include "common.hpp"

#include "collective/api.hpp"
#include "collective/nccl_compat.hpp"
#include "dsl/executor.hpp"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** One machine shape of the collective sweep. */
struct Shape
{
    std::string tag;
    fab::EnvConfig env;
    int nodes = 1;
};

/** A100-40G 1n8g, A100-40G 2n16g and H100 1n8g. */
std::vector<Shape> sweepShapes();

/** The serving node: A100-80G 1n8g. */
Shape servingShape();

enum class Op
{
    AllReduce,
    AllGather,
};

const char* opName(Op op);

inline constexpr std::array<const char*, 5> kSizeLabels = {
    "1K", "64K", "1M", "16M", "64M"};
inline constexpr std::size_t kGridMaxBytes = std::size_t(64) << 20;

/**
 * One call of the grid. @c bytes is the AllReduce buffer or the
 * AllGather output; @c idx indexes kSizeLabels (the nominal size).
 */
struct GridPoint
{
    Op op = Op::AllReduce;
    int idx = 0;
    std::size_t bytes = 0;

    /** Latency-bound bucket (nominal size <= 1 MiB). */
    bool small() const { return idx <= 2; }
    std::string label() const
    {
        return std::string(opName(op)) + "." + kSizeLabels[idx];
    }
};

/**
 * The seeded grid: AllReduce and AllGather at every nominal size, each
 * shrunk by a seed-drawn multiple of 256 bytes (at most 1/32, so the
 * work per pass barely depends on the seed; 1K may lose one step), so
 * every shard of 8 or 16 ranks stays 16-byte aligned and every size
 * stays in its small/large bucket.
 */
std::vector<GridPoint> makeGrid(std::uint64_t seed);

/** Result of one NCCL-API or DSL call. */
struct CallResult
{
    bool ok = false;
    double us = 0;
};

/**
 * One shape bound to the NCCL drop-in shim (mscclppNcclBindMachine +
 * ncclCommInitRank per rank), plus a direct CollectiveComm (whose
 * Auto choice picks the DSL program) and a dsl::Executor running the
 * matching dsl::build* program for every grid point. Destruction
 * releases the shim with mscclppNcclReset.
 */
class Rig
{
  public:
    Rig(const Shape& shape, gpu::DataMode mode, std::size_t maxBytes,
        const std::vector<GridPoint>& grid);
    ~Rig();
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    const Shape& shape() const { return shape_; }
    gpu::Machine& machine() { return *machine_; }
    mscclpp::dsl::Executor& executor() { return *exec_; }
    int ranks() const { return machine_->numGpus(); }

    /** Collective through ncclAllReduce / ncclAllGather on every rank
     *  + mscclppNcclStreamSynchronize; latency from
     *  mscclppNcclElapsed. @p send / @p recv hold one pointer per rank
     *  (empty: Timed-mode placeholders). */
    CallResult nccl(const GridPoint& p, mscclpp::compat::ncclDataType_t dt,
                    const std::vector<const void*>& send = {},
                    const std::vector<void*>& recv = {});

    /** Whether grid point @p i has a DSL program: the DSL has no
     *  multi-node AllGather builder. */
    bool hasDsl(std::size_t i) const { return programs_.at(i).has_value(); }

    /** The DSL program of grid point @p i through Executor::execute. */
    CallResult dsl(std::size_t i, gpu::DataType dt);

    /** Direct CollectiveComm call with the Auto algorithm. */
    CallResult directCall(const GridPoint& p);

  private:
    Shape shape_;
    std::vector<GridPoint> grid_;
    std::unique_ptr<gpu::Machine> machine_;
    std::vector<mscclpp::compat::ncclComm_t> comms_;
    std::unique_ptr<mscclpp::CollectiveComm> direct_;
    std::unique_ptr<mscclpp::dsl::Executor> exec_;
    std::vector<std::optional<mscclpp::dsl::Program>> programs_;
};

/** Virtual latencies and host cost of one pass over the grid; grid
 *  points without a DSL program leave their DSL entry not ok. */
struct GridPass
{
    std::vector<CallResult> nccl;
    std::vector<CallResult> dsl;
    double hostS = 0;
};

/** One pass: every grid point through the NCCL leg, then the DSL leg.
 *  Counts every call into @p ops under @p phase. */
GridPass runGridPass(Rig& rig, const std::vector<GridPoint>& grid,
                     OpCounts& ops, const std::string& phase);

/**
 * Functional check of @p shape: every grid point of nominal size
 * <= 64 KiB, AllReduce and AllGather, through the NCCL and the DSL
 * legs, with seeded per-rank F32 inputs compared against a host
 * reference. Every call and every mismatch counts under "verify".
 */
void verifyShape(const Shape& shape, const std::vector<GridPoint>& grid,
                 std::uint64_t seed, OpCounts& ops);

/** nccl-tests bus bandwidth in GB/s for a call of @p p on @p ranks. */
double busBwGBps(const GridPoint& p, int ranks, double us);

} // namespace perfbench

#endif // PERFBENCH_COLL_HPP
