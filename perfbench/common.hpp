#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include "fabric/env.hpp"
#include "gpu/machine.hpp"
#include "sim/time.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

namespace fab = mscclpp::fabric;
namespace gpu = mscclpp::gpu;
namespace sim = mscclpp::sim;

/** Host clock in nanoseconds (steady). */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Host seconds since @p t0 (a hostNs() reading). */
inline double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(hostNs() - t0) * 1e-9;
}

/** Value of counter @p name in @p reg, 0 when it was never bumped. */
std::uint64_t counterValue(const mscclpp::obs::MetricsRegistry& reg,
                           const std::string& name);

/** Heap allocations made by this process so far (counting operator
 *  new in driver.cpp). */
std::uint64_t heapAllocs();

/**
 * Machine-speed calibration. On a shared machine the host speed drifts
 * by up to 2x within minutes, which no number of repeats inside one run
 * can average out. Each host-time end-to-end metric is therefore
 * reported in reference seconds: measured seconds times
 * kCalibrationRefS over the median of calibration samples taken
 * between the timed pieces of the same run. A sample is the fastest of
 * three runs of a fixed loop that uses no simulator code (map churn and
 * sorting: the allocation and pointer-chasing mix of the event loop).
 */
inline constexpr double kCalibrationRefS = 0.005;

/** Take one calibration sample. */
void calibrate();

/** kCalibrationRefS / median sample; 1 before any sample. */
double hostScale();

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

/** Bit-exact equality of two lists of virtual-time readings. */
bool sameBits(const std::vector<double>& a, const std::vector<double>& b);

/** Operations attempted / failed, per run phase. */
struct OpCounts
{
    struct Phase
    {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };
    std::map<std::string, Phase> phases;

    void ok(const std::string& phase, std::uint64_t n = 1)
    {
        phases[phase].attempted += n;
    }
    void fail(const std::string& phase, std::uint64_t n = 1)
    {
        phases[phase].attempted += n;
        phases[phase].failed += n;
    }
    std::uint64_t attempted() const;
    std::uint64_t failed() const;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
};

/**
 * Spans around the driver's calls into the simulator's public
 * functions: name, host start/end, virtual start/end, the enclosing
 * span and (for serving) the request id. Kept in memory and written as
 * JSON when the run ends. Disabled spans cost one branch.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        long request = -1;
        std::int64_t hostBegin = 0;
        std::int64_t hostEnd = 0;
        double virtBeginUs = 0;
        double virtEndUs = 0;
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    int begin(const std::string& name, double virtUs);
    void end(int id, double virtUs);
    /** A closed span with virtual times only (request lifecycles,
     *  which the cluster runs internally). */
    void virtualSpan(const std::string& name, long request,
                     double virtBeginUs, double virtEndUs);

    const std::vector<Span>& spans() const { return spans_; }

    /** Per span name: count, host ns, self host ns (duration minus
     *  children), virtual us. */
    struct Totals
    {
        std::uint64_t count = 0;
        double hostNs = 0;
        double selfNs = 0;
        double virtUs = 0;
    };
    std::map<std::string, Totals> totals() const;

    void writeJson(const std::string& path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

SpanLog& spans();

/** RAII span; @p sched (may be null) supplies the virtual clock. */
class ScopedSpan
{
  public:
    ScopedSpan(const std::string& name, sim::Scheduler* sched)
        : sched_(sched)
    {
        if (spans().enabled()) {
            id_ = spans().begin(name, virtNow());
        }
    }
    ~ScopedSpan()
    {
        if (id_ >= 0) {
            spans().end(id_, virtNow());
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    double virtNow() const
    {
        return sched_ != nullptr ? sim::toUs(sched_->now()) : 0.0;
    }
    sim::Scheduler* sched_;
    int id_ = -1;
};

/** A new machine with its teardown dump disabled. */
std::unique_ptr<gpu::Machine> makeMachine(const fab::EnvConfig& env,
                                          int nodes, gpu::DataMode mode);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
