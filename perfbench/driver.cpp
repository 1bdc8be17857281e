/**
 * perfbench driver: the repository benchmark, one single-threaded
 * process per run.
 *
 *   perfbench_driver --workload <coll_sweep|serve_steady|
 *                     serve_disagg_fault> --seed <n> --seconds <s>
 *                    --trace <0|1> [--spans <file>]
 *
 * --trace 0 sets up the workload several times, runs its timed phase
 * for about --seconds of host time, reads peak RSS, runs the
 * companion leg and the output checks, and reports every end-to-end
 * metric. --trace 1 runs the timed phase untraced and then traced
 * (spans around every call into the simulator), checks that both give
 * bit-identical virtual results, runs the per-layer probes and
 * reports the per-layer ladder. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */
#include "probes.hpp"
#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

extern char** environ;

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string spansFile;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <coll_sweep|serve_steady|"
                 "serve_disagg_fault> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n",
                 argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            a.trace = static_cast<int>(std::strtol(val, &end, 10));
        } else if (key == "--spans") {
            a.spansFile = val;
        } else {
            usage(argv[0]);
        }
        if (end != nullptr && *end != '\0') {
            usage(argv[0]);
        }
    }
    if (argc % 2 != 1 ||
        std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
            kWorkloads.end() ||
        a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
        usage(argv[0]);
    }
    return a;
}

/** Every observability, tuner and serving knob is read from MSCCLPP_*
 *  variables; the benchmark configures everything explicitly and
 *  refuses to run with any of them set. */
void
requireCleanEnvironment()
{
    bool dirty = false;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "MSCCLPP_", 8) == 0) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         *e);
            dirty = true;
        }
    }
    if (dirty) {
        std::exit(2);
    }
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printMetric(const Metric& m)
{
    std::printf("  %-44s %16.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

void
printOps(const OpCounts& ops)
{
    std::printf("operations by phase (attempted / succeeded / failed):\n");
    for (const auto& [name, p] : ops.phases) {
        std::printf("  %-10s %8llu %8llu %8llu\n", name.c_str(),
                    static_cast<unsigned long long>(p.attempted),
                    static_cast<unsigned long long>(p.attempted - p.failed),
                    static_cast<unsigned long long>(p.failed));
    }
    const double pct =
        ops.attempted() > 0 ? 100.0 * static_cast<double>(ops.failed()) /
                                  static_cast<double>(ops.attempted())
                            : 0.0;
    std::printf("  failed_pct %.6f %%\n", pct);
}

void
printResult(bool correct, const OpCounts& ops,
            const std::vector<Metric>& metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ops.attempted());
    json += ", \"failed\": " + std::to_string(ops.failed());
    json += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    const Args args = parseArgs(argc, argv);
    requireCleanEnvironment();
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "build=%s nproc=%ld\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace, PERFBENCH_BUILD_TYPE,
                sysconf(_SC_NPROCESSORS_ONLN));
    printConfig(args.workload, args.seed,
                args.trace ? args.seconds / 2 : args.seconds);

    OpCounts ops;
    try {
        if (args.trace == 0) {
            TimedPhase ph = runTimed(args.workload, args.seed, args.seconds,
                                     2, 6, ops);
            const double rss = peakRssMb();
            runCompanion(args.workload, args.seed, args.seconds, ph, ops);
            verifyWorkload(args.workload, args.seed, ph, ops);

            // Reference seconds (see kCalibrationRefS); raw beside.
            const double scale = hostScale();
            std::printf("host: pass %.6f s, set-up %.6f s as measured; "
                        "machine-speed scale %.4f\n",
                        ph.hostWallS, median(ph.setup), scale);
            std::vector<Metric> metrics = endToEndMetrics(ph);
            metrics.push_back(
                {"host_wall_s", ph.hostWallS * scale, "s", ph.passes});
            metrics.push_back({"setup_s", median(ph.setup) * scale, "s",
                               ph.setup.size()});
            metrics.push_back({"peak_rss_mb", rss, "MB", 1});
            std::printf("end-to-end metrics:\n");
            for (const Metric& m : metrics) {
                printMetric(m);
            }
            printOps(ops);
            if (!ph.deterministic) {
                std::printf("determinism: FAILED (virtual results differ "
                            "between repeats)\n");
            }
            const bool correct = ph.deterministic && ops.failed() == 0;
            printResult(correct, ops, metrics);
            return correct ? 0 : 1;
        }

        TimedPhase untraced = runTimed(args.workload, args.seed,
                                       args.seconds / 2, 1, 1, ops);
        spans().setEnabled(true);
        TimedPhase traced = runTimed(args.workload, args.seed,
                                     args.seconds / 2, 1, 1, ops);
        runCompanion(args.workload, args.seed, args.seconds / 2, traced, ops);
        std::vector<Metric> metrics =
            runProbes(args.workload, args.seed, traced, ops);
        spans().setEnabled(false);
        verifyWorkload(args.workload, args.seed, traced, ops);

        const bool deterministic =
            untraced.deterministic && traced.deterministic &&
            sameBits(untraced.fingerprint, traced.fingerprint);
        metrics.push_back({"trace.overhead_pct",
                           100.0 * (traced.hostWallS / untraced.hostWallS - 1),
                           "%", traced.passes});
        printLadder(metrics);
        printSelfTimes();
        printOps(ops);
        std::printf("determinism (untraced vs traced virtual results): %s\n",
                    deterministic ? "identical" : "FAILED");
        if (!args.spansFile.empty()) {
            spans().writeJson(args.spansFile);
        }
        const bool correct = deterministic && ops.failed() == 0;
        printResult(correct, ops, metrics);
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
