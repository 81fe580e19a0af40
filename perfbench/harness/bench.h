#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/**
 * @file
 * Shared plumbing of the benchmark harness: command-line options, the
 * per-run outcome every workload fills, and small statistics helpers.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @c t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process start as seen by main(); the origin of the first set-up. */
Clock::time_point processStart();

/** Parsed command line. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory (inside the checkout) for scratch files and traces.
    std::string workDir = ".bench_build/run";
    /// char_grid only: rewrite the recorded digest file and exit.
    bool recordDigest = false;
    /// Directory holding the benchmark's own data files.
    std::string benchDir = "perfbench";
};

/** One metric value with its unit. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;

    /** Record a failed correctness check covering @c ops operations. */
    void fail(const std::string& why, uint64_t ops = 1);
};

/** Sorted copy helpers over latency samples (any unit). */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/**
 * The highest percentile with at least ten samples beyond it, capped at
 * p99: (n - 10) / n, which is 0.99 from 1000 samples on. Falls back to
 * the maximum (1.0) below 11 samples.
 */
double tailQuantile(size_t n);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** Threads this process runs right now (from /proc/self/status). */
int currentThreadCount();

/** splitmix64 step: derives independent sub-seeds from one seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/** FNV-1a over raw bytes, chained through @c h. */
uint64_t fnv1a(const void* data, size_t bytes,
               uint64_t h = 1469598103934665603ull);

/**
 * Median of @c reps set-up durations, each measured by @c setup; the
 * first is timed from process start, so it also covers process and
 * library initialisation.
 */
template <typename SetupFn>
double
medianSetupSeconds(int reps, SetupFn&& setup)
{
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 =
            r == 0 ? processStart() : Clock::now();
        setup(r);
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

/** Set-up repetitions behind setup_s. */
inline constexpr int kSetupReps = 5;

Outcome runCharGrid(const Options& opts);
Outcome runServe(const Options& opts, bool sls);
Outcome runFleet(const Options& opts);
Outcome runServeQueue(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
