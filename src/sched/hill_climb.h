#ifndef RECSTACK_SCHED_HILL_CLIMB_H_
#define RECSTACK_SCHED_HILL_CLIMB_H_

/**
 * @file
 * Online hill-climbing tuner for the CPU/GPU batch-size threshold
 * (DeepRecSys's SLA-aware scheduler loop; see docs/scheduling.md).
 *
 * DeepRecSys tunes the per-model split between CPU inference engines
 * and the accelerator lane *online*: run an epoch at a candidate
 * threshold, observe the tail latency the serving stack actually
 * produced, and walk the threshold toward the best feasible point.
 * This module reproduces that loop against this repo's observability
 * surface instead of a bespoke side channel:
 *
 *  - the caller supplies an EpochFn that serves one epoch of traffic
 *    at a given threshold (in practice: set
 *    QueryScheduler::setGpuThreshold and run a ServingNode with a
 *    GPU lane in EngineConfig::lanes);
 *  - the tuner resets the named latency histogram in
 *    obs::MetricsRegistry::global() before the epoch and reads the
 *    achieved p99 and served-query count back from its snapshot
 *    afterwards — the feedback path is the live metrics pipe, not a
 *    return value, so any engine (or future backend) that records
 *    into "serve.query_latency_seconds" can be tuned unmodified;
 *  - candidates live on a fixed ascending grid (usually the
 *    characterization batch grid): the climber measures the current
 *    point and its neighbors and moves while a neighbor is better,
 *    so it converges to a local optimum in O(grid) epochs instead of
 *    sweeping every point.
 *
 * "Better" is SLA-aware and total: a feasible point (p99 <= SLA)
 * always beats an infeasible one; among feasible points higher
 * served QPS wins; equal-QPS ties fall to lower p99 (at a fixed
 * offered load the engine drains everything, so QPS ties are the
 * common case and the climber effectively minimizes the tail).
 * exhaustiveThreshold() measures every grid point with the same
 * objective — benches use it as the oracle the climber must land
 * within one grid step of (PAPER-CHECK in bench_ext_hetero).
 *
 * The tuner is deliberately generic over the epoch body: sched sits
 * below serve in the library stack, so it cannot (and does not)
 * depend on ServingNode.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace recstack {

/** One measured epoch at a candidate threshold. */
struct ThresholdMeasurement {
    int64_t threshold = 0;
    /// Served queries / epochSeconds, from the histogram's count.
    double qps = 0.0;
    /// Achieved tail from the histogram snapshot (within one bucket
    /// width of the exact order statistic).
    double p99 = 0.0;
    /// p99 <= slaSeconds.
    bool feasible = false;
};

/** Knobs of one tuning run. */
struct HillClimbConfig {
    /// Tail-latency target the scheduler must hold.
    double slaSeconds = 0.05;
    /// Ascending candidate thresholds (strictly increasing, all >= 1).
    /// Usually the characterization batch grid plus a sentinel like
    /// QueryScheduler::kNoGpuThreshold as "route nothing".
    std::vector<int64_t> thresholdGrid;
    /// Grid index the climb starts from (clamped to the grid).
    size_t startIndex = 0;
    /// Epoch budget: at most this many EpochFn invocations.
    int maxEpochs = 32;
    /// Virtual duration of one epoch's arrival stream; the QPS
    /// denominator (served queries / epochSeconds).
    double epochSeconds = 1.0;
    /// Latency histogram the tuner resets / reads, by registry name.
    std::string histogramName = "serve.query_latency_seconds";
};

/** What a tuning run decided (history in evaluation order). */
struct HillClimbResult {
    int64_t bestThreshold = 0;
    ThresholdMeasurement best;
    /// True when at least one measured point met the SLA; when false,
    /// best is the least-bad infeasible point.
    bool anyFeasible = false;
    /// Epochs actually spent (== history.size()).
    int epochs = 0;
    std::vector<ThresholdMeasurement> history;
};

/**
 * Serve one epoch at the given threshold. The tuner resets the
 * histogram immediately before calling this and snapshots it
 * immediately after, so the body must record every served query's
 * latency into cfg.histogramName (ServingNode already does).
 */
using EpochFn = std::function<void(int64_t threshold)>;

/** SLA-aware objective: does @c a beat @c b? (see file comment) */
bool thresholdMeasurementBetter(const ThresholdMeasurement& a,
                                const ThresholdMeasurement& b);

/** Neighborhood hill climb over cfg.thresholdGrid (see file). */
HillClimbResult hillClimbThreshold(const HillClimbConfig& cfg,
                                   const EpochFn& epoch);

/** Measure every grid point; the oracle the climber is judged by. */
HillClimbResult exhaustiveThreshold(const HillClimbConfig& cfg,
                                    const EpochFn& epoch);

}  // namespace recstack

#endif  // RECSTACK_SCHED_HILL_CLIMB_H_
