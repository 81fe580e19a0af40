#ifndef RECSTACK_SERVE_SERVING_STATS_H_
#define RECSTACK_SERVE_SERVING_STATS_H_

/**
 * @file
 * ServingStats: the serving view every layer reports — one worker,
 * one lane, one node, or a whole fleet.
 */

#include <cstdint>
#include <vector>

namespace recstack {

/** Measured behaviour of a serving node, lane, or fleet. */
struct ServingStats {
    uint64_t samplesArrived = 0;
    uint64_t samplesServed = 0;
    /// Samples that arrived but were never served. Always 0: every
    /// serving layer drains its queue completely. Kept because
    /// recorded stats digests hash it.
    uint64_t droppedSamples = 0;
    uint64_t batchesServed = 0;
    double meanLatency = 0.0;   ///< arrival -> completion, seconds
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double meanBatch = 0.0;
    double utilization = 0.0;   ///< fraction of time the engine is busy
    /// Demanded service time over the arrival window (busy seconds /
    /// simSeconds), *unclamped*: values above 1 expose over-saturated
    /// configurations that the clamped utilization hides.
    double offeredLoad = 0.0;
    double throughputQps = 0.0; ///< served samples / simulated time
};

/**
 * Reduce completed-sample latencies into ServingStats mean/tail
 * fields (sorts @c latencies in place; leaves the stats untouched
 * when empty). Shared by the threaded serving node and the fleet
 * simulator so every layer's percentile convention is
 * percentileOfSorted's.
 */
void fillLatencyStats(std::vector<double>& latencies,
                      ServingStats* stats);

/**
 * Fill the served-count and load fields of @c stats: @c samples served
 * in @c batches by @c servers servers busy for @c busy_seconds in
 * total, over a run whose last completion is @c horizon and whose
 * arrival window is @c sim_seconds. Shared by every layer so node,
 * lane and fleet views use one set of formulas.
 */
void fillLoadStats(uint64_t samples, uint64_t batches, double busy_seconds,
                   double servers, double horizon, double sim_seconds,
                   ServingStats* stats);

}  // namespace recstack

#endif  // RECSTACK_SERVE_SERVING_STATS_H_
