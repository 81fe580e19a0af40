#ifndef RECSTACK_FLEET_FLEET_SIM_H_
#define RECSTACK_FLEET_FLEET_SIM_H_

/**
 * @file
 * FleetSimulator: M serving nodes behind a router, one virtual clock.
 *
 * The single-node layer characterizes one machine (ServingNode);
 * production recommendation serving runs fleets. This
 * simulator closes the gap analytically:
 *
 *  - Traffic: one global open-loop arrival stream — a Poisson process
 *    at `baseQps`, optionally modulated by a diurnal RateEnvelope
 *    (thinning; workload/rate_envelope.h) — where each query belongs
 *    to a Zipf-skewed user drawn from a population of millions. The
 *    user id is the routing key, so skew is visible to sticky
 *    policies.
 *  - Routing: a fleet/router.h policy assigns each arrival to a node
 *    in arrival order; power-of-two-choices reads the per-node queue
 *    depths at the arrival instant.
 *  - Nodes: each node is an analytic twin of ServingNode: the same
 *    batching core BatchQueue wraps (serve/batcher.h), driven
 *    sequentially over the node's routed sub-stream, with the same
 *    CPU batch price (contention stretch + placement surcharge,
 *    serve/contention.h), advanced incrementally so the router can
 *    read queue depths at arrival time. The twin is pinned to the
 *    real threaded node by a differential test: captured per-node
 *    traces replayed through ServingNode::runTrace must reproduce the
 *    twin's stats (tests/test_fleet.cc).
 *  - Observability: every completed query records into its node's own
 *    obs::LatencyHistogram; the fleet tail is the *merge* of those
 *    per-node histograms (HistogramSnapshot::merge), exactly the
 *    roll-up a metrics pipeline performs, and the autoscaler's
 *    control signal.
 *
 * Everything is deterministic given the seeds: same config, same
 * per-query routing, same stats, on any machine.
 */

#include <cstdint>
#include <vector>

#include "fleet/placement.h"
#include "fleet/router.h"
#include "obs/metrics.h"
#include "sched/query_scheduler.h"
#include "serve/serving_stats.h"
#include "workload/rate_envelope.h"

namespace recstack {
namespace fleet {

/** The global query stream offered to the fleet. */
struct TrafficConfig {
    /// Mean fleet-wide arrival rate (peak rate when modulated).
    double baseQps = 4000.0;
    /// User population; each query draws its user Zipf-skewed so hot
    /// users dominate, the regime sticky routing suffers under.
    int64_t numUsers = 2000000;
    double userZipf = 0.9;
    /// Arrival-rate envelope (diurnal load curve); constant() leaves
    /// the stream a plain Poisson process.
    RateEnvelope envelope = RateEnvelope::constant();
    uint64_t seed = 42;
};

/** One fleet experiment. */
struct FleetConfig {
    int numNodes = 4;
    RoutePolicy policy = RoutePolicy::kPowerOfTwo;
    PlacementConfig placement;
    int virtualNodesPerNode = 128;  ///< consistent-hash ring points
    /// Per-node serving knobs (the EngineConfig subset the virtual
    /// node prices with).
    int workersPerNode = 2;
    int64_t maxBatch = 256;
    double maxWaitSeconds = 1e-3;
    double simSeconds = 2.0;
    bool modelContention = true;
    /// Keep each node's routed arrival trace in the result (memory
    /// scales with total arrivals) — the hook the differential test
    /// uses to replay a node through the real threaded ServingNode.
    bool captureTraces = false;
    /// Per-node latency histogram bounds (fleet tails are merged from
    /// these, so every node must use the same shape).
    double histogramLoSeconds = 0.0;
    double histogramHiSeconds = 1.0;
    size_t histogramBuckets = 1000;
};

/** One node's view of a fleet run. */
struct FleetNodeResult {
    ServingStats stats;
    uint64_t routedQueries = 0;
    obs::HistogramSnapshot latencyHistogram;
    /// Routed arrival timestamps (only when captureTraces).
    std::vector<double> arrivalTrace;
};

/** Fleet-wide outcome of one run. */
struct FleetResult {
    /// Stats over every query the fleet served (exact percentiles
    /// from the pooled latency list).
    ServingStats aggregate;
    std::vector<FleetNodeResult> perNode;
    /// Merge of the per-node latency histograms — the fleet tail as a
    /// metrics pipeline would see it.
    obs::HistogramSnapshot mergedHistogram;
    /// p99 read from mergedHistogram; agrees with aggregate.p99Latency
    /// within one bucket width for in-range tails.
    double mergedP99 = 0.0;
    uint64_t totalArrivals = 0;
    /// max over nodes of routed queries / mean routed queries
    /// (1.0 = perfectly balanced).
    double routedImbalance = 1.0;
    /// The placement surcharge every node priced with.
    double remoteSecondsPerSample = 0.0;
    /// One node's resident table bytes under the placement.
    uint64_t nodeTableBytes = 0;
};

/** M analytic serving nodes behind a router on one virtual clock. */
class FleetSimulator
{
  public:
    /**
     * @param scheduler    latency oracle over the characterization
     *                     grid (not owned; must outlive the simulator)
     * @param model        served model
     * @param platform_idx CPU platform in the scheduler's sweep
     */
    FleetSimulator(QueryScheduler* scheduler, ModelId model,
                   size_t platform_idx);

    FleetResult simulate(const FleetConfig& config,
                         const TrafficConfig& traffic);

    ModelId model() const { return model_; }
    size_t platformIdx() const { return platformIdx_; }

  private:
    QueryScheduler* scheduler_;
    ModelId model_;
    size_t platformIdx_;
};

}  // namespace fleet
}  // namespace recstack

#endif  // RECSTACK_FLEET_FLEET_SIM_H_
