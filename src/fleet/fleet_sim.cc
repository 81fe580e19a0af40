#include "fleet/fleet_sim.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "models/store_binding.h"
#include "serve/batcher.h"
#include "serve/contention.h"

namespace recstack {
namespace fleet {
namespace {

/**
 * Analytic twin of one ServingNode: the batching core BatchQueue
 * wraps (serve/batcher.h), driven sequentially instead of across
 * threads and advanced incrementally so the router can ask for a
 * node's queue depth at any arrival instant.
 *
 * The twin's arrival source is the routed sub-stream. While nothing
 * routed is waiting and the global stream has not ended, it answers
 * "not known yet": the next arrival routed here could still land
 * inside the window, fill the batch, or never come (the real queue
 * would then drain at once), so the walk stalls until the router
 * knows more. Arrivals are routed in strictly increasing time order,
 * so every stall resolves with exactly the knowledge the real
 * BatchQueue has from the full trace — which is what the differential
 * replay test pins (a captured trace fed to ServingNode::runTrace
 * reproduces the twin's stats).
 */
class VirtualNode
{
  public:
    VirtualNode(const CpuBatchPrice& price, const FleetConfig& config)
        : core_({config.maxBatch, config.maxWaitSeconds,
                 config.workersPerNode},
                ArrivalSource::routed()),
          service_([&price](const BatchTicket& ticket, int busy) {
              return price.seconds(ticket.size(), price.factor(busy));
          }),
          horizon_(config.simSeconds),
          workers_(static_cast<size_t>(config.workersPerNode)),
          histogram_(config.histogramLoSeconds,
                     config.histogramHiSeconds,
                     config.histogramBuckets)
    {
    }

    /** Route one arrival here (strictly increasing timestamps). */
    void addArrival(double t) { core_.source().push(t); }

    /** No further arrivals will ever be routed to this node. */
    void endStream() { core_.source().end(); }

    /**
     * Outstanding work at time @c t for power-of-two-choices: queued
     * samples (admitted or routed-but-unadmitted) plus workers still
     * in virtual service (strict >, the busyAtLaunch convention).
     * Call advance(t) first.
     */
    double depth(double t) const
    {
        return static_cast<double>(core_.source().known() +
                                   core_.pending()) +
               static_cast<double>(core_.inServiceAt(t));
    }

    /**
     * Process every launch whose walk starts strictly before
     * @c frontier (pass +inf after endStream() to drain and retire
     * all workers).
     */
    void advance(double frontier)
    {
        BatchTicket ticket;
        double completion = 0.0;
        int busy = 0;
        Batcher::Reason reason = Batcher::Reason::kFull;
        while (true) {
            const int w = core_.turn();
            if (w < 0 || core_.readyTime(w) >= frontier) {
                return;  // all retired, or launch at/after the frontier
            }
            const Batcher::Step step = core_.walk(
                w, service_, &ticket, &completion, &busy, &reason);
            if (step == Batcher::Step::kStalled) {
                return;
            }
            if (step == Batcher::Step::kLaunched) {
                Worker& worker = workers_[static_cast<size_t>(w)];
                worker.busy += completion - ticket.launchTime;
                worker.last = std::max(worker.last, completion);
                for (double arrival : ticket.arrivals) {
                    worker.latencies.push_back(completion - arrival);
                    histogram_.record(completion - arrival);
                }
                samplesServed_ += static_cast<uint64_t>(ticket.size());
                ++batchesServed_;
            }
        }
    }

    uint64_t arrived() const { return core_.admitted(); }
    const obs::LatencyHistogram& histogram() const { return histogram_; }

    /**
     * Fold this node's run into ServingStats with exactly the
     * formulas ServingNode uses (worker-order summation, shared
     * fillLatencyStats), so the differential replay matches to the
     * last bit. Returns the node-local horizon; @c busy_seconds gets
     * the node's total busy time.
     */
    double finalize(ServingStats* stats,
                    std::vector<double>* pooled_latencies,
                    double* busy_seconds)
    {
        double horizon = horizon_;
        for (const Worker& worker : workers_) {
            horizon = std::max(horizon, worker.last);
        }
        std::vector<double> all;
        double busy = 0.0;
        for (const Worker& worker : workers_) {
            all.insert(all.end(), worker.latencies.begin(),
                       worker.latencies.end());
            busy += worker.busy;
        }
        stats->samplesArrived = arrived();
        fillLoadStats(samplesServed_, batchesServed_, busy,
                      static_cast<double>(workers_.size()), horizon,
                      horizon_, stats);
        pooled_latencies->insert(pooled_latencies->end(), all.begin(),
                                 all.end());
        fillLatencyStats(all, stats);
        *busy_seconds = busy;
        return horizon;
    }

  private:
    /** What one worker served, for finalize(). */
    struct Worker {
        double busy = 0.0;
        double last = 0.0;
        std::vector<double> latencies;
    };

    Batcher core_;
    Batcher::ServiceFn service_;
    double horizon_;
    std::vector<Worker> workers_;
    uint64_t samplesServed_ = 0;
    uint64_t batchesServed_ = 0;
    obs::LatencyHistogram histogram_;
};

}  // namespace

FleetSimulator::FleetSimulator(QueryScheduler* scheduler, ModelId model,
                               size_t platform_idx)
    : scheduler_(scheduler), model_(model), platformIdx_(platform_idx)
{
    RECSTACK_CHECK(scheduler_ != nullptr,
                   "fleet simulator needs a scheduler");
    RECSTACK_CHECK(platform_idx < scheduler_->sweep()->platforms().size(),
                   "platform index out of range");
}

FleetResult
FleetSimulator::simulate(const FleetConfig& config,
                         const TrafficConfig& traffic)
{
    RECSTACK_CHECK(config.numNodes >= 1, "need at least one node");
    RECSTACK_CHECK(config.workersPerNode >= 1,
                   "need at least one worker per node");
    RECSTACK_CHECK(config.maxBatch > 0, "batch cap must be > 0");
    RECSTACK_CHECK(config.simSeconds > 0.0, "duration must be > 0");
    RECSTACK_CHECK(traffic.baseQps > 0.0, "arrival rate must be > 0");
    RECSTACK_CHECK(traffic.numUsers > 0, "need a user population");

    SweepCache* sweep = scheduler_->sweep();
    const Model& model = sweep->characterizer().model(model_);

    const PlacementView placement(config.placement, config.numNodes,
                                  model.workload);

    // Every node prices its batches exactly as ServingNode does.
    const CpuBatchPrice price(scheduler_, model_, platformIdx_,
                              config.workersPerNode, config.maxBatch,
                              config.modelContention,
                              placement.remoteSecondsPerSample());
    const int M = config.numNodes;
    std::vector<std::unique_ptr<VirtualNode>> nodes;
    nodes.reserve(static_cast<size_t>(M));
    for (int n = 0; n < M; ++n) {
        nodes.push_back(std::make_unique<VirtualNode>(price, config));
    }

    FleetResult result;
    result.remoteSecondsPerSample = placement.remoteSecondsPerSample();
    result.nodeTableBytes =
        placement.nodeTableBytes(modelEmbeddingBytes(model));
    result.perNode.resize(static_cast<size_t>(M));

    // Global arrival stream: modulated Poisson clock, Zipf user draw
    // per query, route in arrival order. p2c is the only policy that
    // needs the incremental advance during generation — the others
    // route from the key/cursor alone.
    ModulatedPoissonProcess arrivals(traffic.baseQps, traffic.envelope,
                                     traffic.seed);
    ZipfSampler users(static_cast<uint64_t>(traffic.numUsers),
                      traffic.userZipf);
    Rng user_rng(traffic.seed ^ 0x7f4a7c159e3779b9ull);
    Router router(config.policy, M, traffic.seed ^ 0xa0761d6478bd642full,
                  config.virtualNodesPerNode);
    const bool needs_depth = config.policy == RoutePolicy::kPowerOfTwo;
    std::vector<double> depths(static_cast<size_t>(M), 0.0);

    while (true) {
        const double t = arrivals.next();
        if (t >= config.simSeconds) {
            break;
        }
        const uint64_t user = users.sample(user_rng);
        if (needs_depth) {
            for (int n = 0; n < M; ++n) {
                nodes[static_cast<size_t>(n)]->advance(t);
                depths[static_cast<size_t>(n)] =
                    nodes[static_cast<size_t>(n)]->depth(t);
            }
        }
        const int n = router.route(user, depths);
        nodes[static_cast<size_t>(n)]->addArrival(t);
        if (config.captureTraces) {
            result.perNode[static_cast<size_t>(n)]
                .arrivalTrace.push_back(t);
        }
        ++result.totalArrivals;
    }

    // Stream over: drain every node to completion.
    for (auto& node : nodes) {
        node->endStream();
        node->advance(std::numeric_limits<double>::infinity());
    }

    // Per-node stats + the two tail views: exact (pooled latencies)
    // and merged-histogram (the metrics-pipeline roll-up).
    result.mergedHistogram.lo = config.histogramLoSeconds;
    result.mergedHistogram.hi = config.histogramHiSeconds;
    result.mergedHistogram.counts.assign(config.histogramBuckets, 0);
    std::vector<double> pooled;
    double fleet_horizon = config.simSeconds;
    double total_busy = 0.0;
    uint64_t max_routed = 0;
    for (int n = 0; n < M; ++n) {
        VirtualNode& node = *nodes[static_cast<size_t>(n)];
        FleetNodeResult& out = result.perNode[static_cast<size_t>(n)];
        double node_busy = 0.0;
        const double node_horizon =
            node.finalize(&out.stats, &pooled, &node_busy);
        fleet_horizon = std::max(fleet_horizon, node_horizon);
        total_busy += node_busy;
        out.routedQueries = node.arrived();
        max_routed = std::max(max_routed, node.arrived());
        out.latencyHistogram = node.histogram().snapshot();
        result.mergedHistogram.merge(out.latencyHistogram);

        result.aggregate.samplesArrived += out.stats.samplesArrived;
        result.aggregate.samplesServed += out.stats.samplesServed;
        result.aggregate.batchesServed += out.stats.batchesServed;
    }
    fillLoadStats(result.aggregate.samplesServed,
                  result.aggregate.batchesServed, total_busy,
                  static_cast<double>(M) *
                      static_cast<double>(config.workersPerNode),
                  fleet_horizon, config.simSeconds, &result.aggregate);
    fillLatencyStats(pooled, &result.aggregate);
    result.mergedP99 = result.mergedHistogram.percentile(0.99);
    if (result.totalArrivals > 0) {
        const double mean_routed =
            static_cast<double>(result.totalArrivals) /
            static_cast<double>(M);
        result.routedImbalance =
            static_cast<double>(max_routed) / mean_routed;
    }
    return result;
}

}  // namespace fleet
}  // namespace recstack
