#ifndef RECSTACK_SERVE_SERVING_NODE_H_
#define RECSTACK_SERVE_SERVING_NODE_H_

/**
 * @file
 * ServingNode: one inference machine, the unit of fleet composition.
 *
 * A node owns everything one machine contributes to a serving fleet:
 * a pool of worker threads, the dynamic-batching BatchQueue in front
 * of them, optional accelerator lanes (GPU, PIM), and (in
 * real-numerics modes) one shared view of the embedding parameter
 * store. run() serves the node's own Poisson arrival stream — the
 * single-machine experiment — while the fleet simulator (src/fleet/)
 * composes M nodes behind a router and replays a node's routed
 * sub-stream via runTrace().
 *
 * Latency accounting is virtual: each batch's service time comes from
 * the QueryScheduler's characterization-grid oracle, stretched by the
 * multicore co-location model (serve/contention.h) according to how
 * many workers are busy at launch. Execution per batch is real
 * (Executor::run on the served net), and stats are a deterministic
 * function of the config: the queue releases batches in virtual-time
 * order, never in OS thread order. A node additionally prices
 * *placement*: in a fleet whose embedding rows are range-partitioned
 * across nodes, lookups for rows this node does not hold pay a
 * remote-fetch surcharge (EngineConfig::remoteSecondsPerSample),
 * folded into each CPU-serviced batch's virtual service time.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/executor.h"
#include "serve/gpu_lane.h"
#include "serve/serving_stats.h"
#include "store/embedding_store.h"

namespace recstack {

/**
 * One accelerator lane of a node (docs/scheduling.md, docs/pim.md).
 * Dynamic batches at or above the scheduler's per-model threshold for
 * the lane's platform kind (QueryScheduler::gpuThreshold for kGpu,
 * pimThreshold for kPim) are not serviced on the CPU worker: the
 * worker pays only the platform's host dispatch cost and the samples
 * defer to a GpuLane accumulation queue priced by the platform's
 * characterization, on the same virtual clock.
 */
struct LaneConfig {
    /// Index of a kGpu or kPim platform in the scheduler's sweep.
    size_t platformIdx = 3;
    /// Accumulation knobs of the lane.
    GpuLaneConfig batching;
};

/** One serving run on a node. */
struct EngineConfig {
    int numWorkers = 1;            ///< inference worker threads
    double arrivalQps = 1000.0;    ///< mean sample arrival rate
    int64_t maxBatch = 256;        ///< dynamic-batching cap
    double maxWaitSeconds = 1e-3;  ///< batching window
    double simSeconds = 2.0;       ///< arrival-stream duration
    uint64_t seed = 42;
    /// How workers execute the net per batch: kNumericOnly runs real
    /// numerics (tables served from one shared EmbeddingStore, dense
    /// weights per worker — tests, small models); kProfileOnly runs
    /// shape inference only (full-size models, high load). kFull
    /// additionally lowers profiles.
    ExecMode execMode = ExecMode::kProfileOnly;
    /// Couple service times to the shared-L3/DRAM contention model.
    bool modelContention = true;
    /// Intra-op width each worker passes to Executor::run. All
    /// workers share the one process-wide pool
    /// (common/thread_pool.h). 1 = serial kernels (default: inter-op
    /// worker parallelism already covers the socket); 0 = process
    /// default (RECSTACK_NUM_THREADS). Numerics are bit-identical at
    /// any width, so this only moves EngineResult::hostSeconds.
    int numThreads = 1;
    /// Shard / cache / tier knobs of the shared store (real-numerics
    /// modes only).
    StoreConfig storeConfig;
    /// Turn span tracing on for the duration of this run (restoring
    /// the previous setting afterwards), so the run can be exported
    /// as a Chrome trace without touching RECSTACK_TRACE_RUNTIME.
    /// See docs/observability.md; the buffer is bounded, so long runs
    /// keep the oldest spans and count the rest in dropped().
    bool captureTrace = false;
    /// Accelerator lanes in routing priority: a batch defers to the
    /// first lane whose threshold it meets. Empty (default): every
    /// batch is serviced on the CPU workers.
    std::vector<LaneConfig> lanes;
    /// Placement surcharge (docs/fleet.md): extra virtual seconds per
    /// sample added to every CPU-serviced batch's service time,
    /// pricing embedding rows this node must fetch from a peer
    /// because its placement holds only part of each table
    /// (row-range-partitioned fleets). Not inflated by the socket
    /// contention factor — remote fetches cross the network, not the
    /// shared L3/DRAM. 0.0 (default) = every row is local.
    double remoteSecondsPerSample = 0.0;
};

/** One accelerator lane's view of a run. */
struct LaneResult {
    /// The lane's own serving view: samples/batches it served, its
    /// mean accumulated batch, device utilization, and the latency
    /// tail of lane-served samples.
    ServingStats stats;
    /// Dynamic batches the CPU workers handed over to the lane.
    uint64_t deferredTickets = 0;
    /// The per-model threshold the run routed with
    /// (QueryScheduler::kNoGpuThreshold / kNoPimThreshold when none
    /// was set).
    int64_t threshold = 0;
};

/** Result of one node run. */
struct EngineResult {
    /// Stats over every served sample. With lanes, utilization /
    /// offeredLoad count each lane as one more server.
    ServingStats aggregate;
    std::vector<ServingStats> perWorker;
    /// Mean / max service-time inflation applied across batches
    /// (1.0 = no contention observed).
    double meanSlowdown = 1.0;
    double maxSlowdown = 1.0;
    /// Real host seconds spent inside Executor::run across workers
    /// (wall-clock measurement, not part of the virtual-time stats).
    /// 0.0 when execMode is kProfileOnly (no kernels run there; see
    /// graph/executor.h hostSeconds semantics).
    double hostSeconds = 0.0;
    uint64_t batchesExecuted = 0;
    /// Mean real host seconds per executed batch (hostSeconds /
    /// batchesExecuted); comparing runs at different numThreads gives
    /// the measured per-batch intra-op speedup.
    double hostSecondsPerBatch = 0.0;
    /// Resolved intra-op width the workers used.
    int intraOpThreads = 1;
    /// Embedding-table bytes of one dense copy of the served model.
    uint64_t tableBytesOneCopy = 0;
    /// Table bytes resident across the node at the end of the run:
    /// one backing copy + hot-row caches; 0 in kProfileOnly.
    uint64_t residentTableBytes = 0;
    /// What per-worker dense copies would have kept resident
    /// (workers x one copy) — the baseline the shared store saves
    /// against. 0 in kProfileOnly.
    uint64_t perWorkerTableBytes = 0;
    /// Shard-aggregated store counters for this run (hit/miss/tier
    /// traffic and modeled fetch seconds); empty in kProfileOnly.
    /// Like hostSeconds, these are host-side measurement, not
    /// virtual-time state: hit/miss splits depend on the order in
    /// which concurrent workers touch the shared caches.
    StoreStats storeStats;
    /// One entry per configured lane, in EngineConfig::lanes order.
    std::vector<LaneResult> lanes;
};

/** One inference machine: workers + batch queue + accelerator lanes. */
class ServingNode
{
  public:
    /**
     * @param scheduler    latency oracle over the characterization
     *                     grid (not owned; must outlive the node)
     * @param model        served model
     * @param platform_idx platform in the scheduler's sweep
     */
    ServingNode(QueryScheduler* scheduler, ModelId model,
                size_t platform_idx);

    /** Serve a self-generated Poisson stream. */
    EngineResult run(const EngineConfig& config);

    /**
     * Serve an explicit arrival trace instead of a generated stream:
     * the timestamps (ascending, in [0, config.simSeconds)) are the
     * sub-stream a fleet router assigned to this node. Everything
     * else — admission, contention, execution, stats — is identical
     * to run(); a trace equal to the Poisson stream the config would
     * generate reproduces run()'s results exactly.
     */
    EngineResult runTrace(const EngineConfig& config,
                          std::vector<double> arrivals);

    /**
     * The node's compiled net (compile-once: shared by all workers of
     * all run() calls; workers only differ in their private
     * Workspace + Arena). Null until the first run.
     */
    std::shared_ptr<const CompiledNet> compiled() const;

    ModelId model() const { return model_; }
    size_t platformIdx() const { return platformIdx_; }
    QueryScheduler* scheduler() const { return scheduler_; }

  private:
    EngineResult runImpl(const EngineConfig& config,
                         std::vector<double>* trace);

    QueryScheduler* scheduler_;
    ModelId model_;
    size_t platformIdx_;

    /// One compilation per node, reused across run() configs; the
    /// per-batch memory plans inside it are shared by every worker.
    mutable std::mutex compileMu_;
    std::shared_ptr<CompiledNet> compiled_;
};

}  // namespace recstack

#endif  // RECSTACK_SERVE_SERVING_NODE_H_
