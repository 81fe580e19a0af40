#include "serve/serving_node.h"

#include <algorithm>
#include <thread>

#include "common/thread_pool.h"
#include "models/store_binding.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/batch_queue.h"
#include "serve/contention.h"

namespace recstack {
namespace {

/// Per-query end-to-end latency in seconds: [0, 1) over 1000 buckets
/// gives 1 ms resolution, so histogram percentiles agree with the
/// exact percentileOfSorted path within 1 ms for sub-second tails
/// (cross-checked in tests/test_obs.cc).
obs::LatencyHistogram&
queryLatencyHistogram()
{
    static obs::LatencyHistogram& h =
        obs::MetricsRegistry::global().histogram(
            "serve.query_latency_seconds", 0.0, 1.0, 1000);
    return h;
}

obs::Counter&
queriesCounter()
{
    static obs::Counter& c =
        obs::MetricsRegistry::global().counter("serve.queries");
    return c;
}

/// Flip tracing on for one engine run, restoring the previous state
/// (env-driven or API-driven) on scope exit.
struct TraceCaptureScope {
    explicit TraceCaptureScope(bool capture)
        : restore_(obs::traceEnabled())
    {
        if (capture) {
            obs::setTraceEnabled(true);
        }
    }
    ~TraceCaptureScope() { obs::setTraceEnabled(restore_); }
    const bool restore_;
};

/** Stats a worker accumulates locally while it runs (no sharing). */
struct WorkerLocal {
    std::vector<double> latencies;
    double busySeconds = 0.0;
    double lastCompletion = 0.0;
    double hostSeconds = 0.0;
    double slowdownSum = 0.0;
    double slowdownMax = 1.0;
    uint64_t samplesServed = 0;
    /// Batches this worker serviced itself; slowdown factors are
    /// summed over exactly these (deferred hand-offs do not count).
    uint64_t batchesServed = 0;
    /// Batches handed over to each lane (EngineConfig::lanes order).
    std::vector<uint64_t> deferredTickets;
};

/** One accelerator lane of a run: its queue and routing terms. */
struct Lane {
    PlatformKind kind;
    /// What a deferred batch costs the worker: the hand-off staging.
    double handoffSeconds;
    std::unique_ptr<GpuLane> queue;
};

/** Whether @c batch routes to a lane on a @c kind platform. */
bool
routesTo(const QueryScheduler& sched, PlatformKind kind, ModelId model,
         int64_t batch)
{
    return kind == PlatformKind::kGpu ? sched.routesToGpu(model, batch)
                                      : sched.routesToPim(model, batch);
}

}  // namespace

ServingNode::ServingNode(QueryScheduler* scheduler, ModelId model,
                         size_t platform_idx)
    : scheduler_(scheduler), model_(model), platformIdx_(platform_idx)
{
    RECSTACK_CHECK(scheduler_ != nullptr, "node needs a scheduler");
    RECSTACK_CHECK(platform_idx < scheduler_->sweep()->platforms().size(),
                   "platform index out of range");
}

std::shared_ptr<const CompiledNet>
ServingNode::compiled() const
{
    std::lock_guard<std::mutex> lock(compileMu_);
    return compiled_;
}

EngineResult
ServingNode::run(const EngineConfig& config)
{
    return runImpl(config, nullptr);
}

EngineResult
ServingNode::runTrace(const EngineConfig& config,
                      std::vector<double> arrivals)
{
    return runImpl(config, &arrivals);
}

EngineResult
ServingNode::runImpl(const EngineConfig& config,
                     std::vector<double>* trace)
{
    RECSTACK_CHECK(config.numWorkers >= 1, "need at least one worker");
    RECSTACK_CHECK(config.arrivalQps > 0.0, "arrival rate must be > 0");
    RECSTACK_CHECK(config.maxBatch > 0, "batch cap must be > 0");
    RECSTACK_CHECK(config.simSeconds > 0.0, "duration must be > 0");
    RECSTACK_CHECK(config.numThreads >= 0,
                   "intra-op thread count must be >= 0");
    RECSTACK_CHECK(config.remoteSecondsPerSample >= 0.0,
                   "remote surcharge must be >= 0");

    TraceCaptureScope trace_scope(config.captureTrace);
    RECSTACK_SPAN("engine.run",
                  {{"workers", config.numWorkers},
                   {"max_batch", config.maxBatch}});

    SweepCache* sweep = scheduler_->sweep();

    // Warm every shared lazily-built structure before threads exist:
    // the built model, its compiled form, the characterization grid
    // the latency oracle interpolates over, and the co-location
    // reference point. After this, workers touch the sweep only under
    // the queue lock.
    const Model& model = sweep->characterizer().model(model_);
    {
        // Compile once per node: workers (and later run() calls)
        // share the schedule and its per-batch memory plans, and only
        // bring their own Workspace + Arena.
        std::lock_guard<std::mutex> lock(compileMu_);
        if (compiled_ == nullptr) {
            compiled_ = CompiledNet::compile(model.net);
        }
    }
    CompiledNet& compiled = *compiled_;
    const CpuBatchPrice price(scheduler_, model_, platformIdx_,
                              config.numWorkers, config.maxBatch,
                              config.modelContention,
                              config.remoteSecondsPerSample);

    // Accelerator lanes (docs/scheduling.md, docs/pim.md): build each
    // lane and prewarm its platform's grid before threads exist,
    // mirroring the CPU prewarm above. A lane prices batches through
    // QueryScheduler::latency, which dispatches on the platform kind,
    // so GPU and PIM lanes differ only in routing threshold and
    // hand-off cost. Lanes are only touched under the queue lock
    // (inside the ServiceFn) and after join (drain), so they are
    // single-threaded by construction.
    std::vector<Lane> lanes;
    for (const LaneConfig& lc : config.lanes) {
        RECSTACK_CHECK(lc.platformIdx < sweep->platforms().size(),
                       "lane platform index out of range");
        const Platform& p = sweep->platforms()[lc.platformIdx];
        RECSTACK_CHECK(p.kind != PlatformKind::kCpu,
                       "a lane needs a GPU platform or a kPim platform");
        for (int64_t b : scheduler_->batchGrid()) {
            scheduler_->latency(model_, lc.platformIdx, b);
        }
        // BatchQueue requires a strictly positive service time.
        const double dispatch = p.kind == PlatformKind::kGpu
                                    ? p.gpu.hostDispatchSec
                                    : p.pim.hostDispatchSec;
        lanes.push_back({p.kind, std::max(1e-9, dispatch),
                         std::make_unique<GpuLane>(scheduler_, model_,
                                                   lc.platformIdx,
                                                   lc.batching)});
    }

    // One parameter store for the whole node run: workers bind
    // against it instead of each materializing every table. Built
    // before the worker threads exist, like the compiled net.
    std::unique_ptr<StoreBackedModel> store_model;
    if (config.execMode != ExecMode::kProfileOnly) {
        store_model = std::make_unique<StoreBackedModel>(
            model, config.storeConfig);
    }

    BatchQueue::Config qcfg;
    qcfg.arrivalQps = config.arrivalQps;
    qcfg.maxBatch = config.maxBatch;
    qcfg.maxWaitSeconds = config.maxWaitSeconds;
    qcfg.horizonSeconds = config.simSeconds;
    qcfg.seed = config.seed;
    qcfg.numWorkers = config.numWorkers;
    if (trace != nullptr) {
        qcfg.useArrivalTrace = true;
        qcfg.arrivalTrace = std::move(*trace);
    }
    BatchQueue queue(std::move(qcfg));

    std::vector<WorkerLocal> locals(
        static_cast<size_t>(config.numWorkers));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(config.numWorkers));
    for (int wid = 0; wid < config.numWorkers; ++wid) {
        threads.emplace_back([&, wid] {
            WorkerLocal& local = locals[static_cast<size_t>(wid)];
            local.deferredTickets.assign(lanes.size(), 0);
            Workspace ws;
            Arena arena;
            BatchGenerator gen(
                model.workload,
                config.seed ^
                    (0x9e3779b97f4a7c15ull *
                     static_cast<uint64_t>(wid + 1)));
            if (store_model != nullptr) {
                store_model->bind(ws);
            } else {
                ws.setShapeOnly(true);
                model.declareParams(ws);
            }

            // Invoked under the queue lock (the memoized sweep is not
            // thread-safe); prices this batch's virtual service time.
            // Batches meeting a lane's threshold hand over to the
            // lane here — still under the lock, in the queue's strict
            // virtual-time launch order (GpuLane's determinism
            // contract) — and cost the worker only the dispatch.
            size_t deferred_to = lanes.size();  // == size: not deferred
            const BatchQueue::ServiceFn service =
                [&](const BatchTicket& ticket, int busy) {
                    for (deferred_to = 0; deferred_to < lanes.size();
                         ++deferred_to) {
                        Lane& lane = lanes[deferred_to];
                        if (routesTo(*scheduler_, lane.kind, model_,
                                     ticket.size())) {
                            lane.queue->submit(ticket, ticket.launchTime);
                            return lane.handoffSeconds;
                        }
                    }
                    const double factor = price.factor(busy);
                    local.slowdownSum += factor;
                    local.slowdownMax =
                        std::max(local.slowdownMax, factor);
                    return price.seconds(ticket.size(), factor);
                };

            BatchTicket ticket;
            double completion = 0.0;
            int busy = 0;
            obs::LatencyHistogram& lat_hist = queryLatencyHistogram();
            obs::Counter& queries = queriesCounter();
            while (queue.acquire(wid, service, &ticket, &completion,
                                 &busy)) {
                const int64_t batch = ticket.size();
                local.busySeconds += completion - ticket.launchTime;
                local.lastCompletion =
                    std::max(local.lastCompletion, completion);
                if (deferred_to < lanes.size()) {
                    // The samples belong to the lane now; the worker
                    // accounted only the hand-off and moves on.
                    ++local.deferredTickets[deferred_to];
                    continue;
                }
                // Real execution of the served net on this worker's
                // private workspace, outside the queue lock.
                RECSTACK_SPAN("engine.batch",
                              {{"worker", wid}, {"batch", batch}});
                if (config.execMode == ExecMode::kProfileOnly) {
                    gen.declare(ws, batch);
                } else {
                    gen.materialize(ws, batch);
                }
                ExecOptions exec_opts;
                exec_opts.mode = config.execMode;
                exec_opts.numThreads = config.numThreads;
                const NetExecResult exec = Executor::run(
                    compiled, ws, arena, batch, exec_opts);
                local.hostSeconds += exec.hostSeconds;

                local.samplesServed +=
                    static_cast<uint64_t>(batch);
                ++local.batchesServed;
                queries.add(static_cast<uint64_t>(batch));
                for (double arrival : ticket.arrivals) {
                    local.latencies.push_back(completion - arrival);
                    lat_hist.record(completion - arrival);
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    // Stream over: flush each lane and fold its served queries into
    // the same obs surface the workers feed (the hill-climbing tuner
    // reads the p99 of this histogram, so lane thresholds tune
    // against the same SLA as the CPU pool).
    double horizon = config.simSeconds;
    for (const WorkerLocal& local : locals) {
        horizon = std::max(horizon, local.lastCompletion);
    }
    for (Lane& lane : lanes) {
        lane.queue->drain();
        queriesCounter().add(lane.queue->samplesServed());
        for (double lat : lane.queue->latencies()) {
            queryLatencyHistogram().record(lat);
        }
        if (lane.kind == PlatformKind::kPim) {
            obs::MetricsRegistry::global()
                .counter("pim.lane_samples")
                .add(lane.queue->samplesServed());
        }
        horizon = std::max(horizon, lane.queue->lastCompletion());
    }

    EngineResult result;
    result.perWorker.resize(locals.size());
    std::vector<double> all_latencies;
    uint64_t total_samples = 0;
    uint64_t total_batches = 0;
    double total_busy = 0.0;
    double slow_sum = 0.0;
    // One server's view (a worker or a lane), pooled into the aggregate
    // in worker-then-lane order.
    const auto fold = [&](uint64_t samples, uint64_t batches,
                          double busy, std::vector<double> latencies,
                          ServingStats* stats) {
        stats->samplesArrived = samples;
        fillLoadStats(samples, batches, busy, 1.0, horizon,
                      config.simSeconds, stats);
        all_latencies.insert(all_latencies.end(), latencies.begin(),
                             latencies.end());
        fillLatencyStats(latencies, stats);
        total_samples += samples;
        total_batches += batches;
        total_busy += busy;
    };
    for (size_t w = 0; w < locals.size(); ++w) {
        WorkerLocal& local = locals[w];
        fold(local.samplesServed, local.batchesServed, local.busySeconds,
             std::move(local.latencies), &result.perWorker[w]);
        result.hostSeconds += local.hostSeconds;
        result.batchesExecuted += local.batchesServed;
        slow_sum += local.slowdownSum;
        result.maxSlowdown =
            std::max(result.maxSlowdown, local.slowdownMax);
    }
    for (size_t i = 0; i < lanes.size(); ++i) {
        const Lane& lane = lanes[i];
        LaneResult lr;
        lr.threshold = lane.kind == PlatformKind::kGpu
                           ? scheduler_->gpuThreshold(model_)
                           : scheduler_->pimThreshold(model_);
        for (const WorkerLocal& local : locals) {
            lr.deferredTickets += local.deferredTickets[i];
        }
        fold(lane.queue->samplesServed(), lane.queue->batchesServed(),
             lane.queue->busySeconds(), lane.queue->latencies(),
             &lr.stats);
        result.lanes.push_back(lr);
    }

    // Each lane counts as one more server.
    result.aggregate.samplesArrived = queue.samplesArrived();
    fillLoadStats(total_samples, total_batches, total_busy,
                  static_cast<double>(config.numWorkers) +
                      static_cast<double>(lanes.size()),
                  horizon, config.simSeconds, &result.aggregate);
    fillLatencyStats(all_latencies, &result.aggregate);

    result.intraOpThreads =
        config.numThreads > 0 ? config.numThreads : intraOpThreads();
    // Table-memory accounting: the shared store keeps one backing
    // copy plus the hot-row caches resident, against the workers x
    // one copy that private dense tables would hold.
    result.tableBytesOneCopy = modelEmbeddingBytes(model);
    if (store_model != nullptr) {
        result.perWorkerTableBytes =
            result.tableBytesOneCopy *
            static_cast<uint64_t>(config.numWorkers);
        result.residentTableBytes = store_model->residentBytes();
        result.storeStats = store_model->store().stats();
        exportStoreStats(result.storeStats);
    }
    if (result.batchesExecuted > 0) {
        result.hostSecondsPerBatch =
            result.hostSeconds /
            static_cast<double>(result.batchesExecuted);
    }
    // Slowdown factors were summed over CPU-serviced batches only
    // (deferred hand-offs and the lanes see no socket contention), so
    // average over exactly those.
    if (result.batchesExecuted > 0) {
        result.meanSlowdown =
            slow_sum / static_cast<double>(result.batchesExecuted);
    }
    return result;
}

}  // namespace recstack
