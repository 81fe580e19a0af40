/**
 * @file
 * Tests of the multi-worker serving node: determinism under real
 * thread interleaving, contention coupling, accelerator lanes, and
 * batch-queue semantics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "serve/batch_queue.h"
#include "serve/serving_node.h"

namespace recstack {
namespace {

class ServingEngineTest : public ::testing::Test
{
  protected:
    ServingEngineTest()
        : sweep_(allPlatforms(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    EngineResult run(ModelId model, size_t platform, int workers,
                     double qps, int64_t max_batch = 256,
                     double window = 1e-3, uint64_t seed = 42,
                     ExecMode mode = ExecMode::kProfileOnly)
    {
        ServingNode engine(&sched_, model, platform);
        EngineConfig cfg;
        cfg.numWorkers = workers;
        cfg.arrivalQps = qps;
        cfg.maxBatch = max_batch;
        cfg.maxWaitSeconds = window;
        cfg.simSeconds = 0.25;
        cfg.seed = seed;
        cfg.execMode = mode;
        return engine.run(cfg);
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(ServingEngineTest, DeterministicAcrossThreadInterleavings)
{
    // Virtual-time ordering makes every stat (host wall time aside) a
    // pure function of the config, no matter how the OS schedules the
    // four worker threads.
    const EngineResult a = run(ModelId::kRM1, 0, 4, 20000);
    const EngineResult b = run(ModelId::kRM1, 0, 4, 20000);
    EXPECT_EQ(a.aggregate.samplesArrived, b.aggregate.samplesArrived);
    EXPECT_EQ(a.aggregate.samplesServed, b.aggregate.samplesServed);
    EXPECT_EQ(a.aggregate.batchesServed, b.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(a.aggregate.meanLatency, b.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(a.aggregate.p99Latency, b.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(a.meanSlowdown, b.meanSlowdown);
    ASSERT_EQ(a.perWorker.size(), b.perWorker.size());
    for (size_t w = 0; w < a.perWorker.size(); ++w) {
        EXPECT_EQ(a.perWorker[w].samplesServed,
                  b.perWorker[w].samplesServed);
        EXPECT_DOUBLE_EQ(a.perWorker[w].p99Latency,
                         b.perWorker[w].p99Latency);
    }
}

TEST_F(ServingEngineTest, PerWorkerStatsSumToAggregate)
{
    const EngineResult r = run(ModelId::kNCF, 0, 3, 10000);
    uint64_t served = 0;
    uint64_t batches = 0;
    for (const ServingStats& w : r.perWorker) {
        served += w.samplesServed;
        batches += w.batchesServed;
    }
    EXPECT_EQ(served, r.aggregate.samplesServed);
    EXPECT_EQ(batches, r.aggregate.batchesServed);
    // The engine drains the whole stream: nothing arrives unserved.
    EXPECT_EQ(r.aggregate.samplesServed, r.aggregate.samplesArrived);
    EXPECT_EQ(r.aggregate.droppedSamples, 0u);
    EXPECT_EQ(r.batchesExecuted, r.aggregate.batchesServed);
}

TEST_F(ServingEngineTest, MoreWorkersRaiseSaturatedThroughput)
{
    // Offer well beyond one worker's capacity; extra workers must
    // lift aggregate throughput even with contention inflation.
    const double cap1 =
        256.0 / sched_.latency(ModelId::kRM1, 0, 256);
    const double qps = 3.0 * cap1;
    const EngineResult w1 = run(ModelId::kRM1, 0, 1, qps);
    const EngineResult w2 = run(ModelId::kRM1, 0, 2, qps);
    const EngineResult w4 = run(ModelId::kRM1, 0, 4, qps);
    EXPECT_GT(w2.aggregate.throughputQps,
              w1.aggregate.throughputQps * 1.2);
    EXPECT_GE(w4.aggregate.throughputQps,
              w2.aggregate.throughputQps);
    // And the backlog clears sooner: tails shrink with capacity.
    EXPECT_LT(w4.aggregate.p99Latency, w1.aggregate.p99Latency);
}

TEST_F(ServingEngineTest, ContentionInflatesServiceWithOccupancy)
{
    const double cap1 =
        256.0 / sched_.latency(ModelId::kRM2, 0, 256);
    const EngineResult solo = run(ModelId::kRM2, 0, 1, 2.0 * cap1);
    const EngineResult packed = run(ModelId::kRM2, 0, 8, 8.0 * cap1);
    EXPECT_DOUBLE_EQ(solo.meanSlowdown, 1.0);
    EXPECT_GE(packed.meanSlowdown, 1.0);
    EXPECT_GT(packed.maxSlowdown, 1.0);
    // Contention never prices below the co-location model's floor.
    EXPECT_LE(packed.maxSlowdown, 64.0);
}

TEST_F(ServingEngineTest, ContentionCanBeDisabled)
{
    ServingNode engine(&sched_, ModelId::kRM2, 0);
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 50000;
    cfg.simSeconds = 0.1;
    cfg.modelContention = false;
    const EngineResult r = engine.run(cfg);
    EXPECT_DOUBLE_EQ(r.meanSlowdown, 1.0);
    EXPECT_DOUBLE_EQ(r.maxSlowdown, 1.0);
}

TEST_F(ServingEngineTest, RealNumericsModeExecutesTheNet)
{
    const EngineResult r =
        run(ModelId::kNCF, 0, 2, 2000, 64, 1e-3, 42,
            ExecMode::kNumericOnly);
    EXPECT_GT(r.batchesExecuted, 0u);
    EXPECT_GT(r.hostSeconds, 0.0);  // real kernels ran on the workers
    EXPECT_GT(r.aggregate.meanLatency, 0.0);
}

TEST_F(ServingEngineTest, GpuPlatformHasNoSocketContention)
{
    // Platform 3 is the T4: co-located workers model independent
    // devices, so no shared-socket inflation applies.
    const EngineResult r = run(ModelId::kWnD, 3, 4, 50000);
    EXPECT_DOUBLE_EQ(r.meanSlowdown, 1.0);
    EXPECT_GT(r.aggregate.samplesServed, 0u);
}

TEST_F(ServingEngineTest, CompilesTheModelOnceAcrossWorkersAndRuns)
{
    // All workers execute through one shared CompiledNet; a second
    // run() must reuse it rather than recompile. Counted via the
    // global compile counter (delta, not absolute: the fixture's
    // characterizer compiles profile nets of its own) and by pointer
    // identity of the engine's compiled net.
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 64;
    cfg.simSeconds = 0.1;
    cfg.execMode = ExecMode::kNumericOnly;

    // Warm the characterizer's lazy per-model compilations so the
    // counter delta below isolates the engine's own compile.
    ServingNode warmup(&sched_, ModelId::kNCF, 0);
    warmup.run(cfg);

    ServingNode engine(&sched_, ModelId::kNCF, 0);
    EXPECT_EQ(engine.compiled(), nullptr);
    const uint64_t before = CompiledNet::compileCount();
    engine.run(cfg);
    const std::shared_ptr<const CompiledNet> first = engine.compiled();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(CompiledNet::compileCount(), before + 1)
        << "4 workers must share one compilation";

    engine.run(cfg);
    EXPECT_EQ(engine.compiled(), first);
    EXPECT_EQ(CompiledNet::compileCount(), before + 1)
        << "second run must reuse the compiled net";
}

TEST_F(ServingEngineTest, SharedStoreKeepsTableMemoryOffWorkerCount)
{
    // Regression for per-worker weight materialization: N numeric
    // workers used to initParams() N private table copies. With the
    // shared store the resident table footprint must be one backing
    // copy plus the (configurable) hot-row caches — O(1 copy + cache),
    // not O(workers).
    ServingNode engine(&sched_, ModelId::kRM2, 0);
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 64;
    cfg.simSeconds = 0.1;
    cfg.execMode = ExecMode::kNumericOnly;
    cfg.storeConfig.numShards = 2;
    cfg.storeConfig.cacheBytesPerShard = 0;  // isolate the copy count
    const EngineResult r = engine.run(cfg);

    EXPECT_GT(r.tableBytesOneCopy, 0u);
    EXPECT_EQ(r.perWorkerTableBytes, 4 * r.tableBytesOneCopy);
    EXPECT_EQ(r.residentTableBytes, r.tableBytesOneCopy);
    // The acceptance bound: sharing saves >= (workers-1)/workers of
    // the per-worker baseline.
    const double saved =
        static_cast<double>(r.perWorkerTableBytes -
                            r.residentTableBytes) /
        static_cast<double>(r.perWorkerTableBytes);
    EXPECT_GE(saved, 3.0 / 4.0);
    // The workers really read through the store.
    EXPECT_GT(r.storeStats.total.lookups, 0u);

    // With caches enabled the footprint grows by at most the cache
    // capacity, still independent of the worker count.
    EngineConfig cached = cfg;
    cached.storeConfig.cacheBytesPerShard = 4u << 10;
    ServingNode cached_engine(&sched_, ModelId::kRM2, 0);
    const EngineResult rc = cached_engine.run(cached);
    EXPECT_LE(rc.residentTableBytes,
              rc.tableBytesOneCopy +
                  2ull * cached.storeConfig.cacheBytesPerShard);
    EXPECT_GT(rc.storeStats.total.hits, 0u);
}

TEST_F(ServingEngineTest, StoreServedNumericsKeepVirtualTimeStats)
{
    // The store is a memory-layout change only: a real-numerics run
    // served from the shared store has the same virtual-time serving
    // statistics as a shape-only run of the same stream.
    EngineConfig cfg;
    cfg.numWorkers = 3;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 64;
    cfg.simSeconds = 0.1;
    cfg.execMode = ExecMode::kNumericOnly;

    ServingNode store_engine(&sched_, ModelId::kNCF, 0);
    const EngineResult with_store = store_engine.run(cfg);

    cfg.execMode = ExecMode::kProfileOnly;
    ServingNode profile_engine(&sched_, ModelId::kNCF, 0);
    const EngineResult profile = profile_engine.run(cfg);

    EXPECT_GT(with_store.storeStats.total.lookups, 0u);
    EXPECT_EQ(profile.residentTableBytes, 0u);
    EXPECT_EQ(profile.storeStats.total.lookups, 0u);
    EXPECT_EQ(with_store.aggregate.samplesServed,
              profile.aggregate.samplesServed);
    EXPECT_EQ(with_store.aggregate.batchesServed,
              profile.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(with_store.aggregate.meanLatency,
                     profile.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(with_store.aggregate.p99Latency,
                     profile.aggregate.p99Latency);
}

TEST_F(ServingEngineTest, RejectsBadConfig)
{
    ServingNode engine(&sched_, ModelId::kNCF, 0);
    EngineConfig bad;
    bad.numWorkers = 0;
    EXPECT_DEATH(engine.run(bad), "at least one worker");
    EngineConfig bad_qps;
    bad_qps.arrivalQps = 0.0;
    EXPECT_DEATH(engine.run(bad_qps), "arrival rate");
    EXPECT_DEATH(ServingNode(nullptr, ModelId::kNCF, 0),
                 "needs a scheduler");
    EXPECT_DEATH(ServingNode(&sched_, ModelId::kNCF, 99),
                 "platform index");
}

TEST_F(ServingEngineTest, HeterogeneousNoThresholdMatchesLegacyStats)
{
    // With the lane enabled but no threshold set (kNoGpuThreshold =
    // route nothing), every batch still lands on the CPU workers and
    // the serving stats must match the legacy path exactly. Only the
    // capacity-normalized fields (utilization / offeredLoad) may
    // differ: the heterogeneous aggregate divides by numWorkers + 1
    // servers by contract.
    const EngineResult off = run(ModelId::kRM1, 0, 2, 8000);
    ServingNode engine(&sched_, ModelId::kRM1, 0);
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.arrivalQps = 8000;
    cfg.simSeconds = 0.25;
    cfg.lanes = {LaneConfig{}};
    const EngineResult on = engine.run(cfg);

    ASSERT_EQ(on.lanes.size(), 1u);
    EXPECT_TRUE(off.lanes.empty());
    const LaneResult& gpu = on.lanes[0];
    EXPECT_EQ(gpu.threshold, QueryScheduler::kNoGpuThreshold);
    EXPECT_EQ(gpu.deferredTickets, 0u);
    EXPECT_EQ(gpu.stats.samplesServed, 0u);
    EXPECT_EQ(gpu.stats.batchesServed, 0u);
    EXPECT_EQ(off.aggregate.samplesArrived, on.aggregate.samplesArrived);
    EXPECT_EQ(off.aggregate.samplesServed, on.aggregate.samplesServed);
    EXPECT_EQ(off.aggregate.batchesServed, on.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(off.aggregate.meanLatency,
                     on.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(off.aggregate.p99Latency, on.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(off.aggregate.throughputQps,
                     on.aggregate.throughputQps);
    EXPECT_DOUBLE_EQ(off.meanSlowdown, on.meanSlowdown);
}

TEST_F(ServingEngineTest, HeterogeneousRoutesLargeBatchesToLane)
{
    sched_.setGpuThreshold(ModelId::kRM1, 32);
    ServingNode engine(&sched_, ModelId::kRM1, 0);
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.arrivalQps = 40000;  // ~40 samples per 1 ms window
    cfg.simSeconds = 0.25;
    cfg.lanes = {LaneConfig{}};
    const EngineResult r = engine.run(cfg);

    ASSERT_EQ(r.lanes.size(), 1u);
    const LaneResult& gpu = r.lanes[0];
    EXPECT_EQ(gpu.threshold, 32);
    EXPECT_GT(gpu.deferredTickets, 0u);
    EXPECT_GT(gpu.stats.samplesServed, 0u);
    EXPECT_GT(gpu.stats.batchesServed, 0u);
    EXPECT_GT(gpu.stats.p99Latency, 0.0);
    EXPECT_GT(gpu.stats.utilization, 0.0);

    // Conservation across the split: every arrived sample was served
    // exactly once, by a CPU worker or by the lane.
    uint64_t cpu_served = 0;
    uint64_t cpu_batches = 0;
    for (const ServingStats& w : r.perWorker) {
        cpu_served += w.samplesServed;
        cpu_batches += w.batchesServed;
    }
    EXPECT_EQ(cpu_served + gpu.stats.samplesServed,
              r.aggregate.samplesServed);
    EXPECT_EQ(r.aggregate.samplesServed, r.aggregate.samplesArrived);
    EXPECT_EQ(cpu_batches + gpu.stats.batchesServed,
              r.aggregate.batchesServed);
    // Deferred batches were not executed on the host.
    EXPECT_EQ(r.batchesExecuted, cpu_batches);
}

TEST_F(ServingEngineTest, HeterogeneousDeterministicAcrossRuns)
{
    sched_.setGpuThreshold(ModelId::kRM1, 16);
    ServingNode engine(&sched_, ModelId::kRM1, 0);
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 30000;
    cfg.simSeconds = 0.25;
    cfg.lanes = {LaneConfig{}};
    const EngineResult a = engine.run(cfg);
    const EngineResult b = engine.run(cfg);

    EXPECT_EQ(a.aggregate.samplesServed, b.aggregate.samplesServed);
    EXPECT_EQ(a.aggregate.batchesServed, b.aggregate.batchesServed);
    const LaneResult& ga = a.lanes.at(0);
    const LaneResult& gb = b.lanes.at(0);
    EXPECT_EQ(ga.deferredTickets, gb.deferredTickets);
    EXPECT_EQ(ga.stats.samplesServed, gb.stats.samplesServed);
    EXPECT_EQ(ga.stats.batchesServed, gb.stats.batchesServed);
    EXPECT_DOUBLE_EQ(ga.stats.p99Latency, gb.stats.p99Latency);
    EXPECT_DOUBLE_EQ(a.aggregate.meanLatency, b.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(a.aggregate.p99Latency, b.aggregate.p99Latency);
}

TEST_F(ServingEngineTest, HeterogeneousRejectsCpuLanePlatform)
{
    ServingNode engine(&sched_, ModelId::kNCF, 0);
    EngineConfig bad;
    bad.lanes = {LaneConfig{0, {}}};  // Bdw is a CPU
    EXPECT_DEATH(engine.run(bad), "GPU platform");
}

TEST(BatchQueueTest, OccupancyTieCountsCompletingWorkerIdle)
{
    // Regression pinning the tie convention (batcher.h): service
    // occupies the half-open interval [launch, completion), so a peer
    // whose completion lands *exactly* on this launch instant is idle
    // — it must not inflate the contention occupancy. Driven through
    // the pure helper because Poisson arrival times never produce an
    // exact FP tie via acquire().
    const std::vector<double> ready = {0.5, 0.25};
    const std::vector<bool> active = {true, true};
    // Worker 1 launches exactly when worker 0 completes: idle peer.
    EXPECT_EQ(Batcher::busyAtLaunch(ready, active, 1, 0.5), 1);
    // One representable instant earlier the peer is still in service.
    EXPECT_EQ(Batcher::busyAtLaunch(ready, active, 1,
                                       std::nextafter(0.5, 0.0)),
              2);
    // Strictly later: idle too.
    EXPECT_EQ(Batcher::busyAtLaunch(ready, active, 1, 0.75), 1);
    // Retired peers never count, and the caller always counts once.
    const std::vector<bool> one_left = {false, true};
    EXPECT_EQ(Batcher::busyAtLaunch(ready, one_left, 1, 0.1), 1);
}

TEST(BatchQueueTest, AdmissionRespectsBatchCapAndWindow)
{
    BatchQueue::Config cfg;
    cfg.arrivalQps = 10000.0;
    cfg.maxBatch = 32;
    cfg.maxWaitSeconds = 2e-3;
    cfg.horizonSeconds = 0.2;
    cfg.numWorkers = 1;
    BatchQueue queue(cfg);

    const auto service = [](const BatchTicket&, int) { return 1e-4; };
    BatchTicket ticket;
    double completion = 0.0;
    int busy = 0;
    uint64_t served = 0;
    double prev_launch = -1.0;
    uint64_t prev_seq = 0;
    bool first = true;
    while (queue.acquire(0, service, &ticket, &completion, &busy)) {
        EXPECT_LE(ticket.size(), cfg.maxBatch);
        EXPECT_GE(ticket.size(), 1);
        EXPECT_EQ(busy, 1);
        EXPECT_GT(completion, ticket.launchTime);
        // Launches move forward in time and sequence.
        EXPECT_GE(ticket.launchTime, prev_launch);
        if (!first) {
            EXPECT_EQ(ticket.seq, prev_seq + 1);
        }
        for (double arrival : ticket.arrivals) {
            EXPECT_LE(arrival, ticket.launchTime);
            // No sample waits past the batching window before its
            // batch launches, except when the server was backlogged —
            // at this service rate the backlog stays bounded, so
            // allow one service time of slack.
            EXPECT_LE(ticket.launchTime - arrival,
                      cfg.maxWaitSeconds + 64 * 1e-4);
        }
        prev_launch = ticket.launchTime;
        prev_seq = ticket.seq;
        first = false;
        served += static_cast<uint64_t>(ticket.size());
    }
    EXPECT_EQ(served, queue.samplesArrived());
    EXPECT_GT(served, 0u);
}

TEST(BatchQueueTest, DrainsEveryAdmittedSample)
{
    BatchQueue::Config cfg;
    cfg.arrivalQps = 500.0;
    cfg.maxBatch = 16;
    cfg.maxWaitSeconds = 5e-3;
    cfg.horizonSeconds = 0.1;
    cfg.numWorkers = 2;
    BatchQueue queue(cfg);

    // Single-threaded two-worker drain. acquire() blocks until it is
    // the calling worker's virtual turn, so a lone thread must follow
    // the same earliest-ready order the queue enforces.
    const auto service = [](const BatchTicket& t, int) {
        return 1e-3 * static_cast<double>(t.size());
    };
    std::multiset<double> arrivals_seen;
    BatchTicket ticket;
    double completion = 0.0;
    int busy = 0;
    bool active[2] = {true, true};
    double ready[2] = {0.0, 0.0};
    while (active[0] || active[1]) {
        int w = -1;  // active worker with the earliest virtual free time
        for (int v = 0; v < 2; ++v) {
            if (active[v] && (w < 0 || ready[v] < ready[w])) {
                w = v;
            }
        }
        active[w] =
            queue.acquire(w, service, &ticket, &completion, &busy);
        if (active[w]) {
            ready[w] = completion;
            EXPECT_GE(busy, 1);
            EXPECT_LE(busy, 2);
            for (double a : ticket.arrivals) {
                arrivals_seen.insert(a);
            }
        }
    }
    EXPECT_EQ(arrivals_seen.size(), queue.samplesArrived());
}

TEST_F(ServingEngineTest, RunTraceReproducesRunFromTheSameClock)
{
    // A trace drawn from the same seeded Poisson clock the engine
    // would use internally must reproduce run() bit for bit — the
    // contract the fleet simulator's per-node replay rests on.
    EngineConfig cfg;
    cfg.numWorkers = 3;
    cfg.arrivalQps = 9000.0;
    cfg.maxBatch = 64;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.25;
    cfg.seed = 17;

    ServingNode node(&sched_, ModelId::kRM1, 0);
    const EngineResult generated = node.run(cfg);

    std::vector<double> trace;
    PoissonProcess clock(cfg.arrivalQps, cfg.seed);
    for (double t = clock.next(); t < cfg.simSeconds;
         t = clock.next()) {
        trace.push_back(t);
    }
    ASSERT_EQ(trace.size(), generated.aggregate.samplesArrived);

    ServingNode replay(&sched_, ModelId::kRM1, 0);
    const EngineResult replayed = replay.runTrace(cfg, trace);

    EXPECT_EQ(replayed.aggregate.samplesArrived,
              generated.aggregate.samplesArrived);
    EXPECT_EQ(replayed.aggregate.samplesServed,
              generated.aggregate.samplesServed);
    EXPECT_EQ(replayed.aggregate.batchesServed,
              generated.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(replayed.aggregate.meanLatency,
                     generated.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(replayed.aggregate.p50Latency,
                     generated.aggregate.p50Latency);
    EXPECT_DOUBLE_EQ(replayed.aggregate.p99Latency,
                     generated.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(replayed.aggregate.utilization,
                     generated.aggregate.utilization);
    EXPECT_DOUBLE_EQ(replayed.aggregate.meanBatch,
                     generated.aggregate.meanBatch);
}

TEST_F(ServingEngineTest, RemoteSurchargeStretchesServiceDeterministically)
{
    // The placement surcharge prices remote embedding fetches into
    // each batch's virtual service time: zero surcharge is the legacy
    // engine bit for bit, a positive surcharge can only slow serving.
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.arrivalQps = 6000.0;
    cfg.maxBatch = 128;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.25;
    cfg.seed = 5;

    ServingNode legacy(&sched_, ModelId::kRM1, 0);
    const EngineResult baseline = legacy.run(cfg);

    cfg.remoteSecondsPerSample = 0.0;
    ServingNode zero(&sched_, ModelId::kRM1, 0);
    const EngineResult same = zero.run(cfg);
    EXPECT_DOUBLE_EQ(same.aggregate.meanLatency,
                     baseline.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(same.aggregate.p99Latency, baseline.aggregate.p99Latency);

    cfg.remoteSecondsPerSample = 5e-6;
    ServingNode taxed(&sched_, ModelId::kRM1, 0);
    const EngineResult slower = taxed.run(cfg);
    EXPECT_EQ(slower.aggregate.samplesArrived,
              baseline.aggregate.samplesArrived);
    EXPECT_GT(slower.aggregate.meanLatency, baseline.aggregate.meanLatency);
    EXPECT_GE(slower.aggregate.utilization, baseline.aggregate.utilization);
}

}  // namespace
}  // namespace recstack
