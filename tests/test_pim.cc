/**
 * @file
 * Tests of the analytical PIM platform (src/pim/): the row-partition
 * shard map, the zero-byte/transfer cost invariants, rank/tasklet
 * monotonicity up to the transfer bound, the env-knob config surface,
 * the scheduler's PIM threshold, and the serving engine's PIM lane —
 * including the regression that a disabled lane leaves the engine
 * bit-identical to the pre-PIM behaviour.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "core/characterizer.h"
#include "pim/pim_model.h"
#include "sched/query_scheduler.h"
#include "serve/serving_node.h"
#include "store/embedding_store.h"

namespace recstack {
namespace {

/** A synthetic SLS profile with the three stream flows the model
 *  maps: sequential index upload, random table gather, pooled-output
 *  download. */
KernelProfile
slsProfile(uint64_t lookups = 4096, uint64_t rowBytes = 256,
           int64_t rows = 100000, uint64_t outBytes = 64 * 256)
{
    KernelProfile kp;
    kp.opType = "SparseLengthsSum";
    kp.opName = "sls_test";
    MemStream idx;
    idx.region = "idx";
    idx.pattern = AccessPattern::kSequential;
    idx.accesses = lookups;
    idx.chunkBytes = 8;
    idx.footprintBytes = lookups * 8;
    kp.streams.push_back(idx);
    MemStream table;
    table.region = "emb:test";
    table.pattern = AccessPattern::kRandom;
    table.accesses = lookups;
    table.chunkBytes = rowBytes;
    table.footprintBytes = static_cast<uint64_t>(rows) * rowBytes;
    kp.streams.push_back(table);
    MemStream out;
    out.region = "out";
    out.pattern = AccessPattern::kSequential;
    out.accesses = outBytes / 64;
    out.chunkBytes = 64;
    out.footprintBytes = outBytes;
    out.isWrite = true;
    kp.streams.push_back(out);
    return kp;
}

TEST(PimPartition, CoversAllRowsExactlyOnce)
{
    for (int table : {0, 1, 3, 7}) {
        for (int64_t rows : {int64_t{1}, int64_t{7}, int64_t{8},
                             int64_t{1000}, int64_t{1000001}}) {
            for (int ranks : {1, 2, 8, 13}) {
                const PimPartition p =
                    pimPartitionRows(table, rows, ranks);
                ASSERT_EQ(p.rowsPerRank.size(),
                          static_cast<size_t>(ranks));
                // Every row lands on exactly one rank: the counts sum
                // to the row count.
                EXPECT_EQ(std::accumulate(p.rowsPerRank.begin(),
                                          p.rowsPerRank.end(),
                                          int64_t{0}),
                          rows)
                    << "table=" << table << " rows=" << rows
                    << " ranks=" << ranks;
                EXPECT_GE(p.imbalance(), 1.0);
            }
        }
    }
}

TEST(PimPartition, MatchesStoreShardMapBruteForce)
{
    // The closed form must agree with counting the store's shard map
    // row by row — same map, same co-stored-table decorrelation.
    for (int table : {0, 2, 5}) {
        const int64_t rows = 997;  // prime: exercises the remainder
        const int ranks = 8;
        std::vector<int64_t> brute(ranks, 0);
        for (int64_t r = 0; r < rows; ++r) {
            ++brute[EmbeddingStore::rowShard(table, r, ranks)];
        }
        const PimPartition p = pimPartitionRows(table, rows, ranks);
        for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(p.rowsPerRank[static_cast<size_t>(r)], brute[r])
                << "table=" << table << " rank=" << r;
        }
    }
}

TEST(PimPartition, DegenerateInputsAreBalanced)
{
    EXPECT_EQ(pimPartitionRows(0, 0, 8).imbalance(), 1.0);
    const PimPartition one = pimPartitionRows(0, 5, 1);
    ASSERT_EQ(one.rowsPerRank.size(), 1u);
    EXPECT_EQ(one.rowsPerRank[0], 5);
    EXPECT_DOUBLE_EQ(one.imbalance(), 1.0);
}

TEST(PimModelTest, OffloadableSelectsPoolingFamily)
{
    KernelProfile kp;
    for (const char* type : {"SparseLengthsSum",
                             "SparseLengthsWeightedSum",
                             "SparseLengthsMean"}) {
        kp.opType = type;
        EXPECT_TRUE(PimModel::offloadable(kp)) << type;
    }
    for (const char* type : {"Gather", "FC", "Relu", "Concat",
                             "BatchMatMul", "DataLoad"}) {
        kp.opType = type;
        EXPECT_FALSE(PimModel::offloadable(kp)) << type;
    }
}

TEST(PimModelTest, ZeroByteTransferCostsNothing)
{
    const PimConfig cfg = upmemPimConfig();
    PimModel model(cfg);

    // A profile with table traffic but no upload/download streams
    // pays no transfer latency at all — not even the fixed term.
    KernelProfile kp = slsProfile();
    kp.streams.erase(kp.streams.begin());  // drop the index upload
    kp.streams.pop_back();                 // drop the output download
    const PimOpTime t = model.opTime(kp);
    EXPECT_EQ(t.uploadBytes, 0u);
    EXPECT_EQ(t.downloadBytes, 0u);
    EXPECT_DOUBLE_EQ(t.uploadSeconds, 0.0);
    EXPECT_DOUBLE_EQ(t.downloadSeconds, 0.0);
    EXPECT_DOUBLE_EQ(t.seconds, t.dispatchSeconds + t.dpuSeconds);

    // With bytes present each transfer pays at least the launch
    // latency on top of the bandwidth term.
    PimModel fresh(cfg);
    const PimOpTime full = fresh.opTime(slsProfile());
    EXPECT_GT(full.uploadSeconds, cfg.xferLatencySec * 0.999);
    EXPECT_GT(full.downloadSeconds, cfg.xferLatencySec * 0.999);
    EXPECT_DOUBLE_EQ(full.seconds,
                     full.dispatchSeconds + full.uploadSeconds +
                         full.dpuSeconds + full.downloadSeconds);
}

TEST(PimModelTest, ThroughputMonotoneInRanksUntilTransferBound)
{
    const KernelProfile kp = slsProfile(1 << 16);
    PimConfig cfg = upmemPimConfig();
    double prev = -1.0;
    double last = 0.0;
    for (int ranks : {1, 2, 4, 8, 16, 64, 256, 4096}) {
        cfg.ranks = ranks;
        PimModel model(cfg);
        last = model.opTime(kp).seconds;
        if (prev >= 0.0) {
            EXPECT_LE(last, prev * (1.0 + 1e-12)) << ranks;
        }
        prev = last;
    }
    // As ranks grow, the DPU term vanishes and the total converges to
    // the transfer-only floor (which no configuration beats).
    PimModel huge(cfg);
    const double floor_s = huge.transferBoundSeconds(kp);
    EXPECT_GT(last, floor_s * 0.999);
    EXPECT_LT(last, floor_s * 1.01);
    cfg.ranks = 1;
    EXPECT_GE(PimModel(cfg).opTime(kp).seconds, floor_s);
}

TEST(PimModelTest, ThroughputMonotoneInTaskletsSaturatingAtFill)
{
    const KernelProfile kp = slsProfile();
    PimConfig cfg = upmemPimConfig();
    double prev = -1.0;
    for (int t : {1, 2, 4, 8, 11, 16, 24}) {
        cfg.taskletsPerDpu = t;
        PimModel model(cfg);
        const double s = model.opTime(kp).seconds;
        if (prev >= 0.0) {
            EXPECT_LE(s, prev * (1.0 + 1e-12)) << t;
        }
        prev = s;
    }
    // Past the pipeline-fill point extra tasklets add no bandwidth.
    cfg.taskletsPerDpu = cfg.pipelineFillTasklets;
    const double at_fill = PimModel(cfg).opTime(kp).seconds;
    cfg.taskletsPerDpu = cfg.pipelineFillTasklets * 2;
    EXPECT_DOUBLE_EQ(PimModel(cfg).opTime(kp).seconds, at_fill);
}

TEST(PimModelTest, WramWorkingSetCapsActiveTasklets)
{
    // Rows as wide as the whole WRAM leave room for one tasklet's
    // buffer: the configured tasklet count stops mattering.
    PimConfig cfg = upmemPimConfig();
    const KernelProfile wide =
        slsProfile(1024, cfg.wramBytesPerDpu, 10000);
    cfg.taskletsPerDpu = 16;
    const double t16 = PimModel(cfg).opTime(wide).dpuSeconds;
    cfg.taskletsPerDpu = 1;
    const double t1 = PimModel(cfg).opTime(wide).dpuSeconds;
    EXPECT_DOUBLE_EQ(t16, t1);

    // Narrow rows are not WRAM-bound: more tasklets do help.
    const KernelProfile narrow = slsProfile(1024, 256, 10000);
    cfg.taskletsPerDpu = 1;
    const double n1 = PimModel(cfg).opTime(narrow).dpuSeconds;
    cfg.taskletsPerDpu = 11;
    const double n11 = PimModel(cfg).opTime(narrow).dpuSeconds;
    EXPECT_LT(n11, n1);
}

TEST(PimModelTest, SimulateOffloadSkipsHostKernels)
{
    PimModel model(upmemPimConfig());
    KernelProfile fc;
    fc.opType = "FC";
    const PimRunResult r =
        model.simulateOffload({slsProfile(), fc, slsProfile()});
    EXPECT_EQ(r.offloadedOps, 2u);
    EXPECT_EQ(r.opTimes.size(), 2u);
    EXPECT_GT(r.offloadSeconds, 0.0);
    EXPECT_GT(r.lookups, 0u);
    EXPECT_GT(r.transferFraction(), 0.0);
    EXPECT_LE(r.transferFraction(), 1.0);
}

TEST(PimConfigTest, EnvKnobsOverrideDefaults)
{
    ASSERT_EQ(setenv("RECSTACK_PIM_RANKS", "32", 1), 0);
    ASSERT_EQ(setenv("RECSTACK_PIM_TASKLETS", "4", 1), 0);
    ASSERT_EQ(setenv("RECSTACK_PIM_RANK_GBS", "50.5", 1), 0);
    ASSERT_EQ(setenv("RECSTACK_PIM_XFER_GBS", "12", 1), 0);
    ASSERT_EQ(setenv("RECSTACK_PIM_XFER_LAT_US", "5", 1), 0);
    ASSERT_EQ(setenv("RECSTACK_PIM_DPUS_PER_RANK", "128", 1), 0);
    const PimConfig p = upmemPimConfig();
    EXPECT_EQ(p.ranks, 32);
    EXPECT_EQ(p.taskletsPerDpu, 4);
    EXPECT_EQ(p.dpusPerRank, 128);
    EXPECT_DOUBLE_EQ(p.rankInternalGBs, 50.5);
    EXPECT_DOUBLE_EQ(p.xferGBs, 12.0);
    EXPECT_NEAR(p.xferLatencySec, 5e-6, 1e-12);
    EXPECT_NE(p.name.find("32 ranks"), std::string::npos);

    // Invalid and non-positive values fall back to the defaults.
    ASSERT_EQ(setenv("RECSTACK_PIM_RANKS", "banana", 1), 0);
    ASSERT_EQ(setenv("RECSTACK_PIM_XFER_GBS", "-3", 1), 0);
    ASSERT_EQ(setenv("RECSTACK_PIM_TASKLETS", "0", 1), 0);
    const PimConfig fallback = upmemPimConfig();
    const PimConfig defaults;
    EXPECT_EQ(fallback.ranks, defaults.ranks);
    EXPECT_DOUBLE_EQ(fallback.xferGBs, defaults.xferGBs);
    EXPECT_EQ(fallback.taskletsPerDpu, defaults.taskletsPerDpu);

    for (const char* knob :
         {"RECSTACK_PIM_RANKS", "RECSTACK_PIM_TASKLETS",
          "RECSTACK_PIM_RANK_GBS", "RECSTACK_PIM_XFER_GBS",
          "RECSTACK_PIM_XFER_LAT_US", "RECSTACK_PIM_DPUS_PER_RANK"}) {
        ASSERT_EQ(unsetenv(knob), 0);
    }
}

TEST(PimPlatformTest, FifthPlatformIsPim)
{
    const std::vector<Platform> with = allPlatformsWithPim();
    ASSERT_EQ(with.size(), allPlatforms().size() + 1);
    EXPECT_EQ(with.back().kind, PlatformKind::kPim);
    EXPECT_EQ(with.back().name(), with.back().pim.name);
    // The baseline list is untouched: goldens and existing sweeps
    // keep their platform indices.
    for (size_t i = 0; i + 1 < with.size(); ++i) {
        EXPECT_EQ(with[i].name(), allPlatforms()[i].name());
    }
}

TEST(PimCharacterizerTest, SlsHeavyModelGainsAtLargeBatch)
{
    Characterizer c;
    uint64_t bytes = 0;
    size_t blobs = 0;
    const std::vector<KernelProfile> profiles =
        c.profiles(ModelId::kRM1, 1024, &bytes, &blobs);
    const RunResult cpu =
        simulateProfiles(profiles, makeCpuPlatform(broadwellConfig()),
                         ModelId::kRM1, 1024, bytes, blobs);
    const RunResult pim =
        simulateProfiles(profiles, makePimPlatform(upmemPimConfig()),
                         ModelId::kRM1, 1024, bytes, blobs);
    EXPECT_GT(pim.pim.offloadedOps, 0u);
    EXPECT_GT(pim.pim.offloadSeconds, 0.0);
    // Total = host share + offload share.
    EXPECT_GT(pim.seconds, pim.pim.offloadSeconds);
    // RM1 is SLS-dominated: the offload wins end to end at batch 1024.
    EXPECT_GT(cpu.seconds / pim.seconds, 1.5);
}

class PimServingTest : public ::testing::Test
{
  protected:
    PimServingTest()
        : sweep_(allPlatformsWithPim(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    EngineResult run(EngineConfig cfg)
    {
        ServingNode engine(&sched_, ModelId::kRM1, 0);
        return engine.run(cfg);
    }

    /** The near-memory lane on the sweep's kPim platform. */
    static LaneConfig pimLane() { return LaneConfig{4, {}}; }

    static EngineConfig baseConfig()
    {
        EngineConfig cfg;
        cfg.numWorkers = 2;
        cfg.arrivalQps = 8000;
        cfg.simSeconds = 0.25;
        return cfg;
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(PimServingTest, SchedulerThresholdDefaultsToRouteNothing)
{
    EXPECT_EQ(sched_.pimThreshold(ModelId::kRM1),
              QueryScheduler::kNoPimThreshold);
    EXPECT_FALSE(sched_.routesToPim(ModelId::kRM1, 1 << 20));
    sched_.setPimThreshold(ModelId::kRM1, 64);
    EXPECT_EQ(sched_.pimThreshold(ModelId::kRM1), 64);
    EXPECT_FALSE(sched_.routesToPim(ModelId::kRM1, 63));
    EXPECT_TRUE(sched_.routesToPim(ModelId::kRM1, 64));
    // Per-model: other models keep the route-nothing default.
    EXPECT_EQ(sched_.pimThreshold(ModelId::kWnD),
              QueryScheduler::kNoPimThreshold);
}

TEST_F(PimServingTest, DisabledLaneIsBitIdenticalToLegacyEngine)
{
    // The regression the docs promise: with the PIM lane off (the
    // default) — and even with it on but no threshold set — the
    // engine's virtual-time results are identical to the pre-PIM
    // path. Only the capacity-normalized aggregate fields
    // (utilization / offeredLoad) may differ when the lane exists,
    // because the aggregate divides by numWorkers + 1 servers.
    const EngineResult off = run(baseConfig());
    EngineConfig on_cfg = baseConfig();
    on_cfg.lanes = {pimLane()};
    const EngineResult on = run(on_cfg);

    EXPECT_TRUE(off.lanes.empty());
    ASSERT_EQ(on.lanes.size(), 1u);
    const LaneResult& pim = on.lanes[0];
    EXPECT_EQ(pim.threshold, QueryScheduler::kNoPimThreshold);
    EXPECT_EQ(pim.deferredTickets, 0u);
    EXPECT_EQ(pim.stats.samplesServed, 0u);
    ASSERT_EQ(off.perWorker.size(), on.perWorker.size());
    for (size_t w = 0; w < off.perWorker.size(); ++w) {
        EXPECT_EQ(off.perWorker[w].samplesServed,
                  on.perWorker[w].samplesServed);
        EXPECT_EQ(off.perWorker[w].batchesServed,
                  on.perWorker[w].batchesServed);
        EXPECT_DOUBLE_EQ(off.perWorker[w].meanLatency,
                         on.perWorker[w].meanLatency);
        EXPECT_DOUBLE_EQ(off.perWorker[w].p99Latency,
                         on.perWorker[w].p99Latency);
    }
    EXPECT_EQ(off.aggregate.samplesArrived, on.aggregate.samplesArrived);
    EXPECT_EQ(off.aggregate.samplesServed, on.aggregate.samplesServed);
    EXPECT_EQ(off.aggregate.batchesServed, on.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(off.aggregate.meanLatency, on.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(off.aggregate.p99Latency, on.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(off.meanSlowdown, on.meanSlowdown);
}

TEST_F(PimServingTest, RoutesLargeBatchesToPimLane)
{
    sched_.setPimThreshold(ModelId::kRM1, 32);
    EngineConfig cfg = baseConfig();
    cfg.lanes = {pimLane()};
    cfg.arrivalQps = 40000;  // ~40 samples per 1 ms window
    const EngineResult r = run(cfg);

    ASSERT_EQ(r.lanes.size(), 1u);
    const LaneResult& pim = r.lanes[0];
    EXPECT_EQ(pim.threshold, 32);
    EXPECT_GT(pim.deferredTickets, 0u);
    EXPECT_GT(pim.stats.samplesServed, 0u);
    EXPECT_GT(pim.stats.batchesServed, 0u);
    EXPECT_GT(pim.stats.p99Latency, 0.0);

    // Conservation across the split: every arrived sample was served
    // exactly once, by a CPU worker or by the PIM lane.
    uint64_t cpu_served = 0;
    for (const ServingStats& w : r.perWorker) {
        cpu_served += w.samplesServed;
    }
    EXPECT_EQ(cpu_served + pim.stats.samplesServed,
              r.aggregate.samplesServed);
    EXPECT_EQ(r.aggregate.samplesServed, r.aggregate.samplesArrived);
}

TEST_F(PimServingTest, DeterministicAcrossRuns)
{
    sched_.setPimThreshold(ModelId::kRM1, 16);
    EngineConfig cfg = baseConfig();
    cfg.lanes = {pimLane()};
    cfg.numWorkers = 4;
    cfg.arrivalQps = 30000;
    const EngineResult a = run(cfg);
    const EngineResult b = run(cfg);
    EXPECT_EQ(a.aggregate.samplesServed, b.aggregate.samplesServed);
    EXPECT_EQ(a.lanes.at(0).deferredTickets, b.lanes.at(0).deferredTickets);
    EXPECT_EQ(a.lanes.at(0).stats.samplesServed,
              b.lanes.at(0).stats.samplesServed);
    EXPECT_DOUBLE_EQ(a.aggregate.p99Latency, b.aggregate.p99Latency);
}

TEST_F(PimServingTest, RejectsNonPimLanePlatform)
{
    EngineConfig bad = baseConfig();
    bad.lanes = {LaneConfig{0, {}}};  // Bdw is a CPU
    EXPECT_DEATH(run(bad), "kPim platform");
    EngineConfig oob = baseConfig();
    oob.lanes = {LaneConfig{99, {}}};
    EXPECT_DEATH(run(oob), "platform index");
}

TEST(PimSchedulerDeathTest, RejectsNonPositiveThreshold)
{
    SweepCache sweep(allPlatformsWithPim(), tinyOptions());
    QueryScheduler sched(&sweep, {1, 16});
    EXPECT_DEATH(sched.setPimThreshold(ModelId::kRM1, 0), "");
}

}  // namespace
}  // namespace recstack
