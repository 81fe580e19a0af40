/**
 * @file
 * Single-server dynamic-batching behaviour: one ServingNode worker with
 * contention off and shape-only execution, the configuration the
 * paper's serving curves (Fig. 5 as operating points) are read from.
 */

#include <gtest/gtest.h>

#include "serve/serving_node.h"

namespace recstack {
namespace {

class ServingTest : public ::testing::Test
{
  protected:
    ServingTest()
        : sweep_(allPlatforms(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    ServingStats run(ModelId model, size_t platform, double qps,
                     int64_t max_batch = 256,
                     double window = 1e-3, uint64_t seed = 42)
    {
        ServingNode node(&sched_, model, platform);
        EngineConfig cfg = config();
        cfg.arrivalQps = qps;
        cfg.maxBatch = max_batch;
        cfg.maxWaitSeconds = window;
        cfg.seed = seed;
        return node.run(cfg).aggregate;
    }

    static EngineConfig config()
    {
        EngineConfig cfg;
        cfg.numWorkers = 1;
        cfg.modelContention = false;
        cfg.execMode = ExecMode::kProfileOnly;
        cfg.simSeconds = 0.5;
        return cfg;
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(ServingTest, ConservesSamples)
{
    const ServingStats s = run(ModelId::kNCF, 0, 2000);
    EXPECT_GT(s.samplesArrived, 0u);
    EXPECT_EQ(s.samplesServed, s.samplesArrived);
    EXPECT_EQ(s.droppedSamples, 0u);
    EXPECT_GT(s.batchesServed, 0u);
}

TEST_F(ServingTest, OfferedLoadUnclampedAtSaturation)
{
    // Regression: utilization is clamped to 1, which used to hide
    // over-saturation entirely; offeredLoad reports the unclamped
    // demand. The drain tail runs past simSeconds, so demanded
    // service exceeds the arrival window.
    const double service = sched_.latency(ModelId::kRM2, 0, 1);
    const ServingStats s = run(ModelId::kRM2, 0, 6.0 / service,
                               /*max_batch=*/1, /*window=*/0.0);
    EXPECT_LE(s.utilization, 1.0);
    EXPECT_GT(s.offeredLoad, 1.0);

    // Light load: offered load stays under 1 and only exceeds the
    // clamped utilization by the (short) drain tail.
    const ServingStats light = run(ModelId::kNCF, 0, 500);
    EXPECT_LT(light.offeredLoad, 1.0);
    EXPECT_GE(light.offeredLoad, light.utilization);
}

TEST_F(ServingTest, StatisticsAreWellFormed)
{
    const ServingStats s = run(ModelId::kRM1, 0, 5000);
    EXPECT_GT(s.meanLatency, 0.0);
    EXPECT_LE(s.p50Latency, s.p95Latency);
    EXPECT_LE(s.p95Latency, s.p99Latency);
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
    EXPECT_GE(s.meanBatch, 1.0);
    EXPECT_LE(s.meanBatch, 256.0);
}

TEST_F(ServingTest, LatencyAtLeastServiceTime)
{
    const ServingStats s = run(ModelId::kWnD, 0, 100, 1, 0.0);
    // Batch-1 service latency bounds every sample's latency below.
    EXPECT_GE(s.p50Latency, sched_.latency(ModelId::kWnD, 0, 1) * 0.99);
}

TEST_F(ServingTest, Deterministic)
{
    const ServingStats a = run(ModelId::kRM2, 0, 3000);
    const ServingStats b = run(ModelId::kRM2, 0, 3000);
    EXPECT_EQ(a.samplesServed, b.samplesServed);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
}

TEST_F(ServingTest, TailGrowsWithLoad)
{
    const ServingStats light = run(ModelId::kRM1, 0, 1000);
    const ServingStats heavy = run(ModelId::kRM1, 0, 50000);
    EXPECT_GT(heavy.p99Latency, light.p99Latency);
    EXPECT_GT(heavy.meanBatch, light.meanBatch);
}

TEST_F(ServingTest, UtilizationGrowsWithLoad)
{
    const ServingStats light = run(ModelId::kNCF, 0, 500);
    const ServingStats heavy = run(ModelId::kNCF, 0, 20000);
    EXPECT_GT(heavy.utilization, light.utilization);
}

TEST_F(ServingTest, BiggerBatchCapRaisesThroughputCeiling)
{
    // At overload, a larger batching cap serves more samples/second:
    // on a GPU the per-kernel launch overhead amortizes with batch.
    const ServingStats small_cap =
        run(ModelId::kWnD, 3, 2.0e5, /*max_batch=*/8);
    const ServingStats big_cap =
        run(ModelId::kWnD, 3, 2.0e5, /*max_batch=*/1024);
    EXPECT_GT(big_cap.throughputQps, small_cap.throughputQps * 1.5);
}

TEST_F(ServingTest, WindowTradesLatencyForBatching)
{
    const ServingStats eager =
        run(ModelId::kRM1, 0, 2000, 256, /*window=*/0.0);
    const ServingStats patient =
        run(ModelId::kRM1, 0, 2000, 256, /*window=*/20e-3);
    EXPECT_GT(patient.meanBatch, eager.meanBatch);
    EXPECT_GT(patient.p50Latency, eager.p50Latency);
}

TEST_F(ServingTest, RejectsBadConfig)
{
    ServingNode node(&sched_, ModelId::kNCF, 0);
    EngineConfig cfg = config();
    cfg.arrivalQps = 0.0;
    EXPECT_DEATH(node.run(cfg), "arrival rate");
    EXPECT_DEATH(ServingNode(nullptr, ModelId::kNCF, 0),
                 "needs a scheduler");
}

}  // namespace
}  // namespace recstack
