/**
 * @file
 * Tests of the online hill-climbing threshold tuner: convergence on a
 * synthetic objective, agreement with exhaustive search, and the
 * closed loop against the real serving engine through the obs
 * histogram feedback path.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "obs/metrics.h"
#include "sched/hill_climb.h"
#include "serve/serving_node.h"

namespace recstack {
namespace {

/**
 * Synthetic serving epoch: records `queries` samples of a fixed
 * per-threshold latency into the tuner's histogram, emulating an
 * engine whose tail is a known function of the threshold. Latencies
 * are multiples of the 1 ms bucket width, so snapshot percentiles
 * land inside the right bucket.
 */
struct SyntheticServer {
    std::map<int64_t, double> p99ByThreshold;
    uint64_t queries = 100;
    std::string histName = "test.hill_climb_latency";

    EpochFn epochFn()
    {
        return [this](int64_t threshold) {
            obs::LatencyHistogram& h =
                obs::MetricsRegistry::global().histogram(histName, 0.0,
                                                         1.0, 1000);
            const double lat = p99ByThreshold.at(threshold);
            for (uint64_t i = 0; i < queries; ++i) {
                h.record(lat);
            }
        };
    }

    HillClimbConfig config(double sla) const
    {
        HillClimbConfig cfg;
        cfg.slaSeconds = sla;
        cfg.epochSeconds = 1.0;
        cfg.histogramName = histName;
        for (const auto& kv : p99ByThreshold) {
            cfg.thresholdGrid.push_back(kv.first);
        }
        return cfg;
    }
};

TEST(HillClimb, ConvergesToConvexOptimumAndMatchesExhaustive)
{
    SyntheticServer server;
    server.p99ByThreshold = {{1, 0.050}, {2, 0.030}, {4, 0.010},
                             {8, 0.005}, {16, 0.012}, {32, 0.040}};
    const HillClimbConfig cfg = server.config(/*sla=*/0.020);

    const HillClimbResult hc = hillClimbThreshold(cfg, server.epochFn());
    EXPECT_EQ(hc.bestThreshold, 8);
    EXPECT_TRUE(hc.anyFeasible);
    EXPECT_TRUE(hc.best.feasible);
    EXPECT_NEAR(hc.best.p99, 0.005, 1.5e-3);
    EXPECT_DOUBLE_EQ(hc.best.qps, 100.0);
    // Starting at the left edge, the climb walks 1 -> 2 -> 4 -> 8 and
    // stops once both neighbors of 8 are worse; threshold 32 is never
    // measured.
    EXPECT_EQ(hc.epochs, 5);
    EXPECT_EQ(static_cast<int>(hc.history.size()), hc.epochs);

    const HillClimbResult ex =
        exhaustiveThreshold(cfg, server.epochFn());
    EXPECT_EQ(ex.bestThreshold, hc.bestThreshold);
    EXPECT_EQ(static_cast<size_t>(ex.epochs), cfg.thresholdGrid.size());
}

TEST(HillClimb, FeasiblePointBeatsFasterInfeasibleOne)
{
    // Feasibility dominates: under a 7 ms SLA only threshold 8 holds
    // the tail, so it must win even though its neighbors are within
    // budget-epsilon of it on QPS.
    SyntheticServer server;
    server.p99ByThreshold = {{4, 0.010}, {8, 0.005}, {16, 0.012}};
    const HillClimbResult hc = hillClimbThreshold(
        server.config(/*sla=*/0.007), server.epochFn());
    EXPECT_EQ(hc.bestThreshold, 8);
    EXPECT_TRUE(hc.anyFeasible);
}

TEST(HillClimb, InfeasibleSlaPicksLeastBadTail)
{
    SyntheticServer server;
    server.p99ByThreshold = {{4, 0.010}, {8, 0.005}, {16, 0.012}};
    const HillClimbResult hc = hillClimbThreshold(
        server.config(/*sla=*/1e-6), server.epochFn());
    EXPECT_FALSE(hc.anyFeasible);
    EXPECT_FALSE(hc.best.feasible);
    EXPECT_EQ(hc.bestThreshold, 8);  // lowest p99 among measured
}

TEST(HillClimb, RespectsEpochBudget)
{
    SyntheticServer server;
    server.p99ByThreshold = {{1, 0.050}, {2, 0.030}, {4, 0.010},
                             {8, 0.005}, {16, 0.012}, {32, 0.040}};
    HillClimbConfig cfg = server.config(/*sla=*/0.020);
    cfg.maxEpochs = 2;
    const HillClimbResult hc = hillClimbThreshold(cfg, server.epochFn());
    EXPECT_EQ(hc.epochs, 2);
    EXPECT_EQ(hc.bestThreshold, 2);  // best of the two measured points
}

TEST(HillClimb, RejectsBadConfigs)
{
    SyntheticServer server;
    server.p99ByThreshold = {{4, 0.010}};
    HillClimbConfig empty = server.config(0.02);
    empty.thresholdGrid.clear();
    EXPECT_DEATH(hillClimbThreshold(empty, server.epochFn()),
                 "non-empty");
    HillClimbConfig unsorted = server.config(0.02);
    unsorted.thresholdGrid = {16, 4};
    EXPECT_DEATH(hillClimbThreshold(unsorted, server.epochFn()),
                 "ascending");
    HillClimbConfig zero = server.config(0.02);
    zero.thresholdGrid = {0, 4};
    EXPECT_DEATH(hillClimbThreshold(zero, server.epochFn()), ">= 1");
}

class HillClimbEngineTest : public ::testing::Test
{
  protected:
    HillClimbEngineTest()
        : sweep_(allPlatforms(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(HillClimbEngineTest, ClosedLoopLandsWithinOneStepOfExhaustive)
{
    // The real loop: each epoch sets the scheduler threshold and runs
    // the heterogeneous engine; the tuner sees only what the engine
    // recorded into serve.query_latency_seconds. The climber must end
    // within one grid step of the exhaustive-search optimum (the
    // PAPER-CHECK bench asserts the same at full scale).
    ServingNode engine(&sched_, ModelId::kRM2, /*platform=*/0);
    EngineConfig ecfg;
    ecfg.numWorkers = 2;
    ecfg.arrivalQps = 30000;
    ecfg.simSeconds = 0.1;
    ecfg.lanes = {LaneConfig{}};  // GPU lane on the T4
    const EpochFn epoch = [&](int64_t threshold) {
        sched_.setGpuThreshold(ModelId::kRM2, threshold);
        engine.run(ecfg);
    };

    HillClimbConfig cfg;
    cfg.thresholdGrid = {1, 8, 32, 128, 512,
                         QueryScheduler::kNoGpuThreshold};
    cfg.slaSeconds = 0.01;
    cfg.epochSeconds = ecfg.simSeconds;
    cfg.startIndex = 2;

    const HillClimbResult hc = hillClimbThreshold(cfg, epoch);
    const HillClimbResult ex = exhaustiveThreshold(cfg, epoch);

    const auto index_of = [&](int64_t t) {
        for (size_t i = 0; i < cfg.thresholdGrid.size(); ++i) {
            if (cfg.thresholdGrid[i] == t) {
                return static_cast<int>(i);
            }
        }
        return -1;
    };
    const int hc_idx = index_of(hc.bestThreshold);
    const int ex_idx = index_of(ex.bestThreshold);
    ASSERT_GE(hc_idx, 0);
    ASSERT_GE(ex_idx, 0);
    EXPECT_LE(std::abs(hc_idx - ex_idx), 1);
    // The engine drains the whole stream, so every epoch serves the
    // same queries; served QPS agrees across the two searches.
    EXPECT_NEAR(hc.best.qps, ex.best.qps, 1e-6 * ex.best.qps);
}

TEST_F(HillClimbEngineTest, HistogramTailMatchesEngineAggregate)
{
    // The tuner's feedback (histogram snapshot p99) must agree with
    // the engine's exact order-statistic p99 to within histogram
    // resolution (1 ms buckets, linear interpolation inside).
    ServingNode engine(&sched_, ModelId::kRM1, /*platform=*/0);
    EngineConfig ecfg;
    ecfg.numWorkers = 2;
    ecfg.arrivalQps = 20000;
    ecfg.simSeconds = 0.1;
    ecfg.lanes = {LaneConfig{}};  // GPU lane on the T4
    sched_.setGpuThreshold(ModelId::kRM1, 64);

    obs::LatencyHistogram& h = obs::MetricsRegistry::global().histogram(
        "serve.query_latency_seconds", 0.0, 1.0, 1000);
    h.reset();
    const EngineResult r = engine.run(ecfg);
    const obs::HistogramSnapshot snap = h.snapshot();

    EXPECT_EQ(snap.total, r.aggregate.samplesServed);
    EXPECT_NEAR(snap.percentile(0.99), r.aggregate.p99Latency,
                2.0 * snap.bucketWidth());
}

}  // namespace
}  // namespace recstack
