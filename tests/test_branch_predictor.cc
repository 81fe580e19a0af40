/**
 * @file
 * Tests of the gshare predictor and the synthetic branch-stream
 * simulation behind Figs. 8 and 15.
 */

#include <gtest/gtest.h>

#include "platform/platform.h"
#include "uarch/branch_predictor.h"

namespace recstack {
namespace {

TEST(Gshare, LearnsAlwaysTaken)
{
    GsharePredictor bp(10, 8);
    int mispredicts = 0;
    for (int i = 0; i < 1000; ++i) {
        mispredicts += bp.predictAndUpdate(0x400, true);
    }
    EXPECT_LT(mispredicts, 5);
}

TEST(Gshare, LearnsAlwaysNotTaken)
{
    GsharePredictor bp(10, 8);
    int mispredicts = 0;
    for (int i = 0; i < 1000; ++i) {
        mispredicts += bp.predictAndUpdate(0x400, false);
    }
    EXPECT_LT(mispredicts, 5);
}

TEST(Gshare, LearnsShortPeriodicPattern)
{
    // T T T N repeating: history correlation makes this learnable.
    GsharePredictor bp(12, 8);
    int mispredicts = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 4) != 3;
        const int m = bp.predictAndUpdate(0x80, taken);
        if (i >= 1000) {
            mispredicts += m;
        }
    }
    EXPECT_LT(mispredicts, 3000 / 20);  // < 5% steady state
}

TEST(Gshare, RandomStreamNearChance)
{
    GsharePredictor bp(12, 10);
    Rng rng(3);
    int mispredicts = 0;
    for (int i = 0; i < 8000; ++i) {
        mispredicts += bp.predictAndUpdate(0x80, rng.nextBool(0.5));
    }
    EXPECT_NEAR(mispredicts / 8000.0, 0.5, 0.06);
}

TEST(Gshare, BiasedRandomBeatsChance)
{
    GsharePredictor bp(12, 10);
    Rng rng(4);
    int mispredicts = 0;
    for (int i = 0; i < 8000; ++i) {
        mispredicts += bp.predictAndUpdate(0x80, rng.nextBool(0.9));
    }
    // Should approach the 10% irreducible rate.
    EXPECT_LT(mispredicts / 8000.0, 0.25);
}

TEST(Gshare, ResetForgets)
{
    GsharePredictor bp(10, 8);
    for (int i = 0; i < 100; ++i) {
        bp.predictAndUpdate(0x10, false);
    }
    EXPECT_FALSE(bp.predict(0x10));
    bp.reset();
    EXPECT_TRUE(bp.predict(0x10));  // back to weakly-taken init
}

TEST(BranchStream, EmptyStreamNoWork)
{
    GsharePredictor bp(10, 8);
    Rng rng(1);
    BranchStream s;
    s.count = 0;
    const auto r = simulateBranchStream(bp, s, 0x1000, rng);
    EXPECT_EQ(r.simulated, 0u);
    EXPECT_EQ(r.mispredicts, 0u);
}

TEST(BranchStream, SampleCapRespected)
{
    GsharePredictor bp(10, 8);
    Rng rng(1);
    BranchStream s;
    s.count = 1000000;
    s.takenProbability = 0.9;
    const auto r = simulateBranchStream(bp, s, 0x1000, rng, 512);
    EXPECT_EQ(r.simulated, 512u);
}

TEST(BranchStream, PredictableLoopsMispredictRarely)
{
    GsharePredictor bp(14, 12);
    Rng rng(2);
    BranchStream loop;
    loop.count = 4000;
    loop.takenProbability = 0.97;
    loop.randomness = 0.02;
    const auto r = simulateBranchStream(bp, loop, 0x2000, rng, 4000);
    EXPECT_LT(r.mispredictRate(), 0.1);
}

TEST(BranchStream, DataDependentBranchesMispredictOften)
{
    GsharePredictor bp(14, 12);
    Rng rng(2);
    BranchStream data;
    data.count = 4000;
    data.takenProbability = 0.85;
    data.randomness = 0.75;
    const auto r = simulateBranchStream(bp, data, 0x3000, rng, 4000);
    EXPECT_GT(r.mispredictRate(), 0.12);
}

TEST(BranchStream, LoopPredictorCoversPatternedComponent)
{
    Rng rng1(5), rng2(5);
    BranchStream loop;
    loop.count = 4000;
    loop.takenProbability = 0.875;  // period-8 loop
    loop.randomness = 0.0;

    GsharePredictor weak(8, 4);
    const auto base = simulateBranchStream(weak, loop, 0x4000, rng1,
                                           4000, false);
    GsharePredictor weak2(8, 4);
    const auto covered = simulateBranchStream(weak2, loop, 0x4000, rng2,
                                              4000, true);
    EXPECT_LE(covered.mispredicts, base.mispredicts);
    EXPECT_LT(covered.mispredictRate(), 0.01);
}

TEST(BranchStream, BroadwellVsCascadeLakeOrdering)
{
    // The CLX predictor configuration (bigger tables + loop
    // predictor) must not mispredict more than BDW's on the same
    // mixed stream.
    const CpuConfig bdw = broadwellConfig();
    const CpuConfig clx = cascadeLakeConfig();
    GsharePredictor pb(bdw.bpTableBits, bdw.bpHistoryBits);
    GsharePredictor pc(clx.bpTableBits, clx.bpHistoryBits);
    Rng r1(6), r2(6);

    BranchStream mixed;
    mixed.count = 6000;
    mixed.takenProbability = 0.85;
    mixed.randomness = 0.4;
    const auto mb = simulateBranchStream(pb, mixed, 0x5000, r1, 6000,
                                         bdw.bpLoopPredictor);
    const auto mc = simulateBranchStream(pc, mixed, 0x5000, r2, 6000,
                                         clx.bpLoopPredictor);
    EXPECT_LT(mc.mispredicts, mb.mispredicts);
}

/**
 * Exact mispredict counts of simulateBranchStream, recorded from the
 * version that derived the loop phase and branch site with i % period
 * and i % 4. They pin the sampling loop itself: same draws, same
 * outcomes, same sites. takenProbability spans periods 2-7 from both
 * sides of 0.5 and period 0 (never-taken and always-taken); period 1
 * cannot occur, since lround(1 / (1 - p)) >= 2 for p >= 0.5 and
 * lround(1 / p) >= 2 for p < 0.5.
 */
struct PinnedStream {
    double takenProbability;
    uint64_t period;           // printed on failure
    double randomness;
    uint64_t gshareOnly;       // loop predictor off
    uint64_t withLoop;         // loop predictor on
};

TEST(BranchStream, PinnedMispredictCounts)
{
    const PinnedStream kPinned[] = {
        {0.0, 0, 0.0, 4, 0},           {0.0, 0, 0.3, 4, 3},
        {1.0, 0, 0.0, 0, 0},           {1.0, 0, 0.3, 0, 0},
        {0.5, 2, 0.0, 6, 1},           {0.5, 2, 0.3, 473, 313},
        {2.0 / 3.0, 3, 0.0, 7, 1},     {2.0 / 3.0, 3, 0.3, 447, 261},
        {0.75, 4, 0.0, 3, 1},          {0.75, 4, 0.3, 388, 213},
        {0.8, 5, 0.0, 6, 1},           {0.8, 5, 0.3, 349, 171},
        {5.0 / 6.0, 6, 0.0, 4, 1},     {5.0 / 6.0, 6, 0.3, 277, 149},
        {6.0 / 7.0, 7, 0.0, 6, 1},     {6.0 / 7.0, 7, 0.3, 248, 120},
        {0.45, 2, 0.0, 5, 1},          {0.45, 2, 0.3, 469, 326},
        {1.0 / 3.0, 3, 0.0, 12, 2},    {1.0 / 3.0, 3, 0.3, 630, 307},
        {0.25, 4, 0.0, 7, 3},          {0.25, 4, 0.3, 477, 248},
        {0.2, 5, 0.0, 19, 3},          {0.2, 5, 0.3, 428, 213},
        {1.0 / 6.0, 6, 0.0, 11, 4},    {1.0 / 6.0, 6, 0.3, 393, 187},
        {1.0 / 7.0, 7, 0.0, 22, 5},    {1.0 / 7.0, 7, 0.3, 341, 160},
    };
    for (const PinnedStream& pin : kPinned) {
        BranchStream s;
        s.count = 3000;
        s.takenProbability = pin.takenProbability;
        s.randomness = pin.randomness;
        for (bool loop : {false, true}) {
            GsharePredictor bp(10, 8);
            Rng rng(11);
            const auto r =
                simulateBranchStream(bp, s, 0x7000, rng, 2048, loop);
            EXPECT_EQ(r.simulated, 2048u);
            EXPECT_EQ(r.mispredicts, loop ? pin.withLoop : pin.gshareOnly)
                << "p=" << pin.takenProbability << " (period "
                << pin.period << ") randomness=" << pin.randomness
                << " loop=" << loop;
        }
    }
}

/** Sweep randomness: mispredict rate grows monotonically-ish. */
class RandomnessSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(RandomnessSweep, RateBoundedByRandomness)
{
    GsharePredictor bp(14, 12);
    Rng rng(7);
    BranchStream s;
    s.count = 6000;
    s.takenProbability = 0.8;
    s.randomness = GetParam();
    const auto r = simulateBranchStream(bp, s, 0x6000, rng, 6000);
    // The irreducible part is roughly 2 p (1-p) of the random
    // fraction; allow generous slack for gshare noise.
    EXPECT_LE(r.mispredictRate(), GetParam() * 0.6 + 0.12);
}

INSTANTIATE_TEST_SUITE_P(Levels, RandomnessSweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace recstack
