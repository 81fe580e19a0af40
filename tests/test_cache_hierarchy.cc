/**
 * @file
 * Tests of the three-level hierarchy, including the inclusive
 * (Broadwell) vs exclusive (Cascade Lake) L3 policies of Table II.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "uarch/cache_hierarchy.h"

namespace recstack {
namespace {

CpuConfig
tinyConfig(InclusionPolicy policy)
{
    CpuConfig cfg;
    cfg.l1d = {1024, 2, 4};
    cfg.l2 = {4 * 1024, 4, 12};
    cfg.l3 = {16 * 1024, 8, 40};
    cfg.l3Policy = policy;
    return cfg;
}

TEST(CacheHierarchy, FirstTouchMissesToDram)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    EXPECT_EQ(h.access(0x10000, false), HitLevel::kDram);
}

TEST(CacheHierarchy, SecondTouchHitsL1)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0x10000, false);
    EXPECT_EQ(h.access(0x10000, false), HitLevel::kL1);
}

TEST(CacheHierarchy, L1EvictedLineHitsInL2)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    // Stream 2 KB (> L1 1 KB) to push line 0 out of L1 but not L2.
    for (uint64_t i = 1; i < 32; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kL2);
}

TEST(CacheHierarchy, L2EvictedLineHitsInL3)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    // Stream 8 KB (> L2 4 KB, < L3 16 KB).
    for (uint64_t i = 1; i < 128; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kL3);
}

TEST(CacheHierarchy, InclusiveL3EvictionBackInvalidates)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    EXPECT_EQ(h.access(0, false), HitLevel::kL1);
    // Stream well past L3 capacity so line 0 leaves L3; inclusion
    // must purge it from L1/L2 as well -> next access goes to DRAM.
    for (uint64_t i = 1; i < 1024; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kDram);
}

TEST(CacheHierarchy, ExclusiveL3HoldsL2Victims)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kExclusive));
    h.access(0, false);
    // Push line 0 out of L2 (stream 8 KB); exclusively, the victim
    // moves into L3.
    for (uint64_t i = 1; i < 128; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kL3);
    // After the L3 hit the line moved back up; L3 copy is gone, so a
    // quick re-touch hits L1.
    EXPECT_EQ(h.access(0, false), HitLevel::kL1);
}

TEST(CacheHierarchy, ExclusiveEffectiveCapacityExceedsL3Alone)
{
    // Working set just under L2 + L3 size fits the exclusive
    // hierarchy but overflows the inclusive one (where L3 duplicates
    // L2 contents).
    const uint64_t lines = (4 * 1024 + 16 * 1024) / 64 - 32;  // 288

    CacheHierarchy ex(tinyConfig(InclusionPolicy::kExclusive));
    for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t i = 0; i < lines; ++i) {
            ex.access(i * 64, false);
        }
    }
    uint64_t ex_dram = 0;
    for (uint64_t i = 0; i < lines; ++i) {
        ex_dram += ex.access(i * 64, false) == HitLevel::kDram;
    }

    CacheHierarchy in(tinyConfig(InclusionPolicy::kInclusive));
    for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t i = 0; i < lines; ++i) {
            in.access(i * 64, false);
        }
    }
    uint64_t in_dram = 0;
    for (uint64_t i = 0; i < lines; ++i) {
        in_dram += in.access(i * 64, false) == HitLevel::kDram;
    }
    EXPECT_LT(ex_dram, in_dram);
}

TEST(CacheHierarchy, WritesAllocateLikeReads)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0x400, true);
    EXPECT_EQ(h.access(0x400, false), HitLevel::kL1);
}

TEST(CacheHierarchy, ResetColdsEverything)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    h.reset();
    EXPECT_EQ(h.access(0, false), HitLevel::kDram);
}

TEST(CacheHierarchy, AccessRunMatchesPerLineAccesses)
{
    // Runs of up to 40 lines wrap past every level's last set (8, 16
    // and 32 or 24 sets) and start anywhere inside a line; the 24-set
    // L3 steps a non-power-of-two index.
    CpuConfig odd_l3 = tinyConfig(InclusionPolicy::kInclusive);
    odd_l3.l3 = {12 * 1024, 8, 40};
    for (const CpuConfig& cfg :
         {tinyConfig(InclusionPolicy::kInclusive),
          tinyConfig(InclusionPolicy::kExclusive), odd_l3}) {
        CacheHierarchy run(cfg);
        CacheHierarchy per_line(cfg);
        Rng rng(9);
        for (int i = 0; i < 3000; ++i) {
            const uint64_t addr = rng.nextBounded(64 * 1024);
            const uint64_t lines = 1 + rng.nextBounded(40);
            CacheHierarchy::LevelCounts got{};
            CacheHierarchy::LevelCounts want{};
            run.accessRun(addr, lines, got);
            for (uint64_t l = 0; l < lines; ++l) {
                ++want[static_cast<size_t>(
                    per_line.access(addr + l * 64, false))];
            }
            ASSERT_EQ(got, want) << "run of " << lines << " at " << addr;
        }
        EXPECT_EQ(run.l1().hits(), per_line.l1().hits());
        EXPECT_EQ(run.l2().misses(), per_line.l2().misses());
        EXPECT_EQ(run.l3().misses(), per_line.l3().misses());
    }
}

TEST(CacheHierarchy, TableIIConfigsConstruct)
{
    CacheHierarchy bdw(broadwellConfig());
    CacheHierarchy clx(cascadeLakeConfig());
    EXPECT_EQ(bdw.l3().sizeBytes(), 40ull * 1024 * 1024);
    EXPECT_EQ(clx.l2().sizeBytes(), 1024ull * 1024);
    EXPECT_EQ(bdw.access(0, false), HitLevel::kDram);
    EXPECT_EQ(clx.access(0, false), HitLevel::kDram);
}

}  // namespace
}  // namespace recstack
