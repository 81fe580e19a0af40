/**
 * @file
 * Unit tests for the set-associative LRU cache against analytically
 * known access traces, and a differential test against a reference
 * LRU built from per-line timestamps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "platform/platform.h"
#include "uarch/cache.h"

namespace recstack {
namespace {

TEST(Cache, Geometry)
{
    Cache c(32 * 1024, 8, 64);
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_EQ(c.ways(), 8);
    EXPECT_EQ(c.lineBytes(), 64);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1010));  // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, 8 sets of 64B lines -> lines 0, 512, 1024 map to set 0.
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(0));      // fill way 0
    EXPECT_FALSE(c.access(512));    // fill way 1
    EXPECT_TRUE(c.access(0));       // touch 0: 512 becomes LRU
    uint64_t victim = 0;
    EXPECT_FALSE(c.access(1024, &victim));  // evicts 512
    EXPECT_EQ(victim, 512u);
    EXPECT_TRUE(c.access(0));       // 0 still resident
    EXPECT_FALSE(c.access(512));    // 512 was evicted
}

TEST(Cache, AssociativityConflicts)
{
    // Direct-mapped: every same-set line evicts the previous one.
    Cache c(512, 1, 64);  // 8 sets
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(512));   // conflicts with 0
    EXPECT_FALSE(c.access(0));     // 0 was evicted
}

TEST(Cache, FullyAssociativeHoldsWorkingSet)
{
    Cache c(512, 8, 64);  // 1 set, 8 ways
    for (uint64_t i = 0; i < 8; ++i) {
        EXPECT_FALSE(c.access(i * 64));
    }
    for (uint64_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(c.access(i * 64));
    }
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(1024, 2, 64);
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    c.invalidate(0x40);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.access(0x40));  // miss again
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(1024, 2, 64);
    c.access(0);
    c.access(512);
    // Probing 0 must NOT refresh its LRU position.
    EXPECT_TRUE(c.probe(0));
    uint64_t victim = 0;
    c.access(1024, &victim);
    EXPECT_EQ(victim, 0u);  // 0 was still the LRU victim
    EXPECT_EQ(c.hits(), 0u);  // probes don't count as hits
}

TEST(Cache, InsertWithoutLookup)
{
    Cache c(1024, 2, 64);
    c.insert(0x80);
    EXPECT_TRUE(c.probe(0x80));
    EXPECT_EQ(c.misses(), 0u);  // insert is not a demand access
}

TEST(Cache, InsertEvictsLru)
{
    Cache c(512, 1, 64);
    c.insert(0);
    uint64_t victim = UINT64_MAX;
    c.insert(512, &victim);
    EXPECT_EQ(victim, 0u);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(1024, 2, 64);
    c.access(0);
    c.access(0);
    c.reset();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 22 MB / 11 ways / 64 B = 32768 sets (power of two here), use a
    // truly odd config: 3 KB, 3-way -> 16 sets.
    Cache c(3 * 1024, 3, 64);
    EXPECT_EQ(c.sets(), 16u);
    for (uint64_t i = 0; i < 100; ++i) {
        c.access(i * 64);
    }
    EXPECT_EQ(c.hits() + c.misses(), 100u);
}

TEST(Cache, RejectsNonPowerOfTwoLineSize)
{
    EXPECT_DEATH(Cache(1024, 2, 48), "power of two");
}

/** Parameterized sweep: streaming through 2x capacity always misses
 *  on revisit; working set at half capacity always hits. */
struct GeomParam {
    uint64_t size;
    int ways;
};

class CacheGeometry : public ::testing::TestWithParam<GeomParam>
{
};

TEST_P(CacheGeometry, CapacityBehaviour)
{
    const auto [size, ways] = GetParam();
    Cache c(size, ways, 64);

    // Working set = half capacity: second pass all hits.
    const uint64_t half_lines = size / 64 / 2;
    for (uint64_t i = 0; i < half_lines; ++i) {
        c.access(i * 64);
    }
    uint64_t hits_before = c.hits();
    for (uint64_t i = 0; i < half_lines; ++i) {
        c.access(i * 64);
    }
    EXPECT_EQ(c.hits() - hits_before, half_lines);

    // Working set = 2x capacity streamed twice: LRU guarantees the
    // second pass misses everything (cyclic thrash).
    c.reset();
    const uint64_t big_lines = size / 64 * 2;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t i = 0; i < big_lines; ++i) {
            c.access(i * 64);
        }
    }
    EXPECT_EQ(c.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(GeomParam{4096, 1}, GeomParam{4096, 4},
                      GeomParam{32 * 1024, 8}, GeomParam{256 * 1024, 8},
                      GeomParam{1024 * 1024, 16}));

/**
 * Reference LRU, the stamp-based layout Cache used before its keys
 * were kept in recency order: every way holds {tag, last-use stamp,
 * valid}, and a miss fills an invalid way if there is one, else the
 * way with the oldest stamp. Stamps come from one counter, so they
 * are unique and the victim is always the true LRU line. Cache must
 * agree with it on every result, victim and counter.
 */
class StampLru
{
  public:
    StampLru(uint64_t size_bytes, int ways, int line_bytes)
        : ways_(ways), lineShift_(__builtin_ctzll(line_bytes)),
          sets_(size_bytes / (static_cast<uint64_t>(ways) * line_bytes)),
          lines_(sets_ * ways)
    {
    }

    bool access(uint64_t addr, uint64_t* evicted)
    {
        if (fill(addr, evicted)) {
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    bool probe(uint64_t addr) const
    {
        const Line* base = set(addr);
        for (int w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == addr >> lineShift_) {
                return true;
            }
        }
        return false;
    }

    void insert(uint64_t addr, uint64_t* evicted) { fill(addr, evicted); }

    bool invalidate(uint64_t addr)
    {
        Line* base = set(addr);
        for (int w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == addr >> lineShift_) {
                base[w].valid = false;
                return true;
            }
        }
        return false;
    }

    void reset()
    {
        lines_.assign(lines_.size(), Line{});
        hits_ = misses_ = 0;
        clock_ = 0;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    struct Line {
        uint64_t tag = 0;
        uint64_t lru = 0;   // larger = more recent
        bool valid = false;
    };

    Line* set(uint64_t addr)
    {
        return &lines_[((addr >> lineShift_) % sets_) * ways_];
    }
    const Line* set(uint64_t addr) const
    {
        return &lines_[((addr >> lineShift_) % sets_) * ways_];
    }

    /** True if present (refreshed); otherwise fills the victim way. */
    bool fill(uint64_t addr, uint64_t* evicted)
    {
        const uint64_t tag = addr >> lineShift_;
        Line* base = set(addr);
        ++clock_;
        Line* lru_line = base;
        for (int w = 0; w < ways_; ++w) {
            Line& line = base[w];
            if (line.valid && line.tag == tag) {
                line.lru = clock_;
                return true;
            }
            if (!line.valid) {
                lru_line = &line;  // prefer invalid victims
            } else if (lru_line->valid && line.lru < lru_line->lru) {
                lru_line = &line;
            }
        }
        if (evicted != nullptr) {
            *evicted = lru_line->valid ? lru_line->tag << lineShift_
                                       : UINT64_MAX;
        }
        lru_line->valid = true;
        lru_line->tag = tag;
        lru_line->lru = clock_;
        return false;
    }

    int ways_;
    int lineShift_;
    uint64_t sets_;
    uint64_t clock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    std::vector<Line> lines_;
};

/// Written to victim slots first: a call that must not report a
/// victim leaves it in place.
constexpr uint64_t kSentinel = 0xdeadbeefull;

struct DiffParam {
    const char* name;
    uint64_t size;
    int ways;
    int lineBytes;
};

void
PrintTo(const DiffParam& g, std::ostream* os)
{
    *os << g.name;
}

class CacheVsStampLru : public ::testing::TestWithParam<DiffParam>
{
};

TEST_P(CacheVsStampLru, SeededOperationMixesAgree)
{
    const DiffParam g = GetParam();
    Cache cache(g.size, g.ways, g.lineBytes);
    StampLru ref(g.size, g.ways, g.lineBytes);
    // Lines come from at most 8 sets, three times as many as the sets
    // have ways, so sets fill, evict and refill in every geometry.
    // Addresses fall anywhere in their line, and 0 is drawn often.
    const uint64_t hot_sets = std::min<uint64_t>(cache.sets(), 8);
    const uint64_t depth = 3 * static_cast<uint64_t>(g.ways);
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        Rng rng(seed);
        cache.reset();
        ref.reset();
        for (int i = 0; i < 40000; ++i) {
            const uint64_t line = rng.nextBounded(hot_sets) +
                                  cache.sets() * rng.nextBounded(depth);
            const uint64_t addr =
                rng.nextBool(0.05)
                    ? 0
                    : line * g.lineBytes + rng.nextBounded(g.lineBytes);
            const uint64_t op = rng.nextBounded(100);
            uint64_t got = kSentinel;
            uint64_t want = kSentinel;
            if (op < 55) {
                const bool with_victim = rng.nextBool(0.8);
                ASSERT_EQ(cache.access(addr, with_victim ? &got : nullptr),
                          ref.access(addr, with_victim ? &want : nullptr))
                    << "access " << addr << " at op " << i;
            } else if (op < 75) {
                cache.insert(addr, &got);
                ref.insert(addr, &want);
            } else if (op < 87) {
                ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                    << "invalidate " << addr << " at op " << i;
            } else if (op < 99) {
                ASSERT_EQ(cache.probe(addr), ref.probe(addr))
                    << "probe " << addr << " at op " << i;
            } else if (rng.nextBool(0.05)) {
                cache.reset();
                ref.reset();
            }
            ASSERT_EQ(got, want) << "victim of " << addr << " at op " << i;
            ASSERT_EQ(cache.hits(), ref.hits());
            ASSERT_EQ(cache.misses(), ref.misses());
        }
    }
}

TEST_P(CacheVsStampLru, SequentialSweepsAgree)
{
    // Cyclic sweeps over 0.5x .. 2x capacity: the mix above rarely
    // fills a large cache, this walks every set through full-set LRU
    // eviction.
    const DiffParam g = GetParam();
    Cache cache(g.size, g.ways, g.lineBytes);
    StampLru ref(g.size, g.ways, g.lineBytes);
    const uint64_t lines = cache.sets() * static_cast<uint64_t>(g.ways);
    for (uint64_t span : {lines / 2 + 1, lines, lines + 1, 2 * lines}) {
        for (int pass = 0; pass < 2; ++pass) {
            for (uint64_t l = 0; l < span; ++l) {
                const uint64_t addr = l * static_cast<uint64_t>(g.lineBytes);
                uint64_t got = kSentinel, want = kSentinel;
                ASSERT_EQ(cache.access(addr, &got), ref.access(addr, &want));
                ASSERT_EQ(got, want);
            }
        }
        ASSERT_EQ(cache.hits(), ref.hits());
        ASSERT_EQ(cache.misses(), ref.misses());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsStampLru,
    ::testing::Values(
        DiffParam{"OneSet8Way", 8 * 64, 8, 64},
        DiffParam{"DirectMapped", 16 * 64, 1, 64},
        DiffParam{"EightSets2Way", 8 * 2 * 64, 2, 64},
        // Three sets: the modulo set index, not the mask.
        DiffParam{"ThreeSets5Way", 3 * 5 * 64, 5, 64},
        DiffParam{"BroadwellL3", broadwellConfig().l3.sizeBytes,
                  broadwellConfig().l3.ways, 64},
        DiffParam{"CascadeLakeL3", cascadeLakeConfig().l3.sizeBytes,
                  cascadeLakeConfig().l3.ways, 64}),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
        return std::string(info.param.name);
    });

}  // namespace
}  // namespace recstack
