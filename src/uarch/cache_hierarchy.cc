#include "uarch/cache_hierarchy.h"

namespace recstack {

CacheHierarchy::CacheHierarchy(const CpuConfig& cfg)
    : l1_(cfg.l1d.sizeBytes, cfg.l1d.ways),
      l2_(cfg.l2.sizeBytes, cfg.l2.ways),
      l3_(cfg.l3.sizeBytes, cfg.l3.ways),
      policy_(cfg.l3Policy)
{
}

HitLevel
CacheHierarchy::access(uint64_t addr, bool is_write)
{
    // Write-allocate, writeback: writes behave like reads for tag
    // movement purposes.
    (void)is_write;
    return accessLine(addr, l1_.setIndex(addr), l2_.setIndex(addr),
                      l3_.setIndex(addr));
}

void
CacheHierarchy::accessRun(uint64_t addr, uint64_t lines,
                          LevelCounts& counts)
{
    uint64_t set1 = l1_.setIndex(addr);
    uint64_t set2 = l2_.setIndex(addr);
    uint64_t set3 = l3_.setIndex(addr);
    for (uint64_t l = 0; l < lines; ++l) {
        ++counts[static_cast<size_t>(
            accessLine(addr + l * 64, set1, set2, set3))];
        set1 = l1_.nextSet(set1);
        set2 = l2_.nextSet(set2);
        set3 = l3_.nextSet(set3);
    }
}

HitLevel
CacheHierarchy::accessLine(uint64_t addr, uint64_t set1, uint64_t set2,
                           uint64_t set3)
{
    if (l1_.access(addr, set1, nullptr)) {
        return HitLevel::kL1;
    }
    uint64_t l2_victim = UINT64_MAX;
    if (l2_.access(addr, set2, &l2_victim)) {
        return HitLevel::kL2;
    }

    if (policy_ == InclusionPolicy::kInclusive) {
        uint64_t l3_victim = UINT64_MAX;
        const bool l3_hit = l3_.access(addr, set3, &l3_victim);
        if (!l3_hit && l3_victim != UINT64_MAX) {
            // Inclusive: an L3 eviction invalidates inner copies.
            l1_.invalidate(l3_victim);
            l2_.invalidate(l3_victim);
        }
        return l3_hit ? HitLevel::kL3 : HitLevel::kDram;
    }

    // Exclusive: L3 holds only L2 victims. The L2 allocate above
    // displaced l2_victim, which now moves into L3. On L3 hit the
    // line moves up to L2 and leaves L3.
    if (l2_victim != UINT64_MAX) {
        l3_.insert(l2_victim);
    }
    return l3_.invalidate(addr) ? HitLevel::kL3 : HitLevel::kDram;
}

void
CacheHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    l3_.reset();
}

}  // namespace recstack
