#ifndef RECSTACK_UARCH_CACHE_HIERARCHY_H_
#define RECSTACK_UARCH_CACHE_HIERARCHY_H_

/**
 * @file
 * Three-level data-cache hierarchy with configurable L3 participation
 * policy: inclusive (Broadwell: L3 evictions back-invalidate inner
 * levels) or exclusive (Cascade Lake: L3 is a victim cache filled by
 * L2 evictions), matching Table II's "Cache Inclusion Policy" row.
 */

#include <array>

#include "platform/platform.h"
#include "uarch/cache.h"

namespace recstack {

/** Level at which a demand access was satisfied. */
enum class HitLevel { kL1, kL2, kL3, kDram };

/** L1D + L2 + L3 + policy glue. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const CpuConfig& cfg);

    /** Line counts per serving level, indexed by HitLevel. */
    using LevelCounts = std::array<uint64_t, 4>;

    /** Access one line-sized location; returns the serving level. */
    HitLevel access(uint64_t addr, bool is_write);

    /**
     * Access @c lines consecutive lines, the first one holding
     * @c addr, and add each line's serving level to @c counts. The
     * access sequence is exactly that of calling access() on
     * @c addr, @c addr + 64, ...; each level's set index is stepped
     * from line to line instead of recomputed.
     */
    void accessRun(uint64_t addr, uint64_t lines, LevelCounts& counts);

    void reset();

    const Cache& l1() const { return l1_; }
    const Cache& l2() const { return l2_; }
    const Cache& l3() const { return l3_; }

  private:
    /** access() with each level's set index of @c addr known. */
    HitLevel accessLine(uint64_t addr, uint64_t set1, uint64_t set2,
                        uint64_t set3);

    Cache l1_;
    Cache l2_;
    Cache l3_;
    InclusionPolicy policy_;
};

}  // namespace recstack

#endif  // RECSTACK_UARCH_CACHE_HIERARCHY_H_
