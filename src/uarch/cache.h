#ifndef RECSTACK_UARCH_CACHE_H_
#define RECSTACK_UARCH_CACHE_H_

/**
 * @file
 * Set-associative cache with true-LRU replacement. Used for L1D, L2,
 * L3 and L1I in the microarchitecture simulator. Tag-only (no data):
 * the simulator cares about hit/miss behaviour, not contents.
 *
 * Each set is a row of line keys kept in recency order, most recent
 * first. A key is the line number plus one, so 0 marks an empty way,
 * and empty ways only ever sit at the tail of a set. A hit rotates
 * its key to the front; a fill shifts the set down one way and drops
 * the tail key, which is the LRU line when the set is full and an
 * empty way otherwise. This is exact LRU in 8 bytes per line.
 */

#include <cstdint>
#include <vector>

namespace recstack {

/** Tag-only set-associative LRU cache. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways       associativity
     * @param line_bytes line size (64 everywhere in this project)
     */
    Cache(uint64_t size_bytes, int ways, int line_bytes = 64);

    /**
     * Access the line containing @c addr.
     * @return true on hit. On miss the line is filled (allocate), and
     *         if a victim was evicted its address is stored in
     *         @c evicted (used for inclusive back-invalidation).
     */
    bool access(uint64_t addr, uint64_t* evicted = nullptr)
    {
        return access(addr, setIndex(addr), evicted);
    }

    /**
     * access() with the set index of @c addr already known, for walks
     * that step it with nextSet() instead of recomputing it.
     */
    bool access(uint64_t addr, uint64_t set, uint64_t* evicted);

    /** True if the line is present (no LRU update, no fill). */
    bool probe(uint64_t addr) const;

    /** Insert without lookup (exclusive-hierarchy victim fill). */
    void insert(uint64_t addr, uint64_t* evicted = nullptr);

    /**
     * Remove the line if present (back-invalidation).
     * @return true if the line was present.
     */
    bool invalidate(uint64_t addr);

    /** Drop all contents. */
    void reset();

    /** Set holding the line that contains @c addr. */
    uint64_t setIndex(uint64_t addr) const
    {
        const uint64_t line = addr >> lineShift_;
        return setsArePow2_ ? (line & (sets_ - 1)) : (line % sets_);
    }

    /** Set of the line after one in @c set: consecutive lines map to
     *  consecutive sets. */
    uint64_t nextSet(uint64_t set) const
    {
        return set + 1 == sets_ ? 0 : set + 1;
    }

    uint64_t sizeBytes() const { return sizeBytes_; }
    int ways() const { return ways_; }
    int lineBytes() const { return lineBytes_; }
    uint64_t sets() const { return sets_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    /** Line number + 1; 0 is the empty way. With lines of at least 2
     *  bytes the line number is below UINT64_MAX, so this never wraps. */
    uint64_t keyOf(uint64_t addr) const { return (addr >> lineShift_) + 1; }

    /**
     * Position of @c key in @c set, else of its first empty way, else
     * ways_ (the set is full and does not hold it).
     */
    int find(const uint64_t* set, uint64_t key) const
    {
        int w = 0;
        while (w < ways_ && set[w] != key && set[w] != 0) {
            ++w;
        }
        return w;
    }

    /**
     * Make @c key the most recent line of @c set. Returns true if it
     * was present; otherwise it is filled and, if @c evicted is
     * given, the address of the line it displaced (UINT64_MAX for an
     * empty way) is stored there.
     */
    bool touch(uint64_t* set, uint64_t key, uint64_t* evicted);

    uint64_t sizeBytes_;
    int ways_;
    int lineBytes_;
    int lineShift_;
    uint64_t sets_;
    bool setsArePow2_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    std::vector<uint64_t> keys_;   // sets_ * ways_, set-major, MRU first
};

}  // namespace recstack

#endif  // RECSTACK_UARCH_CACHE_H_
