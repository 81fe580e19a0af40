#include "uarch/cache.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace recstack {
namespace {

int
log2exact(uint64_t v)
{
    int shift = 0;
    while ((1ull << shift) < v) {
        ++shift;
    }
    RECSTACK_CHECK((1ull << shift) == v, "value " << v
                   << " is not a power of two");
    return shift;
}

}  // namespace

Cache::Cache(uint64_t size_bytes, int ways, int line_bytes)
    : sizeBytes_(size_bytes), ways_(ways), lineBytes_(line_bytes)
{
    RECSTACK_CHECK(ways_ > 0 && lineBytes_ > 0, "bad cache geometry");
    lineShift_ = log2exact(static_cast<uint64_t>(lineBytes_));
    sets_ = sizeBytes_ /
            (static_cast<uint64_t>(ways_) *
             static_cast<uint64_t>(lineBytes_));
    RECSTACK_CHECK(sets_ > 0, "cache smaller than one set");
    // Non-power-of-two set counts are allowed; their index is taken
    // modulo sets_, every other one with a mask.
    setsArePow2_ = (sets_ & (sets_ - 1)) == 0;
    keys_.assign(sets_ * static_cast<uint64_t>(ways_), 0);
}

bool
Cache::touch(uint64_t* set, uint64_t key, uint64_t* evicted)
{
    // Rotate the key in at the front: each way takes the key before
    // it until the key displaced is the key itself (a hit), an empty
    // way, or the LRU line pushed off the tail of a full set.
    uint64_t displaced = key;
    for (int w = 0; w < ways_; ++w) {
        std::swap(displaced, set[w]);
        if (displaced == key) {
            return true;
        }
        if (displaced == 0) {
            break;
        }
    }
    if (evicted != nullptr) {
        *evicted = displaced != 0 ? (displaced - 1) << lineShift_
                                  : UINT64_MAX;
    }
    return false;
}

bool
Cache::access(uint64_t addr, uint64_t set, uint64_t* evicted)
{
    if (touch(&keys_[set * static_cast<uint64_t>(ways_)], keyOf(addr),
              evicted)) {
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t key = keyOf(addr);
    const uint64_t* set =
        &keys_[setIndex(addr) * static_cast<uint64_t>(ways_)];
    const int w = find(set, key);
    return w < ways_ && set[w] == key;
}

void
Cache::insert(uint64_t addr, uint64_t* evicted)
{
    touch(&keys_[setIndex(addr) * static_cast<uint64_t>(ways_)],
          keyOf(addr), evicted);
}

bool
Cache::invalidate(uint64_t addr)
{
    const uint64_t key = keyOf(addr);
    uint64_t* set = &keys_[setIndex(addr) * static_cast<uint64_t>(ways_)];
    int w = find(set, key);
    if (w == ways_ || set[w] != key) {
        return false;
    }
    // Close the gap so empty ways stay at the tail.
    for (; w + 1 < ways_ && set[w + 1] != 0; ++w) {
        set[w] = set[w + 1];
    }
    set[w] = 0;
    return true;
}

void
Cache::reset()
{
    std::fill(keys_.begin(), keys_.end(), 0);
    hits_ = misses_ = 0;
}

}  // namespace recstack
