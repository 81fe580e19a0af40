#ifndef RECSTACK_UARCH_CPU_MODEL_H_
#define RECSTACK_UARCH_CPU_MODEL_H_

/**
 * @file
 * CpuModel: the trace-driven CPU microarchitecture simulator.
 *
 * One CpuModel instance holds the persistent microarchitectural state
 * of a core (data-cache hierarchy, L1I, branch predictor) and consumes
 * KernelProfiles operator by operator, producing PMU-style counters
 * and a TopDown-consistent cycle breakdown per kernel.
 *
 * Memory and branch streams are simulated by sampling: up to a few
 * thousand representative accesses/branches are pushed through the
 * real structural models and the observed rates are scaled to the
 * stream's full population. This keeps full model-batch-platform
 * sweeps tractable while preserving set-conflict, reuse and learning
 * behaviour.
 */

#include <string>
#include <string_view>
#include <unordered_map>

#include "common/rng.h"
#include "platform/platform.h"
#include "profile/kernel_profile.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/counters.h"
#include "uarch/decoder.h"
#include "uarch/dram.h"
#include "uarch/exec_ports.h"

namespace recstack {

/** Platform-lowered micro-op mix of one kernel (Fig. 9 / Fig. 11). */
struct UopMix {
    uint64_t fma = 0;
    uint64_t vec = 0;
    uint64_t scalar = 0;
    uint64_t branch = 0;
    uint64_t load = 0;
    uint64_t store = 0;
    uint64_t vecMem = 0;   ///< subset of load+store that is vector-width

    uint64_t total() const
    {
        return fma + vec + scalar + branch + load + store;
    }
    uint64_t avx() const { return fma + vec + vecMem; }
};

/** Trace-driven single-core simulator. */
class CpuModel
{
  public:
    explicit CpuModel(const CpuConfig& cfg, uint64_t seed = 0x5eedcafe);

    /** Simulate one operator execution; returns its counters. */
    CpuCounters simulateKernel(const KernelProfile& kp);

    /** Lower a profile to this platform's micro-op mix (no state). */
    UopMix lowerUops(const KernelProfile& kp) const;

    /** Drop all microarchitectural state (cold caches/predictor). */
    void reset();

    const CpuConfig& config() const { return cfg_; }
    const DramModel& dram() const { return dram_; }

    /// Sampling caps (public so tests can reason about exactness).
    static constexpr uint64_t kMaxStreamSample = 4096;
    static constexpr uint64_t kMaxBranchSample = 2048;

  private:
    struct StreamOut {
        uint64_t l1 = 0, l2 = 0, l3 = 0, dram = 0;
        double stallL2 = 0.0, stallL3 = 0.0, stallDram = 0.0;
        uint64_t dramBytes = 0;
        uint64_t loadUops = 0, storeUops = 0, vecMemUops = 0;
    };

    /** Base address for a named data/code region (stable per name). */
    uint64_t regionBase(const std::string& name, uint64_t footprint);

    /**
     * The region name @c prefix + @c name, plus ":" + @c index when
     * @c index >= 0. Built in one buffer reused by every call, so the
     * per-kernel region lookups allocate nothing once it has grown;
     * the reference is valid until the next call.
     */
    const std::string& regionKey(std::string_view prefix,
                                 std::string_view name, int index = -1);

    StreamOut simulateStream(const MemStream& s);

    /**
     * Walk @c fraction of the code region named @c region_key
     * through the L1I, starting at a deterministic rotating offset.
     */
    void walkCode(const std::string& region_key, uint64_t bytes,
                  double fraction, uint64_t* accesses, uint64_t* misses);

    CpuConfig cfg_;
    CacheHierarchy dcache_;
    Cache icache_;
    GsharePredictor bp_;
    DecoderModel decoder_;
    PortScheduler ports_;
    DramModel dram_;
    Rng rng_;

    std::unordered_map<std::string, std::pair<uint64_t, uint64_t>>
        regions_;              ///< name -> {base, size}
    uint64_t nextBase_ = 0x100000000ull;
    std::string keyBuf_;       ///< regionKey()'s reused buffer
    std::string lastOpType_;   ///< dispatch-path warmth tracking
};

}  // namespace recstack

#endif  // RECSTACK_UARCH_CPU_MODEL_H_
