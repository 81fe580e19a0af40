#include "uarch/cpu_model.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace recstack {
namespace {

/// Fraction of the nominal miss latency a demand stream actually
/// exposes, by pattern: hardware prefetchers hide most sequential
/// latency, some strided latency, and none of the random-gather
/// latency (the paper's irregular-embedding-access regime).
double
patternExposure(AccessPattern pattern, const CpuConfig& cfg)
{
    switch (pattern) {
      case AccessPattern::kSequential: return cfg.seqMissExposure;
      case AccessPattern::kStrided: return cfg.stridedMissExposure;
      case AccessPattern::kRandom: return 1.0;
    }
    return 1.0;
}

/// L1I miss service latency exposure: fetch bubbles overlap decode
/// only partially.
constexpr double kIcacheExposure = 0.7;

/// Shared framework-dispatch code region and its walk fractions.
constexpr uint64_t kSharedDispatchBytes = 16 * 1024;
constexpr double kSharedWalkOnSwitch = 0.30;
constexpr double kSharedWalkOnRepeat = 0.05;

/// Per-operator-type dispatch glue (type dispatch, shape checks,
/// allocator specialization): walked fully on an op-type switch,
/// mostly resident when the same type repeats back-to-back. This is
/// what separates NCF/DIN (type-alternating graphs) from RM1/RM2
/// (long runs of identical SparseLengthsSum ops).
constexpr uint64_t kTypeGlueBytes = 6 * 1024;
constexpr double kGlueWalkOnSwitch = 1.0;
constexpr double kGlueWalkOnRepeat = 0.10;

/// A kernel whose code footprint exceeds this fraction of the L1I
/// self-thrashes across its own iterations.
constexpr double kIcacheResidencyFraction = 0.8;

/// Average x86 instruction bytes per fused uop (footprint lowering).
constexpr double kBytesPerUop = 4.0;

}  // namespace

CpuModel::CpuModel(const CpuConfig& cfg, uint64_t seed)
    : cfg_(cfg), dcache_(cfg),
      icache_(cfg.l1i.sizeBytes, cfg.l1i.ways),
      bp_(cfg.bpTableBits, cfg.bpHistoryBits),
      decoder_(cfg), ports_(cfg),
      dram_(cfg.dramGBs, cfg.dramLatencyCycles, cfg.freqGHz),
      rng_(seed)
{
}

void
CpuModel::reset()
{
    dcache_.reset();
    icache_.reset();
    bp_.reset();
    lastOpType_.clear();
    // Region assignments persist: addresses are identities.
}

uint64_t
CpuModel::regionBase(const std::string& name, uint64_t footprint)
{
    auto it = regions_.find(name);
    if (it != regions_.end()) {
        if (it->second.second >= footprint) {
            return it->second.first;
        }
        // Region grew (e.g. batch-dependent activation): reallocate.
        regions_.erase(it);
    }
    const uint64_t base = nextBase_;
    const uint64_t aligned = (footprint + 4095) & ~4095ull;
    nextBase_ += aligned + 4096;  // guard page
    regions_[name] = {base, footprint};
    return base;
}

const std::string&
CpuModel::regionKey(std::string_view prefix, std::string_view name,
                   int index)
{
    keyBuf_.assign(prefix);
    keyBuf_.append(name);
    if (index >= 0) {
        char digits[16];
        const auto end =
            std::to_chars(digits, digits + sizeof(digits), index).ptr;
        keyBuf_.push_back(':');
        keyBuf_.append(digits, end);
    }
    return keyBuf_;
}

UopMix
CpuModel::lowerUops(const KernelProfile& kp) const
{
    const uint64_t lanes = static_cast<uint64_t>(cfg_.simdLanes32());
    const uint64_t simd_bytes = lanes * 4;

    UopMix mix;
    mix.fma = (kp.fmaFlops + 2 * lanes - 1) / (2 * lanes);
    mix.vec = (kp.vecElemOps + lanes - 1) / lanes;
    // Loop bookkeeping of vectorized loops shrinks with lane width
    // (the reference op counts are calibrated at 8 lanes / AVX-2).
    const double simd_scale = 8.0 / static_cast<double>(lanes);
    mix.scalar = kp.scalarOps + kp.dispatchOps +
                 static_cast<uint64_t>(
                     static_cast<double>(kp.simdScalableOps) * simd_scale);
    mix.branch = 0;
    for (const auto& b : kp.branches) {
        mix.branch += b.scalesWithSimd
                          ? static_cast<uint64_t>(
                                static_cast<double>(b.count) * simd_scale)
                          : b.count;
    }

    // Register-blocked operand reloads: vector loads from L1-resident
    // tiles (port pressure + retired AVX uops, no cache traffic).
    const uint64_t reload = kp.reloadLoadElems / lanes;
    mix.load += reload;
    mix.vecMem += reload;

    for (const auto& s : kp.streams) {
        uint64_t per_chunk;
        bool is_vector;
        if (s.chunkBytes >= 32) {
            per_chunk = (s.chunkBytes + simd_bytes - 1) / simd_bytes;
            is_vector = true;
        } else {
            per_chunk = 1;
            is_vector = false;
        }
        const uint64_t uops = s.accesses * per_chunk;
        if (s.isWrite) {
            mix.store += uops;
        } else {
            mix.load += uops;
        }
        if (is_vector) {
            mix.vecMem += uops;
        }
    }
    return mix;
}

CpuModel::StreamOut
CpuModel::simulateStream(const MemStream& s)
{
    StreamOut out;
    if (s.accesses == 0 || s.footprintBytes == 0) {
        return out;
    }

    const uint64_t base = regionBase(s.region, s.footprintBytes);
    const uint64_t sim = std::min(s.accesses, kMaxStreamSample);
    const double scale = static_cast<double>(s.accesses) /
                         static_cast<double>(sim);
    const uint64_t lines_per_chunk = (s.chunkBytes + 63) / 64;
    const uint64_t chunks =
        std::max<uint64_t>(1, s.footprintBytes / std::max<uint64_t>(
                                  1, s.chunkBytes));

    // Chunk selection state.
    uint64_t seq_start = 0;
    if (s.pattern != AccessPattern::kRandom) {
        seq_start = rng_.nextBounded(chunks);
    }
    // One sampler for every random stream: the sampler itself falls
    // back to the identical uniform nextBounded draw at exponent 0.
    const ZipfSampler chunk_zipf(
        chunks,
        s.pattern == AccessPattern::kRandom ? s.zipfExponent : 0.0);

    CacheHierarchy::LevelCounts raw{};
    for (uint64_t i = 0; i < sim; ++i) {
        uint64_t chunk_idx;
        switch (s.pattern) {
          case AccessPattern::kSequential:
            chunk_idx = (seq_start + i) % chunks;
            break;
          case AccessPattern::kStrided: {
            const uint64_t stride_chunks =
                std::max<uint64_t>(1, s.strideBytes /
                                       std::max<uint64_t>(1, s.chunkBytes));
            chunk_idx = (seq_start + i * stride_chunks) % chunks;
            break;
          }
          case AccessPattern::kRandom:
          default:
            chunk_idx = chunk_zipf.sample(rng_);
            break;
        }
        dcache_.accessRun(base + chunk_idx * s.chunkBytes, lines_per_chunk,
                          raw);
    }

    auto scaled = [scale](uint64_t v) {
        return static_cast<uint64_t>(std::llround(
            static_cast<double>(v) * scale));
    };
    out.l1 = scaled(raw[static_cast<size_t>(HitLevel::kL1)]);
    out.l2 = scaled(raw[static_cast<size_t>(HitLevel::kL2)]);
    out.l3 = scaled(raw[static_cast<size_t>(HitLevel::kL3)]);
    out.dram = scaled(raw[static_cast<size_t>(HitLevel::kDram)]);
    out.dramBytes = out.dram * 64;

    const double exposure = patternExposure(s.pattern, cfg_);
    const double mlp = std::max(1.0, s.mlp);
    out.stallL2 = static_cast<double>(out.l2) *
                  cfg_.l2.latencyCycles * exposure / mlp;
    out.stallL3 = static_cast<double>(out.l3) *
                  cfg_.l3.latencyCycles * exposure / mlp;
    out.stallDram = static_cast<double>(out.dram) *
                    cfg_.dramLatencyCycles * exposure / mlp;
    return out;
}

void
CpuModel::walkCode(const std::string& region_key, uint64_t bytes,
                   double fraction, uint64_t* accesses, uint64_t* misses)
{
    if (bytes == 0 || fraction <= 0.0) {
        return;
    }
    const uint64_t base = regionBase(region_key, bytes);
    const uint64_t lines = (bytes + 63) / 64;
    const uint64_t walk =
        std::max<uint64_t>(1, static_cast<uint64_t>(
            static_cast<double>(lines) * std::min(1.0, fraction)));
    const uint64_t start = rng_.nextBounded(lines);
    for (uint64_t i = 0; i < walk; ++i) {
        const uint64_t line = (start + i) % lines;
        ++*accesses;
        if (!icache_.access(base + line * 64)) {
            ++*misses;
        }
    }
}

CpuCounters
CpuModel::simulateKernel(const KernelProfile& kp)
{
    CpuCounters c;

    // ---- 1. Lower work to this platform's micro-ops. ----
    const UopMix mix = lowerUops(kp);
    c.uopsRetired = mix.total();
    c.avxUopsRetired = mix.avx();
    c.scalarUopsRetired = mix.scalar;
    c.branches = mix.branch;

    // ---- 2. Data-side memory simulation. ----
    double stall_l2 = 0.0, stall_l3 = 0.0, stall_dram_lat = 0.0;
    for (const auto& s : kp.streams) {
        const StreamOut so = simulateStream(s);
        c.l1dAccesses += so.l1 + so.l2 + so.l3 + so.dram;
        c.l1dHits += so.l1;
        c.l2Hits += so.l2;
        c.l3Hits += so.l3;
        c.dramAccesses += so.dram;
        c.dramBytes += so.dramBytes;
        stall_l2 += so.stallL2;
        stall_l3 += so.stallL3;
        stall_dram_lat += so.stallDram;
    }

    // ---- 3. Branch prediction. ----
    double mispredicts = 0.0;
    int stream_idx = 0;
    for (const auto& b : kp.branches) {
        if (b.count == 0) {
            continue;
        }
        const uint64_t pc_base = regionBase(
            regionKey("branch:", kp.opName, stream_idx++), 256);
        const BranchSimResult br =
            simulateBranchStream(bp_, b, pc_base, rng_, kMaxBranchSample,
                                 cfg_.bpLoopPredictor);
        const double simd_scale =
            8.0 / static_cast<double>(cfg_.simdLanes32());
        const double dynamic_count =
            b.scalesWithSimd
                ? static_cast<double>(b.count) * simd_scale
                : static_cast<double>(b.count);
        mispredicts += br.mispredictRate() * dynamic_count;
    }
    c.branchMispredicts = static_cast<uint64_t>(std::llround(mispredicts));

    // ---- 4. Instruction side: kernel region + dispatch paths. ----
    const bool type_switch = kp.opType != lastOpType_;
    lastOpType_ = kp.opType;
    uint64_t iacc = 0, imiss = 0;
    if (kp.dispatchCodeBytes > 0) {
        walkCode(regionKey("code:dispatch:", "shared"),
                 std::max(kp.dispatchCodeBytes, kSharedDispatchBytes),
                 type_switch ? kSharedWalkOnSwitch : kSharedWalkOnRepeat,
                 &iacc, &imiss);
        walkCode(regionKey("code:dispatch:", kp.opType), kTypeGlueBytes,
                 type_switch ? kGlueWalkOnSwitch : kGlueWalkOnRepeat,
                 &iacc, &imiss);
    }
    double extra_misses = 0.0;
    if (kp.codeFootprintBytes > 0 && !kp.codeRegion.empty()) {
        walkCode(regionKey("code:", kp.codeRegion), kp.codeFootprintBytes,
                 1.0, &iacc, &imiss);
        // Iterations beyond the first re-fetch the loop body; it only
        // misses if the body does not fit the L1I.
        const double resident_limit =
            kIcacheResidencyFraction *
            static_cast<double>(cfg_.l1i.sizeBytes);
        if (static_cast<double>(kp.codeFootprintBytes) > resident_limit &&
            kp.codeIterations > 1) {
            const double miss_rate =
                1.0 - resident_limit /
                          static_cast<double>(kp.codeFootprintBytes);
            const double lines =
                static_cast<double>((kp.codeFootprintBytes + 63) / 64);
            extra_misses = miss_rate * lines *
                           static_cast<double>(kp.codeIterations - 1);
        }
    }
    c.icacheAccesses = iacc;
    c.icacheMisses =
        imiss + static_cast<uint64_t>(std::llround(extra_misses));

    // ---- 5. Frontend decoder. ----
    DecoderInput din;
    din.kernelUops = c.uopsRetired > kp.dispatchOps
                         ? c.uopsRetired - kp.dispatchOps
                         : 0;
    din.kernelFootprintUops = static_cast<uint64_t>(
        static_cast<double>(kp.codeFootprintBytes) / kBytesPerUop);
    din.dispatchUops = kp.dispatchOps;
    din.flushes = c.branchMispredicts;
    din.dispatchWarm = !type_switch;
    const DecoderResult dr = decoder_.evaluate(din);
    c.uopsFromDsb = dr.uopsFromDsb;
    c.uopsFromMite = dr.uopsFromMite;
    c.dsbSwitches = dr.switches;

    // ---- 6. Execution ports. ----
    PortInput pin;
    pin.fmaUops = mix.fma;
    pin.vecUops = mix.vec;
    pin.scalarUops = mix.scalar;
    pin.branchUops = mix.branch;
    pin.loadUops = mix.load;
    pin.storeUops = mix.store;
    const PortResult pr = ports_.schedule(pin);

    // ---- 7. Cycle assembly (TopDown-conserving). ----
    const double width = static_cast<double>(cfg_.pipelineWidth);
    c.retireCycles = static_cast<double>(c.uopsRetired) / width;
    c.feLatencyCycles = static_cast<double>(c.icacheMisses) *
                        cfg_.l2.latencyCycles * kIcacheExposure;
    c.feBandwidthDsbCycles = dr.dsbLimitedCycles;
    c.feBandwidthMiteCycles = dr.miteLimitedCycles;
    c.badSpecCycles = static_cast<double>(c.branchMispredicts) *
                      cfg_.mispredictPenalty;
    c.beCoreCycles = std::max(0.0, pr.computeCycles - c.retireCycles);
    c.beMemL2Cycles = stall_l2;
    c.beMemL3Cycles = stall_l3;

    // DRAM: latency-or-bandwidth, whichever dominates.
    const double bw_cycles = dram_.bytesToCycles(c.dramBytes);
    if (bw_cycles > stall_dram_lat) {
        c.beMemDramLatCycles = stall_dram_lat;
        c.beMemDramBwCycles = bw_cycles - stall_dram_lat;
    } else {
        c.beMemDramLatCycles = stall_dram_lat;
        c.beMemDramBwCycles = 0.0;
    }

    c.cycles = c.retireCycles + c.feCycles() + c.badSpecCycles +
               c.beCoreCycles + c.beMemCycles();

    // Intel congestion criterion: the off-core read queue is occupied
    // beyond 70% of its depth. Average outstanding requests follow
    // from Little's law: arrivals/cycle x service latency.
    if (c.cycles > 0.0) {
        const double inflight =
            static_cast<double>(c.dramAccesses) *
            static_cast<double>(cfg_.dramLatencyCycles) / c.cycles;
        const double occupancy =
            inflight / static_cast<double>(cfg_.offcoreQueueDepth);
        if (occupancy > DramModel::kCongestionThreshold) {
            c.dramCongestedCycles = c.cycles * std::min(1.0, occupancy);
        }
    }

    // ---- 8. Functional-unit usage distribution. ----
    PortScheduler::busyDistribution(pr, c.cycles, c.portsBusyAtLeast);
    return c;
}

}  // namespace recstack
