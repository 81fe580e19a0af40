#include "uarch/branch_predictor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace recstack {

GsharePredictor::GsharePredictor(int table_bits, int history_bits)
    : tableBits_(table_bits), historyBits_(history_bits)
{
    RECSTACK_CHECK(table_bits > 0 && table_bits < 30, "bad table bits");
    RECSTACK_CHECK(history_bits >= 0 && history_bits <= 62,
                   "bad history bits");
    historyMask_ = (1ull << historyBits_) - 1;
    table_.assign(1ull << tableBits_, 2);  // weakly taken
}

bool
GsharePredictor::predict(uint64_t pc) const
{
    return table_[index(pc)] >= 2;
}

void
GsharePredictor::reset()
{
    std::fill(table_.begin(), table_.end(), static_cast<uint8_t>(2));
    history_ = 0;
}

BranchSimResult
simulateBranchStream(GsharePredictor& bp, const BranchStream& stream,
                     uint64_t pc_base, Rng& rng, uint64_t max_sim,
                     bool loop_predictor)
{
    BranchSimResult result;
    if (stream.count == 0) {
        return result;
    }
    const uint64_t n = std::min(stream.count, max_sim);
    result.simulated = n;

    // Deterministic component: a loop that is taken (period-1)-of-
    // period times, matching the stream's long-run bias.
    const double p = std::clamp(stream.takenProbability, 0.0, 1.0);
    uint64_t period = 0;
    if (p < 1.0 && p >= 0.5) {
        period = static_cast<uint64_t>(std::lround(1.0 / (1.0 - p)));
    } else if (p < 0.5 && p > 0.0) {
        period = static_cast<uint64_t>(std::lround(1.0 / p));
    }

    // A branch group is a handful of static branch sites.
    constexpr uint64_t kSites = 4;

    // phase is i % period and site is i % kSites, kept as counters.
    const bool mostly_taken = p >= 0.5;
    uint64_t phase = 0;
    uint64_t site = 0;
    for (uint64_t i = 0; i < n; ++i) {
        bool taken;
        bool patterned = false;
        if (rng.nextBool(stream.randomness)) {
            taken = rng.nextBool(p);
        } else {
            patterned = true;
            if (period == 0) {
                taken = mostly_taken;
            } else if (mostly_taken) {
                taken = phase != 0;
            } else {
                taken = phase == 0;
            }
        }
        const bool gshare_wrong =
            bp.predictAndUpdate(pc_base + 16 * site, taken);
        // The loop side-predictor captures the deterministic periodic
        // component once it has seen a full period.
        const bool covered =
            loop_predictor && patterned && i >= period;
        if (gshare_wrong && !covered) {
            ++result.mispredicts;
        }
        if (++phase == period) {
            phase = 0;
        }
        if (++site == kSites) {
            site = 0;
        }
    }
    return result;
}

}  // namespace recstack
