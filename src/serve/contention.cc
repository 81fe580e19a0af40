#include "serve/contention.h"

#include "common/logging.h"
#include "uarch/multicore.h"

namespace recstack {

std::vector<double>
contentionSlowdowns(const RunResult& single, const Platform& platform,
                    int num_workers)
{
    RECSTACK_CHECK(num_workers >= 1, "need at least one worker");
    std::vector<double> factors(static_cast<size_t>(num_workers), 1.0);
    if (platform.kind != PlatformKind::kCpu ||
        single.counters.cycles <= 0.0) {
        return factors;
    }
    const std::vector<ScalingPoint> points = estimateMulticoreScaling(
        single.counters, platform.cpu, num_workers);
    // Normalize by the 1-core point: the model's cycle components need
    // not sum exactly to the measured cycles, and a 1-worker node must
    // price service at exactly the characterization-grid latency.
    const double base = points.front().perEngineSlowdown;
    for (int k = 1; k <= num_workers; ++k) {
        factors[static_cast<size_t>(k - 1)] =
            points[static_cast<size_t>(k - 1)].perEngineSlowdown / base;
    }
    return factors;
}

CpuBatchPrice::CpuBatchPrice(QueryScheduler* scheduler, ModelId model,
                             size_t platform_idx, int num_workers,
                             int64_t max_batch, bool model_contention,
                             double remote_seconds_per_sample)
    : scheduler_(scheduler), model_(model), platformIdx_(platform_idx),
      factors_(static_cast<size_t>(num_workers), 1.0),
      remoteSecondsPerSample_(remote_seconds_per_sample)
{
    for (int64_t b : scheduler_->batchGrid()) {
        scheduler_->latency(model_, platformIdx_, b);
    }
    int64_t ref_batch = scheduler_->batchGrid().front();
    for (int64_t b : scheduler_->batchGrid()) {
        if (b <= max_batch) {
            ref_batch = b;  // largest grid knot within the batch cap
        }
    }
    if (model_contention) {
        SweepCache* sweep = scheduler_->sweep();
        factors_ = contentionSlowdowns(
            sweep->get(model_, platformIdx_, ref_batch),
            sweep->platforms()[platformIdx_], num_workers);
    }
}

}  // namespace recstack
