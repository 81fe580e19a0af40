#include "serve/serving_stats.h"

#include <algorithm>

#include "common/stats.h"

namespace recstack {

void
fillLatencyStats(std::vector<double>& latencies, ServingStats* stats)
{
    if (latencies.empty()) {
        return;
    }
    double sum = 0.0;
    for (double lat : latencies) {
        sum += lat;
    }
    stats->meanLatency = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    stats->p50Latency = percentileOfSorted(latencies, 0.50);
    stats->p95Latency = percentileOfSorted(latencies, 0.95);
    stats->p99Latency = percentileOfSorted(latencies, 0.99);
}

void
fillLoadStats(uint64_t samples, uint64_t batches, double busy_seconds,
              double servers, double horizon, double sim_seconds,
              ServingStats* stats)
{
    stats->samplesServed = samples;
    stats->batchesServed = batches;
    stats->meanBatch = batches > 0 ? static_cast<double>(samples) /
                                         static_cast<double>(batches)
                                   : 0.0;
    stats->utilization =
        std::min(1.0, busy_seconds / (servers * horizon));
    stats->offeredLoad = busy_seconds / (servers * sim_seconds);
    stats->throughputQps = static_cast<double>(samples) / horizon;
}

}  // namespace recstack
