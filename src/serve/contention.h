#ifndef RECSTACK_SERVE_CONTENTION_H_
#define RECSTACK_SERVE_CONTENTION_H_

/**
 * @file
 * Occupancy -> service-time inflation coupling between the serving
 * node and the analytical multicore co-location model, and the CPU
 * batch price built on it.
 *
 * estimateMulticoreScaling prices what happens when k copies of an
 * inference engine share one socket: private resources scale, the
 * shared L3 is effectively partitioned, and DRAM bandwidth saturates.
 * The serving engine samples its occupancy (busy workers) at every
 * batch launch and stretches that batch's oracle latency by the
 * matching per-engine slowdown, making the threaded engine the
 * measured counterpart of the analytical scaling curve: embedding-
 * dominated models inflate hard, FC-dominated models barely notice.
 */

#include <algorithm>
#include <vector>

#include "core/characterizer.h"
#include "sched/query_scheduler.h"

namespace recstack {

/**
 * Per-occupancy service-time inflation factors, index k-1 for k busy
 * workers. Factors are normalized so one busy worker is exactly 1.0
 * (a 1-worker node serves at exactly the characterization-grid
 * latency). GPU platforms return all-ones: co-located workers
 * there model independent devices, not a shared socket.
 *
 * @param single      characterization of one engine running alone at
 *                    a representative (typically max-batch) operating
 *                    point
 * @param platform    the serving platform
 * @param num_workers highest occupancy to price (>= 1)
 */
std::vector<double> contentionSlowdowns(const RunResult& single,
                                        const Platform& platform,
                                        int num_workers);

/**
 * Virtual service time of one CPU-serviced batch on a node, shared by
 * the threaded ServingNode and the fleet's analytic node twin so both
 * price every batch with the same floating-point expression.
 */
class CpuBatchPrice
{
  public:
    /**
     * Prewarms the oracle over the scheduler's batch grid and derives
     * the contention factors at the largest grid knot within the
     * batch cap (all ones when @c model_contention is off).
     *
     * @param remote_seconds_per_sample placement surcharge per sample
     *        (see EngineConfig::remoteSecondsPerSample)
     */
    CpuBatchPrice(QueryScheduler* scheduler, ModelId model,
                  size_t platform_idx, int num_workers, int64_t max_batch,
                  bool model_contention, double remote_seconds_per_sample);

    /** Service-time inflation with @c busy workers in service. */
    double factor(int busy) const
    {
        const int k = std::min(busy, static_cast<int>(factors_.size()));
        return factors_[static_cast<size_t>(k - 1)];
    }

    /**
     * Seconds to serve @c batch samples at inflation @c factor. The
     * placement surcharge crosses the network, not the shared socket,
     * so it adds after the contention stretch.
     */
    double seconds(int64_t batch, double factor) const
    {
        return scheduler_->latency(model_, platformIdx_, batch) * factor +
               static_cast<double>(batch) * remoteSecondsPerSample_;
    }

  private:
    QueryScheduler* scheduler_;
    ModelId model_;
    size_t platformIdx_;
    std::vector<double> factors_;
    double remoteSecondsPerSample_;
};

}  // namespace recstack

#endif  // RECSTACK_SERVE_CONTENTION_H_
