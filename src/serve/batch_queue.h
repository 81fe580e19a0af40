#ifndef RECSTACK_SERVE_BATCH_QUEUE_H_
#define RECSTACK_SERVE_BATCH_QUEUE_H_

/**
 * @file
 * BatchQueue: the concurrent admission front of the multi-worker
 * serving node.
 *
 * A mutex and a condition variable around the single-threaded
 * batching core (serve/batcher.h): queries arrive on an open-loop
 * Poisson clock (PoissonProcess) or an explicit trace, pool in the
 * core's pending queue, and leave as dynamic batches under its
 * batch-full / window-expired / drain rules.
 *
 * Time is virtual: a worker's service time is priced by the node's
 * latency oracle, not wall clock, so the node is a *measured*
 * discrete-event system executed by real threads. To keep results
 * independent of OS thread interleaving, the queue hands out batches
 * in the core's strict virtual-time order: only the worker with the
 * earliest virtual free time (ties broken by worker id) may take the
 * next batch; later workers block until their virtual turn. A
 * worker's next free time is known at assignment time (launch +
 * service), so the ordering never deadlocks — the argmin worker is
 * always either executing its batch or inside acquire(). The queue's
 * sources always know their next arrival, so a walk never stalls.
 */

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/batcher.h"

namespace recstack {

/** Deterministic concurrent dynamic-batching queue. */
class BatchQueue
{
  public:
    struct Config {
        double arrivalQps = 1000.0;
        int64_t maxBatch = 256;
        double maxWaitSeconds = 1e-3;
        /// Arrivals are generated for timestamps < horizonSeconds.
        double horizonSeconds = 2.0;
        uint64_t seed = 42;
        int numWorkers = 1;
        /// Explicit arrival-trace mode (fleet nodes): when set, the
        /// queue admits the timestamps in `arrivalTrace` (ascending,
        /// >= 0) instead of drawing a Poisson stream — a routed node
        /// serves exactly the sub-stream a fleet router assigned to
        /// it. Timestamps at or past horizonSeconds are ignored, the
        /// same cut-off the generated stream has; admission, launch,
        /// and drain rules are unchanged, so a trace equal to the
        /// Poisson stream reproduces the generated run exactly.
        bool useArrivalTrace = false;
        std::vector<double> arrivalTrace;
    };

    explicit BatchQueue(Config cfg);

    /**
     * Virtual service-time oracle: (ticket, busy workers at launch
     * including the caller) -> seconds. Invoked under the queue lock,
     * so implementations may touch non-thread-safe shared state (the
     * memoized characterization sweep).
     */
    using ServiceFn = Batcher::ServiceFn;

    /**
     * Block until worker @c wid is the earliest-virtually-free active
     * worker, then form and take the next batch. On success fills the
     * ticket, the batch's virtual completion time (launch + service)
     * and the number of busy workers at launch (Batcher::busyAtLaunch),
     * and returns true. Returns false when the arrival stream is
     * exhausted and the pending queue is empty — the worker has
     * retired.
     */
    bool acquire(int wid, const ServiceFn& service, BatchTicket* ticket,
                 double* completion, int* busy_at_launch);

    /** Samples admitted from the arrival stream so far. */
    uint64_t samplesArrived() const;

  private:
    int numWorkers_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    Batcher core_;
};

}  // namespace recstack

#endif  // RECSTACK_SERVE_BATCH_QUEUE_H_
