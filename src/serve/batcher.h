#ifndef RECSTACK_SERVE_BATCHER_H_
#define RECSTACK_SERVE_BATCHER_H_

/**
 * @file
 * Batcher: the one dynamic-batching state machine of the serving
 * stack (docs/serving.md, "The batching core").
 *
 * Queries pool in a pending queue in front of numWorkers workers. A
 * batch is released to a worker when
 *
 *   - the pending queue holds maxBatch samples (batch-full),
 *   - the oldest pending sample has waited maxWaitSeconds
 *     (window-expired), or
 *   - the arrival stream is exhausted and samples are still pending
 *     (drain: flush what is queued at once).
 *
 * Time is virtual. Workers take batches in strict virtual-time order:
 * only the active worker with the earliest free time (lowest id on
 * ties) may walk, and a walk moves its clock forward from that free
 * time, admitting arrivals, until a rule fires. The launch prices the
 * batch through the caller's service oracle, and the worker is next
 * free at launch + service.
 *
 * The core is single-threaded. BatchQueue wraps it in a mutex and a
 * condition variable for the threaded ServingNode; the fleet's analytic
 * node twin (fleet/fleet_sim.cc) drives it directly.
 *
 * Arrivals come from an ArrivalSource, which answers one of three
 * things about the next arrival: its exact time, "exhausted", or "not
 * known yet". A walk that needs an answer the source does not know
 * yet pauses and reports kStalled; the next walk() resumes where it
 * paused. A generated or recorded stream always knows; a routed
 * stream does not know while nothing routed is waiting and the
 * global stream has not ended.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "workload/batch_generator.h"

namespace recstack {

/** One batch released to a worker. */
struct BatchTicket {
    uint64_t seq = 0;          ///< global release order
    double launchTime = 0.0;   ///< virtual time the batch starts service
    std::vector<double> arrivals;  ///< per-sample arrival timestamps

    int64_t size() const { return static_cast<int64_t>(arrivals.size()); }
};

/** Ascending arrival timestamps, generated, recorded, or routed. */
class ArrivalSource
{
  public:
    enum class Next { kArrival, kExhausted, kNotKnownYet };

    /** Open-loop Poisson stream; arrivals at or past horizon dropped. */
    static ArrivalSource poisson(double qps, uint64_t seed, double horizon);

    /**
     * Recorded stream (ascending, >= 0); arrivals at or past horizon
     * are dropped, the same cut-off the generated stream has.
     */
    static ArrivalSource trace(std::vector<double> arrivals,
                               double horizon);

    /** Routed stream: push() arrivals in order, end() after the last. */
    static ArrivalSource routed();

    void push(double t);
    void end() { ended_ = true; }

    /** What is known about the next arrival; fills @c t on kArrival. */
    Next peek(double* t) const;

    /** Consume the arrival peek() reported. */
    void pop();

    /** Arrivals known but not yet consumed. */
    size_t known() const { return known_.size() - head_; }

  private:
    ArrivalSource() = default;
    void draw();

    std::optional<PoissonProcess> process_;
    double horizon_ = 0.0;
    std::vector<double> known_;
    size_t head_ = 0;
    bool ended_ = false;
};

/** Single-threaded dynamic batcher over numWorkers virtual workers. */
class Batcher
{
  public:
    struct Config {
        int64_t maxBatch = 256;
        double maxWaitSeconds = 1e-3;
        int numWorkers = 1;
    };

    enum class Step { kLaunched, kRetired, kStalled };
    enum class Reason { kFull, kWindow, kDrain };

    /**
     * Virtual service-time oracle: (ticket, busy workers at launch
     * including the launching one) -> seconds, > 0.
     */
    using ServiceFn = std::function<double(const BatchTicket&, int)>;

    Batcher(const Config& cfg, ArrivalSource source);

    /**
     * The active worker whose virtual turn it is: earliest free time,
     * lowest id on ties; -1 once every worker has retired.
     */
    int turn() const;

    /**
     * Walk worker @c wid (which must be turn()) forward until a launch
     * rule fires, the stream is drained, or the source cannot answer.
     * kLaunched fills the ticket, its completion (launch + service),
     * the occupancy at launch and the rule that fired. kRetired: the
     * stream is exhausted and nothing is pending; the worker is done.
     * kStalled: the walk paused; call again once the source knows more.
     */
    Step walk(int wid, const ServiceFn& service, BatchTicket* ticket,
              double* completion, int* busy_at_launch, Reason* reason);

    /**
     * Occupancy at a batch launch: the caller plus every other active
     * worker whose current batch is still in virtual service at @c t.
     *
     * Tie convention (pinned): a batch occupies its worker over the
     * half-open interval [launch, completion), so a worker whose batch
     * completes exactly at @c t is idle at @c t. The launching worker
     * is itself free to launch at its own completion instant, so
     * occupancy counts exactly the workers that could not launch at
     * @c t. The contention model (serve/contention.h) keys its
     * slowdown off this count; a virtual-time tie regression test in
     * tests/test_serving_engine.cc locks it in.
     */
    static int busyAtLaunch(const std::vector<double>& ready_times,
                            const std::vector<bool>& active, size_t wid,
                            double t);

    ArrivalSource& source() { return source_; }
    const ArrivalSource& source() const { return source_; }
    double readyTime(int wid) const
    {
        return readyTime_[static_cast<size_t>(wid)];
    }
    bool retired(int wid) const { return !active_[static_cast<size_t>(wid)]; }
    /** Admitted samples waiting for a batch. */
    size_t pending() const { return pending_.size(); }
    /** Active workers still in virtual service at @c t (strict >). */
    int inServiceAt(double t) const;
    /** Samples admitted from the source so far. */
    uint64_t admitted() const { return admitted_; }

  private:
    void admit();

    Config cfg_;
    ArrivalSource source_;
    std::deque<double> pending_;  ///< arrival times of waiting samples
    uint64_t admitted_ = 0;
    uint64_t seq_ = 0;
    std::vector<double> readyTime_;  ///< per-worker virtual free time
    std::vector<bool> active_;
    /// A stalled walk resumes at pausedAt_ (its admissions are already
    /// pending). Only turn() may walk and nothing a stall leaves
    /// behind changes turn(), so the resumed walk is the paused one.
    bool paused_ = false;
    double pausedAt_ = 0.0;
};

}  // namespace recstack

#endif  // RECSTACK_SERVE_BATCHER_H_
