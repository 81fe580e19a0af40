#include "serve/batch_queue.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace recstack {
namespace {

struct QueueMetrics {
    obs::Counter& batches;
    obs::Counter& samples;
    obs::Counter& launchFull;
    obs::Counter& launchWindow;
    obs::Counter& launchDrain;

    static QueueMetrics& get()
    {
        static QueueMetrics* m = [] {
            auto& reg = obs::MetricsRegistry::global();
            return new QueueMetrics{
                reg.counter("queue.batches"),
                reg.counter("queue.samples"),
                reg.counter("queue.launch_batch_full"),
                reg.counter("queue.launch_window_expired"),
                reg.counter("queue.launch_drain"),
            };
        }();
        return *m;
    }
};

ArrivalSource
makeSource(BatchQueue::Config& cfg)
{
    RECSTACK_CHECK(cfg.horizonSeconds > 0.0, "horizon must be > 0");
    if (cfg.useArrivalTrace) {
        return ArrivalSource::trace(std::move(cfg.arrivalTrace),
                                    cfg.horizonSeconds);
    }
    return ArrivalSource::poisson(cfg.arrivalQps, cfg.seed,
                                  cfg.horizonSeconds);
}

}  // namespace

BatchQueue::BatchQueue(Config cfg)
    : numWorkers_(cfg.numWorkers),
      core_({cfg.maxBatch, cfg.maxWaitSeconds, cfg.numWorkers},
            makeSource(cfg))
{
}

bool
BatchQueue::acquire(int wid, const ServiceFn& service, BatchTicket* ticket,
                    double* completion, int* busy_at_launch)
{
    RECSTACK_CHECK(wid >= 0 && wid < numWorkers_, "worker id out of range");
    obs::ScopedSpan span("queue.acquire", {{"worker", wid}});
    std::unique_lock<std::mutex> lock(mu_);
    RECSTACK_CHECK(!core_.retired(wid), "acquire on a retired worker");
    cv_.wait(lock, [&] { return core_.turn() == wid; });

    Batcher::Reason reason = Batcher::Reason::kFull;
    const Batcher::Step step = core_.walk(wid, service, ticket, completion,
                                          busy_at_launch, &reason);
    cv_.notify_all();
    if (step == Batcher::Step::kRetired) {
        return false;
    }
    RECSTACK_CHECK(step == Batcher::Step::kLaunched,
                   "a generated or recorded stream never stalls");
    QueueMetrics& qm = QueueMetrics::get();
    switch (reason) {
    case Batcher::Reason::kFull:
        qm.launchFull.add();
        break;
    case Batcher::Reason::kWindow:
        qm.launchWindow.add();
        break;
    case Batcher::Reason::kDrain:
        qm.launchDrain.add();
        break;
    }
    qm.batches.add();
    qm.samples.add(static_cast<uint64_t>(ticket->size()));
    if (span.active()) {
        span.arg("batch", ticket->size());
        span.arg("busy", *busy_at_launch);
    }
    return true;
}

uint64_t
BatchQueue::samplesArrived() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return core_.admitted();
}

}  // namespace recstack
