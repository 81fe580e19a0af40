#include "serve/batcher.h"

#include <algorithm>

#include "common/logging.h"

namespace recstack {

ArrivalSource
ArrivalSource::poisson(double qps, uint64_t seed, double horizon)
{
    ArrivalSource src;
    src.process_.emplace(qps, seed);
    src.horizon_ = horizon;
    src.draw();
    return src;
}

ArrivalSource
ArrivalSource::trace(std::vector<double> arrivals, double horizon)
{
    for (size_t i = 0; i < arrivals.size(); ++i) {
        RECSTACK_CHECK(arrivals[i] >= 0.0, "trace arrivals must be >= 0");
        RECSTACK_CHECK(i == 0 || arrivals[i] >= arrivals[i - 1],
                       "trace arrivals must be ascending");
    }
    ArrivalSource src;
    src.known_ = std::move(arrivals);
    src.known_.erase(std::lower_bound(src.known_.begin(),
                                      src.known_.end(), horizon),
                     src.known_.end());
    src.ended_ = true;
    return src;
}

ArrivalSource
ArrivalSource::routed()
{
    return ArrivalSource();
}

void
ArrivalSource::push(double t)
{
    RECSTACK_CHECK(!ended_, "push after the stream ended");
    RECSTACK_CHECK(known() == 0 || t >= known_.back(),
                   "routed arrivals must be ascending");
    known_.push_back(t);
}

ArrivalSource::Next
ArrivalSource::peek(double* t) const
{
    if (head_ < known_.size()) {
        *t = known_[head_];
        return Next::kArrival;
    }
    return ended_ ? Next::kExhausted : Next::kNotKnownYet;
}

void
ArrivalSource::pop()
{
    if (++head_ == known_.size()) {
        known_.clear();
        head_ = 0;
    }
    if (process_) {
        draw();
    }
}

void
ArrivalSource::draw()
{
    const double t = process_->next();
    if (t < horizon_) {
        known_.push_back(t);
    } else {
        ended_ = true;
    }
}

Batcher::Batcher(const Config& cfg, ArrivalSource source)
    : cfg_(cfg), source_(std::move(source))
{
    RECSTACK_CHECK(cfg_.maxBatch > 0, "batch cap must be > 0");
    RECSTACK_CHECK(cfg_.numWorkers >= 1, "need at least one worker");
    readyTime_.assign(static_cast<size_t>(cfg_.numWorkers), 0.0);
    active_.assign(static_cast<size_t>(cfg_.numWorkers), true);
}

int
Batcher::turn() const
{
    int best = -1;
    for (size_t v = 0; v < readyTime_.size(); ++v) {
        if (active_[v] &&
            (best < 0 ||
             readyTime_[v] < readyTime_[static_cast<size_t>(best)])) {
            best = static_cast<int>(v);
        }
    }
    return best;
}

void
Batcher::admit()
{
    double t = 0.0;
    source_.peek(&t);
    pending_.push_back(t);
    source_.pop();
    ++admitted_;
}

Batcher::Step
Batcher::walk(int wid, const ServiceFn& service, BatchTicket* ticket,
              double* completion, int* busy_at_launch, Reason* reason)
{
    RECSTACK_CHECK(wid == turn(), "walk out of virtual-time turn");
    const size_t w = static_cast<size_t>(wid);
    double next = 0.0;
    double t;
    if (paused_) {
        t = pausedAt_;
        paused_ = false;
    } else {
        t = readyTime_[w];
        while (source_.peek(&next) == ArrivalSource::Next::kArrival &&
               next <= t) {
            admit();
        }
    }

    while (true) {
        if (static_cast<int64_t>(pending_.size()) >= cfg_.maxBatch) {
            *reason = Reason::kFull;
            break;
        }
        const ArrivalSource::Next state = source_.peek(&next);
        if (state == ArrivalSource::Next::kExhausted) {
            if (pending_.empty()) {
                active_[w] = false;
                return Step::kRetired;
            }
            *reason = Reason::kDrain;
            break;
        }
        if (!pending_.empty()) {
            if (t - pending_.front() >= cfg_.maxWaitSeconds) {
                *reason = Reason::kWindow;
                break;
            }
            const double expiry = pending_.front() + cfg_.maxWaitSeconds;
            if (state == ArrivalSource::Next::kArrival && next > expiry) {
                t = expiry;  // the window expires before the next arrival
                *reason = Reason::kWindow;
                break;
            }
        }
        if (state == ArrivalSource::Next::kNotKnownYet) {
            // The next arrival could fill the batch, land inside the
            // window, or never come (drain now): undecidable until the
            // source knows more.
            paused_ = true;
            pausedAt_ = t;
            return Step::kStalled;
        }
        t = next;
        admit();
    }

    const int64_t batch = std::min<int64_t>(
        cfg_.maxBatch, static_cast<int64_t>(pending_.size()));
    ticket->seq = seq_++;
    ticket->launchTime = t;
    ticket->arrivals.assign(pending_.begin(), pending_.begin() + batch);
    pending_.erase(pending_.begin(), pending_.begin() + batch);

    const int busy = busyAtLaunch(readyTime_, active_, w, t);
    const double svc = service(*ticket, busy);
    RECSTACK_CHECK(svc > 0.0, "service time must be > 0");
    readyTime_[w] = t + svc;
    *completion = t + svc;
    *busy_at_launch = busy;
    return Step::kLaunched;
}

int
Batcher::busyAtLaunch(const std::vector<double>& ready_times,
                      const std::vector<bool>& active, size_t wid,
                      double t)
{
    int busy = 1;  // the caller
    for (size_t v = 0; v < ready_times.size(); ++v) {
        // Strict >: service occupies [launch, completion), so a worker
        // completing exactly at t is idle at t (header contract).
        if (v != wid && active[v] && ready_times[v] > t) {
            ++busy;
        }
    }
    return busy;
}

int
Batcher::inServiceAt(double t) const
{
    int n = 0;
    for (size_t v = 0; v < readyTime_.size(); ++v) {
        if (active_[v] && readyTime_[v] > t) {
            ++n;
        }
    }
    return n;
}

}  // namespace recstack
