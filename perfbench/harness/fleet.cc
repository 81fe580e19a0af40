/**
 * @file
 * fleet_diurnal and serve_queue: the fleet simulator and the serving
 * node on the virtual clock.
 *
 * fleet_diurnal: FleetSimulator is configured the way
 * `recstack fleet --nodes 16` configures it: p2c routing,
 * row-partitioned placement, two million Zipf users and a diurnal
 * envelope, offered about 60% of the fleet's batch-64 capacity, over a
 * fixed simulated horizon. Sixteen nodes make the single-threaded
 * simulation the larger part of an epoch, so the replayed node's thread
 * hand-offs add less host-scheduling noise. After each simulation one
 * node's captured routed trace is replayed through
 * ServingNode::runTrace in kProfileOnly. One epoch (simulate + replay)
 * is one timed op. Checks: the replayed node's ServingStats equal the
 * analytic twin's (the test_fleet differential) and routed queries
 * equal arrivals. The seed code fails the twin check on some epochs
 * (see perfbench/README.md), so this workload is not in BENCHMARK.json.
 *
 * serve_queue: one RM2 ServingNode (the fleet's node, one worker) on
 * its own Poisson clock at about 60% of its batch-64 capacity, in
 * kProfileOnly. One epoch runs ServingNode::run and then replays the
 * same clock through ServingNode::runTrace. Checks: every arrival is
 * served, and the replay's ServingStats equal the run's (the
 * test_serving_engine differential, the contract the fleet replay
 * rests on). After the timed epochs one untimed anchor epoch on a fixed
 * seed must reproduce the ServingStats digest recorded here, so a
 * change that moves run and runTrace alike still fails. serve
 * (BatchQueue), sched (the latency oracle) and the obs histograms
 * carry the work.
 *
 * Both workloads serve a fixed number of epochs per --seconds, with
 * traffic seeds derived from --seed, so the work, and with it the
 * attempted and failed op counts, depends only on the seed and
 * --seconds and never on host speed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"
#include "fleet/fleet_sim.h"
#include "serve/serving_node.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace recstack;

constexpr ModelId kModel = ModelId::kRM2;
constexpr int kNodes = 16;
/// Simulated seconds per epoch. With 2 s (50 ms epochs), host stalls of
/// tens of milliseconds decided which epochs were the ten slowest, and
/// tail_ms moved by up to 2x from run to run.
constexpr double kHorizonSeconds = 4.0;
/// Epochs per --seconds: an epoch takes about 105 ms on a 4-core Xeon
/// VM, so a run measures about --seconds there.
constexpr double kEpochsPerSecond = 9.0;
/// serve_queue: simulated seconds per epoch and epochs per --seconds.
/// An epoch takes 200-280 ms on a 4-core Xeon VM, so a run measures
/// about --seconds there. With a 4 s horizon, a host stall of one second
/// slowed about as many epochs as the tail rank holds, and tail_ms
/// spread up to 0.22 of its median from run to run.
constexpr double kQueueHorizonSeconds = 8.0;
constexpr double kQueueEpochsPerSecond = 4.0;
/// serve_queue's workers. With two, every batch hands the queue to the
/// other thread, so host scheduling delay entered every launch: tail_ms
/// spread 0.12 and once 0.45 over a set of runs, against 0.05 with one.
constexpr int kQueueWorkers = 1;
/// serve_queue's anchor epoch: its traffic seed and the FNV-1a digest of
/// its ServingStats, recorded when the workload was added. Only a change
/// to the benchmark itself may refresh it (see README.md).
constexpr uint64_t kAnchorSeed = 20200901;
constexpr uint64_t kAnchorDigest = 0x5049f51036ec385aull;

/** The scheduler stack the fleet prices with (the set-up). */
struct FleetStack {
    std::unique_ptr<SweepCache> sweep;
    std::unique_ptr<QueryScheduler> sched;
    std::unique_ptr<fleet::FleetSimulator> sim;
    std::unique_ptr<ServingNode> node;
};

fleet::FleetConfig
fleetConfig()
{
    fleet::FleetConfig cfg;
    cfg.numNodes = kNodes;
    cfg.policy = fleet::RoutePolicy::kPowerOfTwo;
    cfg.workersPerNode = 2;
    cfg.maxBatch = 64;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = kHorizonSeconds;
    cfg.placement.kind = fleet::PlacementKind::kRowPartitioned;
    cfg.placement.replicationFactor = 1;
    cfg.captureTraces = true;
    return cfg;
}

EngineConfig
replayConfig(const fleet::FleetConfig& fcfg,
             const fleet::TrafficConfig& traffic, double remote)
{
    EngineConfig ecfg;
    ecfg.numWorkers = fcfg.workersPerNode;
    ecfg.arrivalQps = traffic.baseQps;  // unused in trace mode
    ecfg.maxBatch = fcfg.maxBatch;
    ecfg.maxWaitSeconds = fcfg.maxWaitSeconds;
    ecfg.simSeconds = fcfg.simSeconds;
    ecfg.seed = traffic.seed;
    ecfg.execMode = ExecMode::kProfileOnly;
    ecfg.remoteSecondsPerSample = remote;
    return ecfg;
}

std::unique_ptr<FleetStack>
buildStack()
{
    auto stack = std::make_unique<FleetStack>();
    FleetStack& s = *stack;
    ModelOptions opts;
    opts.tableScale = 0.05;  // as `recstack fleet`
    s.sweep = std::make_unique<SweepCache>(allPlatforms(), opts);
    {
        Span span("models.build");
        (void)s.sweep->characterizer().model(kModel);
    }
    {
        Span span("sched.warm");
        s.sched = std::make_unique<QueryScheduler>(
            s.sweep.get(), std::vector<int64_t>{1, 16, 64, 256, 1024});
        for (int64_t b : s.sched->batchGrid()) {
            (void)s.sched->latency(kModel, 0, b);
        }
    }
    s.sim = std::make_unique<fleet::FleetSimulator>(s.sched.get(), kModel,
                                                    0);
    s.node = std::make_unique<ServingNode>(s.sched.get(), kModel, 0);
    // One single-arrival replay compiles the node's net and plans, so
    // that lazy work stays out of the timed epochs.
    const fleet::FleetConfig fcfg = fleetConfig();
    (void)s.node->runTrace(replayConfig(fcfg, {}, 0.0), {0.0});
    return stack;
}

/** Equal within four ulps, as gtest's DOUBLE_EQ. */
bool
nearlyEqual(double a, double b)
{
    if (a == b) {
        return true;
    }
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= 4.0 * 2.220446049250313e-16 * scale;
}

bool
sameStats(const ServingStats& a, const ServingStats& b)
{
    return a.samplesArrived == b.samplesArrived &&
           a.samplesServed == b.samplesServed &&
           a.batchesServed == b.batchesServed &&
           nearlyEqual(a.meanLatency, b.meanLatency) &&
           nearlyEqual(a.p50Latency, b.p50Latency) &&
           nearlyEqual(a.p99Latency, b.p99Latency) &&
           nearlyEqual(a.utilization, b.utilization) &&
           nearlyEqual(a.meanBatch, b.meanBatch);
}

/** FNV-1a over every field of @c s that the virtual clock decides. */
uint64_t
statsDigest(const ServingStats& s)
{
    const uint64_t counts[] = {s.samplesArrived, s.samplesServed,
                               s.droppedSamples, s.batchesServed};
    const double values[] = {s.meanLatency,  s.p50Latency,
                             s.p95Latency,   s.p99Latency,
                             s.meanBatch,    s.utilization,
                             s.offeredLoad,  s.throughputQps};
    return fnv1a(values, sizeof(values), fnv1a(counts, sizeof(counts)));
}

/** Epochs a run serves: a fixed count per --seconds, at least one. */
uint64_t
epochCount(double seconds, double per_second)
{
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(std::lround(seconds * per_second)));
}

}  // namespace

Outcome
runFleet(const Options& opts)
{
    Outcome out;
    std::unique_ptr<FleetStack> stack;
    const double setup_s = medianSetupSeconds(kSetupReps, [&](int) {
        stack.reset();
        stack = buildStack();
    });

    const fleet::FleetConfig fcfg = fleetConfig();
    // Offer ~60% of the fleet's batch-64 capacity, including the
    // placement surcharge, over one full diurnal cycle (trough at half
    // the peak), exactly as `recstack fleet` does.
    const fleet::PlacementView view(
        fcfg.placement, kNodes,
        stack->sweep->characterizer().model(kModel).workload);
    const double cap_node =
        fcfg.workersPerNode * 64.0 /
        (stack->sched->latency(kModel, 0, 64) +
         64.0 * view.remoteSecondsPerSample());
    fleet::TrafficConfig traffic;
    traffic.baseQps = 0.6 * kNodes * cap_node;
    traffic.numUsers = 2000000;
    traffic.userZipf = 0.9;
    traffic.envelope = RateEnvelope::diurnal(fcfg.simSeconds, 0.5);

    std::vector<double> epoch_ms;
    double timed = 0.0;
    uint64_t items = 0;
    const uint64_t epochs = epochCount(opts.seconds, kEpochsPerSecond);
    for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
        traffic.seed = mixSeed(opts.seed, epoch);
        const size_t replay_node = static_cast<size_t>(epoch % kNodes);
        const Clock::time_point t0 = Clock::now();
        fleet::FleetResult result;
        EngineResult replay;
        {
            Span op("fleet.epoch", static_cast<int64_t>(epoch));
            {
                Span span("fleet.simulate", static_cast<int64_t>(epoch));
                result = stack->sim->simulate(fcfg, traffic);
            }
            Span span("serve.replay", static_cast<int64_t>(epoch));
            replay = stack->node->runTrace(
                replayConfig(fcfg, traffic, result.remoteSecondsPerSample),
                result.perNode[replay_node].arrivalTrace);
        }
        const double s = secondsSince(t0);
        timed += s;
        epoch_ms.push_back(s * 1e3);
        ++out.attempted;

        uint64_t routed = 0;
        for (const fleet::FleetNodeResult& n : result.perNode) {
            routed += n.routedQueries;
        }
        items += result.totalArrivals + replay.aggregate.samplesArrived;
        if (routed != result.totalArrivals) {
            out.fail("epoch " + std::to_string(epoch) + ": routed " +
                     std::to_string(routed) + " of " +
                     std::to_string(result.totalArrivals) + " arrivals");
        }
        if (!sameStats(replay.aggregate,
                       result.perNode[replay_node].stats)) {
            out.fail("epoch " + std::to_string(epoch) + ": node " +
                     std::to_string(replay_node) +
                     " replay differs from the fleet's twin");
        }
    }

    out.endToEnd["setup_s"] = {setup_s, "s"};
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB"};
    out.endToEnd["items_per_s"] = {static_cast<double>(items) / timed,
                                   "1/s"};
    out.endToEnd["p50_ms"] = {median(epoch_ms), "ms"};
    out.endToEnd["tail_ms"] = {
        quantile(epoch_ms, tailQuantile(epoch_ms.size())), "ms"};

    if (tracingEnabled()) {
        const std::vector<SpanRecord> spans = finishedSpans();
        out.perLayer["models.build_s"] = {
            median(spanSeconds(spans, "models.build")), "s"};
        out.perLayer["sched.warm_s"] = {
            median(spanSeconds(spans, "sched.warm")), "s"};
        out.perLayer["fleet.simulate_s"] = {
            median(spanSeconds(spans, "fleet.simulate")), "s"};
        out.perLayer["serve.replay_s"] = {
            median(spanSeconds(spans, "serve.replay")), "s"};
        out.perLayer["fleet.sim_share"] = {
            (totalSpanSeconds(spans, "fleet.simulate") +
             totalSpanSeconds(spans, "serve.replay")) /
                totalSpanSeconds(spans, "fleet.epoch"),
            "ratio"};
        out.perLayer["trace.items_per_s"] = out.endToEnd["items_per_s"];
    }
    return out;
}

Outcome
runServeQueue(const Options& opts)
{
    Outcome out;
    std::unique_ptr<FleetStack> stack;
    const double setup_s = medianSetupSeconds(kSetupReps, [&](int) {
        stack.reset();
        stack = buildStack();
    });

    // The fleet's node without the placement surcharge, with one worker
    // (see kQueueWorkers), offered ~60% of its batch-64 capacity.
    const fleet::FleetConfig fcfg = fleetConfig();
    EngineConfig cfg = replayConfig(fcfg, {}, 0.0);
    cfg.simSeconds = kQueueHorizonSeconds;
    cfg.numWorkers = kQueueWorkers;
    cfg.arrivalQps = 0.6 * cfg.numWorkers * 64.0 /
                     stack->sched->latency(kModel, 0, 64);

    std::vector<double> epoch_ms;
    double timed = 0.0;
    uint64_t items = 0;
    const uint64_t epochs = epochCount(opts.seconds, kQueueEpochsPerSecond);
    for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
        cfg.seed = mixSeed(opts.seed, epoch);

        const Clock::time_point t0 = Clock::now();
        std::vector<double> trace;
        EngineResult run;
        EngineResult replay;
        {
            const int64_t id = static_cast<int64_t>(epoch);
            Span op("serve.epoch", id);
            {
                Span span("serve.run", id);
                run = stack->node->run(cfg);
            }
            PoissonProcess clock(cfg.arrivalQps, cfg.seed);
            for (double t = clock.next(); t < cfg.simSeconds;
                 t = clock.next()) {
                trace.push_back(t);
            }
            Span span("serve.replay", id);
            replay = stack->node->runTrace(cfg, trace);
        }
        const double s = secondsSince(t0);
        timed += s;
        epoch_ms.push_back(s * 1e3);
        ++out.attempted;
        items += run.aggregate.samplesArrived +
                 replay.aggregate.samplesArrived;

        const std::string at = "epoch " + std::to_string(epoch) + ": ";
        if (run.aggregate.samplesArrived != trace.size() ||
            run.aggregate.samplesServed != run.aggregate.samplesArrived) {
            out.fail(at + "served " +
                     std::to_string(run.aggregate.samplesServed) + " of " +
                     std::to_string(trace.size()) + " arrivals");
        } else if (!sameStats(replay.aggregate, run.aggregate)) {
            out.fail(at + "runTrace differs from run on the same clock");
        }
    }

    cfg.seed = kAnchorSeed;
    const uint64_t anchor = statsDigest(stack->node->run(cfg).aggregate);
    ++out.attempted;
    if (anchor != kAnchorDigest) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(anchor));
        out.fail(std::string("anchor epoch digest ") + hex +
                 " differs from the recorded one");
    }

    out.endToEnd["setup_s"] = {setup_s, "s"};
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB"};
    out.endToEnd["items_per_s"] = {static_cast<double>(items) / timed,
                                   "1/s"};
    out.endToEnd["p50_ms"] = {median(epoch_ms), "ms"};
    out.endToEnd["tail_ms"] = {
        quantile(epoch_ms, tailQuantile(epoch_ms.size())), "ms"};

    if (tracingEnabled()) {
        const std::vector<SpanRecord> spans = finishedSpans();
        out.perLayer["models.build_s"] = {
            median(spanSeconds(spans, "models.build")), "s"};
        out.perLayer["sched.warm_s"] = {
            median(spanSeconds(spans, "sched.warm")), "s"};
        out.perLayer["serve.run_s"] = {
            median(spanSeconds(spans, "serve.run")), "s"};
        out.perLayer["serve.replay_s"] = {
            median(spanSeconds(spans, "serve.replay")), "s"};
        out.perLayer["serve.sim_share"] = {
            (totalSpanSeconds(spans, "serve.run") +
             totalSpanSeconds(spans, "serve.replay")) /
                totalSpanSeconds(spans, "serve.epoch"),
            "ratio"};
        out.perLayer["trace.items_per_s"] = out.endToEnd["items_per_s"];
    }
    return out;
}

}  // namespace perfbench
