/**
 * @file
 * Extension: tail-latency serving curves. Turns the Fig. 5
 * optimal-platform grid into what a datacenter operator sees — a
 * Poisson query stream through a dynamic batcher, p99 latency vs
 * offered load, per platform. CPUs win the low-load/tight-tail
 * regime; the GPU's batching amortization wins the high-load regime.
 */

#include "bench_util.h"
#include "fleet/fleet_sim.h"
#include "serve/serving_node.h"

using namespace recstack;
using namespace recstack::bench;

/**
 * Multi-worker serving engine sweep: saturate an embedding-dominated
 * model (RM2) on Broadwell and scale the worker pool. Aggregate
 * throughput must grow with workers while the shared-L3/DRAM
 * contention model inflates each worker's service time — the measured
 * counterpart of the analytical estimateMulticoreScaling curve.
 */
static void
engineSection(QueryScheduler& sched)
{
    banner("Extension", "Multi-worker serving engine: throughput vs "
                        "pool size (RM2 on Broadwell)");

    const int64_t max_batch = 256;
    const double cap1 =
        static_cast<double>(max_batch) /
        sched.latency(ModelId::kRM2, kBdw, max_batch);

    EngineConfig cfg;
    cfg.arrivalQps = 6.0 * cap1;  // well past one worker's capacity
    cfg.maxBatch = max_batch;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.25;

    // 1-worker cross-check against the analytical 1-node fleet twin
    // at a servable load: the same Poisson stream, batched by the same
    // core without threads or executed batches.
    fleet::FleetConfig twin_cfg;
    twin_cfg.numNodes = 1;
    twin_cfg.policy = fleet::RoutePolicy::kRoundRobin;
    twin_cfg.workersPerNode = 1;
    twin_cfg.maxBatch = max_batch;
    twin_cfg.maxWaitSeconds = cfg.maxWaitSeconds;
    twin_cfg.simSeconds = cfg.simSeconds;
    fleet::TrafficConfig traffic;
    traffic.baseQps = 0.5 * cap1;
    traffic.seed = cfg.seed;
    fleet::FleetSimulator twin(&sched, ModelId::kRM2, kBdw);
    const ServingStats analytical =
        twin.simulate(twin_cfg, traffic).aggregate;
    ServingNode engine(&sched, ModelId::kRM2, kBdw);
    EngineConfig one = cfg;
    one.numWorkers = 1;
    one.arrivalQps = traffic.baseQps;
    const EngineResult measured = engine.run(one);

    TextTable table({"workers", "agg qps", "p95", "mean batch",
                     "offered load", "mean slowdown", "max slowdown"});
    std::vector<EngineResult> results;
    for (int workers : {1, 2, 4, 8}) {
        EngineConfig c = cfg;
        c.numWorkers = workers;
        results.push_back(engine.run(c));
        const EngineResult& r = results.back();
        table.addRow({std::to_string(workers),
                      TextTable::fmt(r.aggregate.throughputQps, 0),
                      TextTable::fmtSeconds(r.aggregate.p95Latency),
                      TextTable::fmt(r.aggregate.meanBatch, 1),
                      TextTable::fmt(r.aggregate.offeredLoad, 2),
                      TextTable::fmt(r.meanSlowdown, 3) + "x",
                      TextTable::fmt(r.maxSlowdown, 3) + "x"});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    const double rel_err =
        std::abs(measured.aggregate.meanLatency -
                 analytical.meanLatency) /
        analytical.meanLatency;
    check(rel_err < 0.10,
          "at 1 worker the threaded engine's mean latency agrees with "
          "the analytical 1-node fleet twin within 10%");
    bool monotone = true;
    for (size_t i = 1; i < results.size(); ++i) {
        monotone &= results[i].aggregate.throughputQps >=
                    results[i - 1].aggregate.throughputQps * 0.999;
    }
    check(monotone, "aggregate throughput is monotone in worker count "
                    "under saturation");
    check(results.back().meanSlowdown > results.front().meanSlowdown &&
              results.back().meanSlowdown > 1.0,
          "co-located workers inflate per-worker service latency "
          "(shared-L3/DRAM contention, the NMP motivation)");
    const double scaling8 =
        results.back().aggregate.throughputQps /
        results.front().aggregate.throughputQps;
    check(scaling8 < 8.0,
          "the embedding-dominated model scales sublinearly to 8 "
          "workers (throughput x" +
              std::string(TextTable::fmt(scaling8, 2)) + " of 8x)");
}

int
main()
{
    banner("Extension", "Dynamic-batching serving: p99 vs offered load "
                        "(WnD)");

    SweepCache sweep(allPlatforms());
    QueryScheduler sched(&sweep);

    const std::vector<double> loads = {1e3, 1e4, 5e4, 2e5, 1e6};
    TextTable table({"offered qps", "CLX p99", "CLX util", "T4 p99",
                     "T4 util", "tail winner"});
    std::vector<size_t> winners;
    for (double qps : loads) {
        // One server per platform: a 1-worker node, contention off,
        // shape-only execution.
        EngineConfig cfg;
        cfg.arrivalQps = qps;
        cfg.maxBatch = 1024;
        cfg.maxWaitSeconds = 1e-3;
        cfg.simSeconds = 0.5;
        cfg.modelContention = false;

        ServingNode clx(&sched, ModelId::kWnD, kClx);
        ServingNode t4(&sched, ModelId::kWnD, kT4);
        const ServingStats a = clx.run(cfg).aggregate;
        const ServingStats b = t4.run(cfg).aggregate;
        const bool t4_wins = b.p99Latency < a.p99Latency;
        winners.push_back(t4_wins ? kT4 : kClx);
        table.addRow({TextTable::fmt(qps, 0),
                      TextTable::fmtSeconds(a.p99Latency),
                      TextTable::fmtPercent(a.utilization),
                      TextTable::fmtSeconds(b.p99Latency),
                      TextTable::fmtPercent(b.utilization),
                      t4_wins ? "T4" : "CascadeLake"});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    check(winners.front() == kClx,
          "at low load (batch ~1) the CPU serves a tighter tail than "
          "the accelerator (Fig. 5's small-batch column)");
    check(winners.back() == kT4,
          "at high load the accelerator's batching amortization wins "
          "(Fig. 5's large-batch column)");
    bool crossover = false;
    for (size_t i = 1; i < winners.size(); ++i) {
        crossover |= winners[i] != winners[i - 1];
    }
    check(crossover, "a load crossover exists between the two regimes "
                     "(the scheduling opportunity DeepRecSys exploits)");

    engineSection(sched);
    return bench::exitStatus();
}
