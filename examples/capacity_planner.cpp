/**
 * @file
 * Capacity planner: the full stack in one workflow. Given a model, a
 * target load and a p99 SLA, find for each platform the operating
 * point (batching policy) that meets the tail budget, then size the
 * fleet: how many engines/devices serve the load, accounting for
 * multicore co-location limits on the CPUs.
 *
 * Usage: capacity_planner [MODEL] [TARGET_QPS] [SLA_MS]
 */

#include <cstdio>
#include <string>

#include "report/table.h"
#include "serve/serving_node.h"
#include "uarch/multicore.h"

using namespace recstack;

namespace {

/** Best single-engine operating point under the SLA, by simulation. */
ServingStats
bestOperatingPoint(QueryScheduler& sched, ModelId model, size_t platform,
                   double sla, double* chosen_qps)
{
    // Find the highest per-engine load whose simulated p99 meets the
    // SLA (geometric sweep, then keep the best feasible point).
    ServingStats best{};
    *chosen_qps = 0.0;
    for (double qps = 500; qps <= 4.1e6; qps *= 2.0) {
        // One engine: a 1-worker node, contention off (co-location
        // is priced per socket below), shape-only execution.
        ServingNode node(&sched, model, platform);
        EngineConfig cfg;
        cfg.arrivalQps = qps;
        cfg.maxBatch = 2048;
        cfg.maxWaitSeconds = sla / 4.0;
        cfg.simSeconds = 0.4;
        cfg.modelContention = false;
        const ServingStats stats = node.run(cfg).aggregate;
        if (stats.p99Latency <= sla &&
            stats.throughputQps > best.throughputQps) {
            best = stats;
            *chosen_qps = qps;
        }
    }
    return best;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string model_name = argc > 1 ? argv[1] : "RM2";
    const double target_qps = argc > 2 ? std::atof(argv[2]) : 1e6;
    const double sla_ms = argc > 3 ? std::atof(argv[3]) : 10.0;
    const ModelId id = modelFromName(model_name);
    const double sla = sla_ms * 1e-3;

    SweepCache sweep(allPlatforms());
    QueryScheduler sched(&sweep);

    std::printf("Capacity plan: %s at %.0f samples/s, p99 <= %.1f ms\n\n",
                modelName(id), target_qps, sla_ms);

    TextTable table({"platform", "per-engine qps", "p99", "mean batch",
                     "engines needed", "note"});
    for (size_t p = 0; p < sweep.platforms().size(); ++p) {
        double engine_qps = 0.0;
        const ServingStats stats =
            bestOperatingPoint(sched, id, p, sla, &engine_qps);
        if (stats.throughputQps <= 0.0) {
            table.addRow({sweep.platforms()[p].name(), "-", "-", "-",
                          "-", "cannot meet SLA"});
            continue;
        }

        double engines =
            target_qps / stats.throughputQps;
        std::string note;
        if (sweep.platforms()[p].kind == PlatformKind::kCpu) {
            // Engines co-locate on 16-core sockets; shared-memory
            // contention means N engines deliver less than N x one.
            const RunResult& r = sweep.get(id, p, 256);
            const auto scaling = estimateMulticoreScaling(
                r.counters, sweep.platforms()[p].cpu, 16);
            const double per_socket =
                scaling.back().throughputScaling;
            const double sockets = engines / per_socket;
            note = TextTable::fmt(per_socket, 1) +
                   " engines-worth/socket -> " +
                   TextTable::fmt(sockets, 1) + " sockets";
        } else {
            note = TextTable::fmt(engines, 1) + " devices";
        }
        table.addRow({sweep.platforms()[p].name(),
                      TextTable::fmt(stats.throughputQps, 0),
                      TextTable::fmtSeconds(stats.p99Latency),
                      TextTable::fmt(stats.meanBatch, 1),
                      TextTable::fmt(engines, 1), note});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Tighten the SLA to watch the plan shift toward CPUs "
                "(small batches); loosen it to shift toward "
                "accelerators (Fig. 5).\n");
    return 0;
}
