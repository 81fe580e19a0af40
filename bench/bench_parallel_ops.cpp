/**
 * @file
 * Intra-op parallelism study: per-batch latency of an FC-heavy model
 * (Wide&Deep) under the shared chunked-range thread pool at 1/2/4/8
 * intra-op threads, plus the serving engine's measured per-batch
 * host-seconds speedup when workers widen their kernels.
 *
 * The pool partitions each kernel over disjoint output rows, so the
 * numerics are bit-identical at every width (tests/
 * test_parallel_equivalence.cc); this bench reports what that buys in
 * wall-clock, per kernel tier (scalar and, when the host supports it,
 * avx2 — the two dimensions compose: docs/vectorization.md). The
 * >=2x-at-8-threads check only runs when the machine actually has 8
 * hardware threads; on smaller hosts the table is still printed and
 * the check is skipped with a note.
 */

#include <chrono>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "graph/executor.h"
#include "models/model.h"
#include "serve/serving_node.h"

namespace recstack {
namespace {

double
bestSeconds(const Model& model, Workspace& ws, int threads, int reps)
{
    ExecOptions opts;
    opts.mode = ExecMode::kNumericOnly;
    opts.numThreads = threads;
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        Executor::run(model.net, ws, opts);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

void
runBench()
{
    bench::banner("EXT-PARALLEL",
                  "intra-op kernel speedup on the shared thread pool");
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware threads: %u\n", hw);

    ModelOptions opts;  // full-size model: FC work dominates WnD
    opts.tableScale = 0.05;
    const Model model = buildModel(ModelId::kWnD, opts);
    Workspace ws;
    model.initParams(ws);
    BatchGenerator gen(model.workload, /*seed=*/7);

    const std::vector<int64_t> batches = {64, 256, 1024};
    const std::vector<int> widths = {1, 2, 4, 8};
    const int reps = 3;

    std::vector<KernelIsa> tiers = {KernelIsa::kScalar};
    if (kernelIsaSupported(KernelIsa::kAvx2)) {
        tiers.push_back(KernelIsa::kAvx2);
    } else {
        std::printf("(avx2 kernel tier unsupported on this host/build; "
                    "scalar only)\n");
    }

    // Thread scaling must hold on every kernel tier: vectorization
    // shrinks per-chunk work but not the disjoint-row partitioning.
    double speedup_8t_b256 = 0.0;
    for (const KernelIsa isa : tiers) {
        IsaScope tier(isa);
        std::printf("\nkernel tier: %s\n%-8s", kernelIsaName(isa),
                    "batch");
        for (int w : widths) {
            std::printf("  t=%-2d seconds  speedup", w);
        }
        std::printf("\n");
        for (int64_t batch : batches) {
            gen.materialize(ws, batch);
            bestSeconds(model, ws, 1, 1);  // warm allocations
            std::printf("%-8lld", static_cast<long long>(batch));
            double serial = 0.0;
            for (int w : widths) {
                const double secs = bestSeconds(model, ws, w, reps);
                if (w == 1) {
                    serial = secs;
                }
                const double speedup = serial / secs;
                std::printf("  %12.6f  %6.2fx", secs, speedup);
                if (w == 8 && batch >= 256 &&
                    speedup > speedup_8t_b256) {
                    speedup_8t_b256 = speedup;
                }
            }
            std::printf("\n");
        }
    }

    // Serving engine: same pool shared by the inter-op workers.
    std::printf("\nServingNode (WnD tiny, 2 workers, numeric):\n");
    SweepCache sweep(allPlatforms(), [] {
        ModelOptions tiny = tinyOptions();
        tiny.tableScale = 0.01;
        return tiny;
    }());
    QueryScheduler sched(&sweep, {1, 16, 256, 4096});
    ServingNode engine(&sched, ModelId::kWnD, bench::kBdw);
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 256;
    cfg.simSeconds = 0.25;
    cfg.execMode = ExecMode::kNumericOnly;
    std::printf("%-10s  %-18s\n", "intra-op", "host sec/batch");
    double engine_serial = 0.0, engine_wide = 0.0;
    for (int w : {1, 8}) {
        cfg.numThreads = w;
        const EngineResult res = engine.run(cfg);
        std::printf("%-10d  %-18.9f\n", res.intraOpThreads,
                    res.hostSecondsPerBatch);
        (w == 1 ? engine_serial : engine_wide) =
            res.hostSecondsPerBatch;
    }

    bench::checkHeader();
    if (hw >= 8) {
        bench::check(speedup_8t_b256 >= 2.0,
                     "FC-heavy model gains >=2x per-batch at 8 "
                     "threads, batch >= 256");
        bench::check(engine_wide < engine_serial,
                     "serving workers' per-batch host seconds drop "
                     "when kernels widen");
    } else {
        std::printf(
            "  [SKIPPED   ] machine has %u hardware threads; the "
            ">=2x @ 8-thread check needs >= 8\n",
            hw);
    }
}

}  // namespace
}  // namespace recstack

int
main()
{
    recstack::runBench();
    return recstack::bench::exitStatus();
}
