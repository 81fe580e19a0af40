/**
 * @file
 * Extension (beyond the paper): co-located inference engines per
 * socket. The paper measures single-threaded inference; production
 * serving packs one engine per core (DeepRecSys). Projecting the
 * measured single-core cycle accounts to N engines shows the
 * embedding-dominated models exhausting shared L3/DRAM long before
 * the FC models — the capacity argument behind the near-memory-
 * processing work the paper cites (TensorDimm, RecNMP).
 */

#include "bench_util.h"
#include "uarch/multicore.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Extension", "Co-located engines per socket (Broadwell, "
                        "batch 256)");

    SweepCache sweep({makeCpuPlatform(broadwellConfig())});
    const int kCores = 16;  // Table II: 16-core Xeon E5-2697A

    TextTable table({"model", "4 engines", "8 engines", "16 engines",
                     "DRAM demand @16"});
    std::vector<double> scaling16;
    for (ModelId id : allModels()) {
        const RunResult& r = sweep.get(id, 0, 256);
        const auto points = estimateMulticoreScaling(
            r.counters, broadwellConfig(), kCores);
        scaling16.push_back(points[15].throughputScaling);
        table.addRow(
            {modelName(id),
             TextTable::fmt(points[3].throughputScaling, 1) + "x",
             TextTable::fmt(points[7].throughputScaling, 1) + "x",
             TextTable::fmt(points[15].throughputScaling, 1) + "x",
             TextTable::fmtPercent(
                 std::min(1.0, points[15].dramDemandFraction))});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    const auto scale_of = [&](ModelId id) {
        const RunResult& r = sweep.get(id, 0, 256);
        return estimateMulticoreScaling(r.counters, broadwellConfig(),
                                        kCores)
            .back()
            .throughputScaling;
    };
    check(scale_of(ModelId::kRM3) > scale_of(ModelId::kRM2),
          "FC-dominated RM3 scales across cores better than "
          "embedding-dominated RM2");
    check(scale_of(ModelId::kRM2) < 0.75 * kCores,
          "RM2 saturates the socket's shared memory system well below "
          "linear scaling (the near-memory-processing motivation)");
    bool all_valid = true;
    for (double s : scaling16) {
        all_valid &= s >= 1.0 && s <= kCores + 1e-9;
    }
    check(all_valid, "scaling estimates stay within [1, cores]");
    return bench::exitStatus();
}
