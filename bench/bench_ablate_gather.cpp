/**
 * @file
 * Ablation: GPU gather-efficiency sensitivity. The RM1/RM2 GPU story
 * (Fig. 3 top-left) hinges on how much of the GDDR bandwidth
 * irregular embedding gathers achieve; this sweep shows the speedup
 * ceiling as a function of that efficiency (the knob TensorDimm/
 * RecNMP-class designs attack).
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Ablation",
           "GPU gather efficiency vs RM2 speedup (batch 4096)");

    TextTable table({"gather efficiency", "RM2 GPU latency",
                     "speedup vs BDW", "data-comm share"});
    std::vector<double> speedups;
    for (double eff : {0.05, 0.09, 0.18, 0.35, 0.70}) {
        GpuConfig gpu = gtx1080TiConfig();
        gpu.gatherEfficiency = eff;
        SweepCache sweep({makeCpuPlatform(broadwellConfig()),
                          makeGpuPlatform(gpu)});
        const double speedup =
            sweep.speedupOverBaseline(ModelId::kRM2, 1, 4096);
        speedups.push_back(speedup);
        const RunResult& r = sweep.get(ModelId::kRM2, 1, 4096);
        table.addRow({TextTable::fmt(eff, 2),
                      TextTable::fmtSeconds(r.seconds),
                      TextTable::fmtSpeedup(speedup),
                      TextTable::fmtPercent(
                          r.gpu.dataCommFraction())});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    bool monotone = true;
    for (size_t i = 1; i < speedups.size(); ++i) {
        monotone &= speedups[i] >= speedups[i - 1] - 1e-9;
    }
    check(monotone, "RM2 GPU speedup grows monotonically with gather "
                    "efficiency");
    check(speedups.back() / speedups.front() > 1.5,
          "gather efficiency is a first-order lever for "
          "embedding-dominated models (the near-memory-processing "
          "opportunity)");
    return bench::exitStatus();
}
