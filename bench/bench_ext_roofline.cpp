/**
 * @file
 * Extension: roofline coordinates of the eight models. Arithmetic
 * intensity (flops per DRAM byte) against each platform's compute and
 * bandwidth rooflines makes the paper's CPU/GPU split visible in one
 * number: the embedding models live far below every machine's ridge
 * point, the FC models far above it.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Extension", "Roofline coordinates (batch 256)");

    Characterizer characterizer;
    const Platform bdw = makeCpuPlatform(broadwellConfig());

    // Ridge points: flops/byte where compute == bandwidth bound.
    const double bdw_flops =
        2.6e9 * 2 * 8 * 2;  // 2 FMA ports x 8 lanes x 2 flops
    const double bdw_ridge = bdw_flops / (77.0 * 1e9);
    const GpuConfig gtx = gtx1080TiConfig();
    const double gtx_ridge =
        gtx.effTflops * 1e12 / (gtx.memGBs * 1e9 * gtx.gatherEfficiency);

    TextTable table({"model", "flops", "DRAM bytes", "overall f/B",
                     "embedding-phase f/B", "regime of dominant phase"});
    std::vector<double> intensity;
    std::vector<double> emb_intensity;
    for (ModelId id : allModels()) {
        const auto profiles = characterizer.profiles(id, 256);
        double flops = 0.0, dram_bytes = 0.0;
        double emb_flops = 0.0, emb_bytes = 0.0;
        for (const auto& kp : profiles) {
            const double kflops =
                static_cast<double>(kp.fmaFlops) +
                static_cast<double>(kp.vecElemOps);
            double kbytes = 0.0;
            for (const auto& s : kp.streams) {
                // Compulsory traffic: random gathers pay per access,
                // streaming pays per unique footprint byte.
                if (s.pattern == AccessPattern::kRandom) {
                    kbytes += static_cast<double>(s.totalBytes());
                } else {
                    kbytes += static_cast<double>(std::min(
                        s.totalBytes(), s.footprintBytes));
                }
            }
            flops += kflops;
            dram_bytes += kbytes;
            const bool embedding =
                kp.opType.rfind("SparseLengths", 0) == 0 ||
                kp.opType == "Gather" || kp.opType == "ResourceGather";
            if (embedding) {
                emb_flops += kflops;
                emb_bytes += kbytes;
            }
        }
        const double ai = flops / dram_bytes;
        const double emb_ai =
            emb_bytes > 0.0 ? emb_flops / emb_bytes : 0.0;
        intensity.push_back(ai);
        emb_intensity.push_back(emb_ai);
        // The regime that dominates runtime: the embedding phase for
        // models whose gather traffic dwarfs the rest.
        const bool emb_dominant = emb_bytes > 0.5 * dram_bytes;
        const double decisive_ai = emb_dominant ? emb_ai : ai;
        table.addRow({modelName(id),
                      TextTable::fmt(flops / 1e9, 2) + " G",
                      TextTable::fmt(dram_bytes / 1e6, 1) + " MB",
                      TextTable::fmt(ai, 2),
                      emb_bytes > 0.0 ? TextTable::fmt(emb_ai, 2) : "-",
                      decisive_ai > bdw_ridge ? "compute-bound"
                                              : "bandwidth-bound"});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nridge points: Broadwell %.2f flops/byte, 1080Ti "
                "(gathers) %.2f flops/byte\n",
                bdw_ridge, gtx_ridge);

    checkHeader();
    const auto index_of = [&](ModelId id) {
        size_t i = 0;
        for (ModelId m : allModels()) {
            if (m == id) {
                break;
            }
            ++i;
        }
        return i;
    };
    check(intensity[index_of(ModelId::kRM3)] >
              10 * intensity[index_of(ModelId::kRM2)],
          "RM3's arithmetic intensity dwarfs RM2's (FC vs embedding "
          "regimes)");
    check(emb_intensity[index_of(ModelId::kRM2)] < bdw_ridge,
          "RM2's embedding phase sits below Broadwell's ridge point: "
          "bandwidth-bound on any core count (Fig. 14 in roofline "
          "terms)");
    check(intensity[index_of(ModelId::kRM3)] > bdw_ridge,
          "RM3 sits above the ridge point: compute-bound (Fig. 10's "
          "core-bound result in roofline terms)");
    return bench::exitStatus();
}
