/**
 * @file
 * Fig. 11: retired-instruction counts drop from Broadwell to Cascade
 * Lake thanks to wider AVX-512 (VNNI) instructions.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 11", "Retired instruction counts, BDW vs CLX");

    SweepCache sweep(allPlatforms());
    const int64_t batch = 16;

    TextTable table({"model", "BDW retired (M)", "CLX retired (M)",
                     "reduction"});
    for (ModelId id : allModels()) {
        const double bdw = static_cast<double>(
            sweep.get(id, kBdw, batch).counters.uopsRetired);
        const double clx = static_cast<double>(
            sweep.get(id, kClx, batch).counters.uopsRetired);
        table.addRow({modelName(id), TextTable::fmt(bdw / 1e6, 2),
                      TextTable::fmt(clx / 1e6, 2),
                      TextTable::fmtPercent(1.0 - clx / bdw)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    bool all_drop = true;
    for (ModelId id : allModels()) {
        all_drop &= sweep.get(id, kClx, batch).counters.uopsRetired <=
                    sweep.get(id, kBdw, batch).counters.uopsRetired;
    }
    check(all_drop, "retired instructions decrease (or hold) from BDW "
                    "to CLX for every model");
    auto reduction = [&](ModelId id) {
        const double bdw = static_cast<double>(
            sweep.get(id, kBdw, batch).counters.uopsRetired);
        const double clx = static_cast<double>(
            sweep.get(id, kClx, batch).counters.uopsRetired);
        return 1.0 - clx / bdw;
    };
    check(reduction(ModelId::kRM3) > reduction(ModelId::kRM1),
          "the FC-heavy RM3 sheds more instructions than the "
          "lookup-heavy RM1 (vector work halves, scalar work does not)");
    return bench::exitStatus();
}
