/**
 * @file
 * Ablation: embedding index skew. Production recommendation traffic
 * is heavily skewed; the uniform-random worst case over-states DRAM
 * pressure. This sweep quantifies how much of RM2's memory-bound
 * profile is locality-dependent (the premise of RecNMP-style
 * memory-side caching).
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Ablation", "Embedding index skew (RM2, Broadwell, batch 256)");

    TextTable table({"zipf exponent", "latency", "backend-memory share",
                     "DRAM accesses (M)", "congested cycles"});
    std::vector<double> latencies;
    std::vector<double> dram;
    for (double zipf : {0.0, 0.4, 0.75, 1.0, 1.2}) {
        ModelOptions opts;
        opts.zipfExponent = zipf;
        SweepCache sweep({makeCpuPlatform(broadwellConfig())}, opts);
        const RunResult& r = sweep.get(ModelId::kRM2, 0, 256);
        latencies.push_back(r.seconds);
        dram.push_back(static_cast<double>(r.counters.dramAccesses));
        table.addRow(
            {TextTable::fmt(zipf, 2), TextTable::fmtSeconds(r.seconds),
             TextTable::fmtPercent(r.topdown.l2.beMemory),
             TextTable::fmt(
                 static_cast<double>(r.counters.dramAccesses) / 1e6, 2),
             TextTable::fmtPercent(r.topdown.dramCongestedFraction)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    check(dram.front() > dram.back(),
          "skewed indices hit cached hot rows: DRAM traffic falls as "
          "the zipf exponent grows");
    check(latencies.front() > latencies.back(),
          "locality translates directly into latency for the "
          "embedding-dominated RM2");
    return bench::exitStatus();
}
