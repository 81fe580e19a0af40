/**
 * @file
 * Extension: near-memory (PIM) embedding offload — rank-count and
 * tasklet sweeps over the analytical UPMEM-style platform
 * (src/pim/pim_model.h), plus the Fig. 3-style three-platform table
 * (Broadwell / T4 / PIM).
 *
 * The paper's cross-stack claim is that recommendation inference is
 * bottlenecked by irregular SparseLengthsSum traffic; near-memory
 * offload is the architectural answer the ROADMAP closes with. The
 * checks pin the qualitative shape that story must have:
 *
 *  - models whose CPU time is dominated by the SLS family (RM1, RM2)
 *    gain multiples end-to-end once the batch amortizes the host<->DPU
 *    transfer; FC/GRU-dominated models (WnD, DIEN) are Amdahl-bound by
 *    their tiny SLS share and see no gain;
 *  - the offloaded ops themselves always beat their CPU execution at
 *    large batch (even DIEN's small SLS share), while at batch 1 the
 *    per-op transfer latency makes PIM lose everywhere — which is why
 *    the serving engine routes by a batch-size threshold
 *    (docs/scheduling.md, docs/pim.md);
 *  - throughput is monotone in ranks and saturates at the host<->DPU
 *    transfer bound: past a few ranks the DPU term vanishes and more
 *    silicon buys nothing.
 */

#include "bench_util.h"
#include "pim/pim_model.h"

using namespace recstack;
using namespace recstack::bench;

namespace {

/** CPU seconds the SLS-family ops take in a run's breakdown. */
double
slsSeconds(const RunResult& r)
{
    double s = 0.0;
    for (const auto& [type, seconds] : r.breakdown.byType()) {
        if (type == "SparseLengthsSum" ||
            type == "SparseLengthsWeightedSum" ||
            type == "SparseLengthsMean") {
            s += seconds;
        }
    }
    return s;
}

}  // namespace

int
main()
{
    banner("Extension: PIM offload",
           "Near-memory embedding offload: rank/tasklet sweeps and the "
           "three-platform comparison");

    const std::vector<ModelId> models = {ModelId::kRM1, ModelId::kRM2,
                                         ModelId::kWnD, ModelId::kDIEN};
    const int64_t big_batch = 4096;
    const PimConfig base = upmemPimConfig();

    Characterizer c;
    struct ModelRow {
        ModelId id;
        RunResult cpu;
        RunResult gpu;
        RunResult pim;
        double hostSeconds = 0.0;  ///< PIM total minus offload
        std::vector<KernelProfile> offload;
        double cpuBatch1 = 0.0;
        double pimBatch1 = 0.0;
    };
    std::vector<ModelRow> rows;
    for (ModelId id : models) {
        ModelRow row;
        row.id = id;
        uint64_t input_bytes = 0;
        size_t input_blobs = 0;
        const std::vector<KernelProfile> profiles =
            c.profiles(id, big_batch, &input_bytes, &input_blobs);
        for (const KernelProfile& kp : profiles) {
            if (PimModel::offloadable(kp)) {
                row.offload.push_back(kp);
            }
        }
        row.cpu = simulateProfiles(profiles,
                                   makeCpuPlatform(broadwellConfig()),
                                   id, big_batch, input_bytes,
                                   input_blobs);
        row.gpu = simulateProfiles(profiles, makeGpuPlatform(t4Config()),
                                   id, big_batch, input_bytes,
                                   input_blobs);
        row.pim = simulateProfiles(profiles, makePimPlatform(base), id,
                                   big_batch, input_bytes, input_blobs);
        row.hostSeconds = row.pim.seconds - row.pim.pim.offloadSeconds;

        uint64_t b1_bytes = 0;
        size_t b1_blobs = 0;
        const std::vector<KernelProfile> b1 =
            c.profiles(id, 1, &b1_bytes, &b1_blobs);
        row.cpuBatch1 =
            simulateProfiles(b1, makeCpuPlatform(broadwellConfig()), id,
                             1, b1_bytes, b1_blobs)
                .seconds;
        row.pimBatch1 = simulateProfiles(b1, makePimPlatform(base), id,
                                         1, b1_bytes, b1_blobs)
                            .seconds;
        rows.push_back(std::move(row));
    }

    std::printf("\n--- three platforms at batch %lld ---\n",
                static_cast<long long>(big_batch));
    TextTable table({"model", "CPU SLS share", "BDW", "T4", "PIM",
                     "PIM speedup"});
    for (const ModelRow& row : rows) {
        table.addRow(
            {modelName(row.id),
             TextTable::fmtPercent(slsSeconds(row.cpu) /
                                   row.cpu.seconds),
             TextTable::fmtSeconds(row.cpu.seconds),
             TextTable::fmtSeconds(row.gpu.seconds),
             TextTable::fmtSeconds(row.pim.seconds),
             TextTable::fmtSpeedup(row.cpu.seconds /
                                   row.pim.seconds)});
    }
    std::printf("%s", table.render().c_str());

    // Rank sweep: re-price only the analytical offload (the host share
    // does not depend on the rank count).
    const std::vector<int> rank_points = {1, 2, 4, 8, 16, 32, 64, 128};
    std::printf("\n--- rank sweep, end-to-end speedup vs Broadwell "
                "(batch %lld) ---\n",
                static_cast<long long>(big_batch));
    std::vector<std::string> rank_header = {"model"};
    for (int ranks : rank_points) {
        rank_header.push_back("r" + std::to_string(ranks));
    }
    TextTable rank_table(rank_header);
    // speedups[model][rank point]
    std::vector<std::vector<double>> speedups;
    for (const ModelRow& row : rows) {
        std::vector<std::string> cells = {modelName(row.id)};
        std::vector<double> s;
        for (int ranks : rank_points) {
            PimConfig cfg = base;
            cfg.ranks = ranks;
            PimModel m(cfg);
            const double total =
                row.hostSeconds +
                m.simulateOffload(row.offload).offloadSeconds;
            s.push_back(row.cpu.seconds / total);
            cells.push_back(TextTable::fmtSpeedup(s.back()));
        }
        speedups.push_back(std::move(s));
        rank_table.addRow(cells);
    }
    std::printf("%s", rank_table.render().c_str());

    // Tasklet sweep at the base rank count.
    const std::vector<int> tasklet_points = {1, 2, 4, 8, 11, 16, 24};
    std::printf("\n--- tasklet sweep, offload seconds (batch %lld, "
                "%d ranks) ---\n",
                static_cast<long long>(big_batch), base.ranks);
    std::vector<std::string> t_header = {"model"};
    for (int t : tasklet_points) {
        t_header.push_back("t" + std::to_string(t));
    }
    TextTable t_table(t_header);
    bool tasklet_monotone = true;
    for (const ModelRow& row : rows) {
        std::vector<std::string> cells = {modelName(row.id)};
        double prev = -1.0;
        for (int t : tasklet_points) {
            PimConfig cfg = base;
            cfg.taskletsPerDpu = t;
            PimModel m(cfg);
            const double off =
                m.simulateOffload(row.offload).offloadSeconds;
            if (prev >= 0.0 && off > prev * (1.0 + 1e-9)) {
                tasklet_monotone = false;
            }
            prev = off;
            cells.push_back(TextTable::fmtSeconds(off));
        }
        t_table.addRow(cells);
    }
    std::printf("%s", t_table.render().c_str());

    checkHeader();
    // 1) SLS-dominated models gain; the gain tracks the SLS share.
    bool sls_gain = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        const ModelRow& row = rows[i];
        if (slsSeconds(row.cpu) / row.cpu.seconds > 0.5) {
            sls_gain &= row.cpu.seconds / row.pim.seconds >= 2.0;
        }
    }
    check(sls_gain, "SLS-dominated models (RM1/RM2: CPU SLS share > "
                    "50%) gain >= 2x end-to-end at large batch");

    // 2) FC/GRU-dominated models see no end-to-end gain.
    bool fc_flat = true;
    for (const ModelRow& row : rows) {
        if (slsSeconds(row.cpu) / row.cpu.seconds < 0.15) {
            fc_flat &= row.cpu.seconds / row.pim.seconds <= 1.15;
        }
    }
    check(fc_flat, "FC/GRU-dominated models (WnD/DIEN: CPU SLS share < "
                   "15%) see <= 1.15x — Amdahl-bound by the share");

    // 3) Per-op gain tracks the pooling factor (table bytes gathered
    //    per pooled byte returned). Heavy pooling (RM1: 80 lookups
    //    per output row, RM2: 120) compresses the download and the
    //    DPUs win by an order of magnitude; factor-~1 ops (WnD's
    //    one-lookup tables, DIEN) must ship the same bytes over the
    //    narrow host<->DPU link that the CPU reads from DRAM, so the
    //    download bound erases the advantage.
    bool pooled_gain = true;
    bool unpooled_flat = true;
    for (const ModelRow& row : rows) {
        const double factor =
            row.pim.pim.downloadBytes > 0
                ? static_cast<double>(row.pim.pim.tableBytes) /
                      static_cast<double>(row.pim.pim.downloadBytes)
                : 1.0;
        if (factor >= 5.0) {
            pooled_gain &= row.pim.pim.offloadSeconds <
                           slsSeconds(row.cpu) / 5.0;
        } else {
            unpooled_flat &= row.pim.pim.offloadSeconds >
                             slsSeconds(row.cpu) * 0.75;
        }
    }
    check(pooled_gain, "heavily pooled SLS ops (RM1/RM2: >= 5 table "
                       "bytes per pooled byte) run >= 5x faster on "
                       "the DPU ranks than on the CPU");
    check(unpooled_flat, "pooling-factor-~1 ops (WnD/DIEN) stay "
                         "download-bound: near-memory execution buys "
                         "nothing when the result is as big as the "
                         "gather");

    // 4) At batch 1 the per-op transfer latency dominates: PIM loses
    //    everywhere, which is what the threshold routing exists for.
    bool b1_loses = true;
    for (const ModelRow& row : rows) {
        b1_loses &= row.pimBatch1 >= row.cpuBatch1 * 0.99;
    }
    check(b1_loses, "at batch 1 the host<->DPU latency makes PIM no "
                    "better than the CPU on every model (threshold "
                    "routing keeps small batches on the host)");

    // 5) Monotone in ranks: more ranks never slow the offload.
    bool rank_monotone = true;
    for (const auto& s : speedups) {
        for (size_t i = 1; i < s.size(); ++i) {
            rank_monotone &= s[i] >= s[i - 1] * (1.0 - 1e-9);
        }
    }
    check(rank_monotone, "end-to-end speedup is monotone "
                         "nondecreasing in the rank count");

    // 6) Saturation at the transfer bound: the last rank doubling
    //    (64 -> 128) moves the SLS-heavy models' speedup by < 5%.
    bool saturates = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        if (slsSeconds(rows[i].cpu) / rows[i].cpu.seconds > 0.5) {
            const std::vector<double>& s = speedups[i];
            saturates &=
                s[s.size() - 1] <= s[s.size() - 2] * 1.05;
        }
    }
    // Cross-check against the analytical floor: the offload time at
    // 128 ranks is within 10% of dispatch + transfers alone.
    PimConfig big = base;
    big.ranks = 128;
    PimModel bound_model(big);
    for (const ModelRow& row : rows) {
        double floor_s = 0.0;
        for (const KernelProfile& kp : row.offload) {
            floor_s += bound_model.transferBoundSeconds(kp);
        }
        const double off =
            bound_model.simulateOffload(row.offload).offloadSeconds;
        saturates &= off <= floor_s * 1.10;
    }
    check(saturates, "speedup saturates at the host<->DPU transfer "
                     "bound: 64 -> 128 ranks moves < 5%, and the "
                     "128-rank offload sits within 10% of the "
                     "transfer-only floor");

    // 7) Tasklet scaling helps until the pipeline fills, never hurts.
    check(tasklet_monotone, "offload time is monotone nonincreasing "
                            "in tasklets/DPU (saturating at pipeline "
                            "fill / WRAM limit)");
    return bench::exitStatus();
}
