/**
 * @file
 * char_grid: the Fig. 3 characterization grid on the host clock.
 *
 * All eight full-size models x allPlatformsWithPim() x the paper's
 * batch sizes up to kBatchCap, visited in `recstack sweep` order
 * (model, then platform, then batch) through SweepCache::get. One op is
 * one grid point. The µarch simulator does almost all the work; no
 * kernel runs numerically and no store lookup happens, so this is the
 * control workload for kernel and store changes.
 *
 * A run repeats whole passes until kMinShare of --seconds of point time
 * has been measured. Each pass gets a fresh SweepCache whose models are
 * built untimed beforehand, so every pass simulates every point. Every
 * simulated statistic of every point is hashed and compared with the
 * digest recorded in perfbench/char_grid_digest.txt.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/sweep.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace recstack;

/// Largest paper batch size in the grid, fitted to the run length: a
/// pass takes about 11 s on a 4-core Xeon VM (DIN and DIEN dominate), so
/// --seconds 20 gives two passes. With one pass to 64 (about 20 s), the
/// small models' points, which set p50_ms, all ran in the pass's first
/// two seconds, and host-speed swings over those seconds made p50_ms
/// spread more than its bound from run to run.
constexpr int64_t kBatchCap = 16;

/// Passes repeat until this share of --seconds is measured.
constexpr double kMinShare = 0.75;

const char* kDigestFile = "char_grid_digest.txt";

std::vector<int64_t>
gridBatches()
{
    std::vector<int64_t> out;
    for (int64_t b : paperBatchSizes()) {
        if (b <= kBatchCap) {
            out.push_back(b);
        }
    }
    return out;
}

class Hasher
{
  public:
    void add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h_ = fnv1a(&bits, sizeof(bits), h_);
    }
    void add(uint64_t v) { h_ = fnv1a(&v, sizeof(v), h_); }
    void add(const std::string& s)
    {
        add(static_cast<uint64_t>(s.size()));
        h_ = fnv1a(s.data(), s.size(), h_);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** Digest of every simulated statistic of one grid point. */
uint64_t
digestOf(const RunResult& r)
{
    Hasher h;
    h.add(r.platformName);
    h.add(static_cast<uint64_t>(r.batch));
    h.add(r.seconds);
    h.add(r.breakdown.total());
    for (const auto& [type, seconds] : r.breakdown.byType()) {
        h.add(type);
        h.add(seconds);
    }

    const CpuCounters& c = r.counters;
    for (uint64_t v :
         {c.uopsRetired, c.scalarUopsRetired, c.branches,
          c.branchMispredicts, c.l1dAccesses, c.l1dHits, c.l2Hits,
          c.l3Hits, c.dramAccesses, c.dramBytes, c.icacheAccesses,
          c.icacheMisses, c.uopsFromDsb, c.uopsFromMite, c.dsbSwitches}) {
        h.add(v);
    }
    for (double v :
         {c.cycles, c.retireCycles, c.feLatencyCycles,
          c.feBandwidthDsbCycles, c.feBandwidthMiteCycles,
          c.badSpecCycles, c.beCoreCycles, c.beMemL2Cycles,
          c.beMemL3Cycles, c.beMemDramLatCycles, c.beMemDramBwCycles,
          c.dramCongestedCycles, c.storeCycles}) {
        h.add(v);
    }
    for (double v : c.portsBusyAtLeast) {
        h.add(v);
    }

    const TopDownResult& t = r.topdown;
    for (double v :
         {t.l1.retiring, t.l1.badSpeculation, t.l1.frontendBound,
          t.l1.backendBound, t.l2.feLatency, t.l2.feBandwidth,
          t.l2.feBandwidthDsb, t.l2.feBandwidthMite, t.l2.beCore,
          t.l2.beMemory, t.l2.memL2, t.l2.memL3, t.l2.memDramLatency,
          t.l2.memDramBandwidth, t.cycles, t.ipc, t.avxFraction,
          t.imspki, t.mispredictsPerKuop, t.dramCongestedFraction,
          t.fuUsage3Plus}) {
        h.add(v);
    }

    const GpuRunResult& g = r.gpu;
    h.add(g.kernelSeconds);
    h.add(g.transferSeconds);
    h.add(g.totalSeconds);
    for (const GpuOpTime& op : g.opTimes) {
        h.add(op.opType);
        h.add(op.opName);
        for (double v : {op.seconds, op.launchSeconds, op.computeSeconds,
                         op.memorySeconds}) {
            h.add(v);
        }
    }

    const PimRunResult& p = r.pim;
    for (double v : {p.offloadSeconds, p.dispatchSeconds, p.uploadSeconds,
                     p.dpuSeconds, p.downloadSeconds}) {
        h.add(v);
    }
    for (uint64_t v : {p.offloadedOps, p.uploadBytes, p.tableBytes,
                       p.downloadBytes, p.lookups}) {
        h.add(v);
    }
    for (const PimOpTime& op : p.opTimes) {
        h.add(op.opType);
        h.add(op.opName);
        for (double v : {op.dispatchSeconds, op.uploadSeconds,
                         op.dpuSeconds, op.downloadSeconds, op.seconds}) {
            h.add(v);
        }
        for (uint64_t v :
             {op.uploadBytes, op.tableBytes, op.downloadBytes, op.lookups}) {
            h.add(v);
        }
    }
    return h.value();
}

std::string
pointKey(ModelId model, size_t platform, int64_t batch)
{
    return std::string(modelName(model)) + " " + std::to_string(platform) +
           " " + std::to_string(batch);
}

/** Recorded digests, keyed by pointKey(); empty when the file is absent. */
std::map<std::string, uint64_t>
loadDigests(const std::string& path)
{
    std::map<std::string, uint64_t> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string model, platform, batch, hex;
        if (fields >> model >> platform >> batch >> hex) {
            out[model + " " + platform + " " + batch] =
                std::strtoull(hex.c_str(), nullptr, 16);
        }
    }
    return out;
}

/** A SweepCache with every model built (the untimed part of a pass). */
std::unique_ptr<SweepCache>
freshSweep()
{
    auto sweep = std::make_unique<SweepCache>(allPlatformsWithPim());
    Span span("models.build");
    for (ModelId id : allModels()) {
        (void)sweep->characterizer().model(id);
    }
    return sweep;
}

const char*
simSpanName(PlatformKind kind)
{
    switch (kind) {
      case PlatformKind::kCpu: return "uarch.sim";
      case PlatformKind::kGpu: return "gpu.sim";
      case PlatformKind::kPim: return "pim.sim";
    }
    return "uarch.sim";
}

}  // namespace

Outcome
runCharGrid(const Options& opts)
{
    Outcome out;
    const std::vector<int64_t> batches = gridBatches();
    const std::string digest_path = opts.benchDir + "/" + kDigestFile;

    std::unique_ptr<SweepCache> sweep;
    const double setup_s = medianSetupSeconds(
        kSetupReps, [&](int) { sweep = freshSweep(); });

    const std::map<std::string, uint64_t> recorded =
        loadDigests(digest_path);
    if (recorded.empty() && !opts.recordDigest) {
        out.fail("no recorded digests in " + digest_path);
    }
    std::map<std::string, uint64_t> seen;  // --record-digest only

    std::vector<double> point_ms;
    double timed = 0.0;
    uint64_t cpu_accesses = 0;  // extrapolated CpuCounters::l1dAccesses
    size_t points_per_pass = 0;
    for (int pass = 0; pass == 0 || timed < kMinShare * opts.seconds;
         ++pass) {
        if (pass > 0) {
            sweep = freshSweep();
        }
        const size_t num_platforms = sweep->platforms().size();
        for (ModelId id : allModels()) {
            for (size_t p = 0; p < num_platforms; ++p) {
                const PlatformKind kind = sweep->platforms()[p].kind;
                for (int64_t b : batches) {
                    const Clock::time_point t0 = Clock::now();
                    const RunResult* r = nullptr;
                    {
                        Span point("grid.point");
                        if (tracingEnabled() && p == 0) {
                            // First visit of (model, batch): lower the
                            // profiles under their own span so the
                            // simulator span below sees them memoized.
                            Span lower("core.lower");
                            (void)sweep->characterizer().profiles(id, b);
                        }
                        Span sim(simSpanName(kind));
                        r = &sweep->get(id, p, b);
                    }
                    const double s = secondsSince(t0);
                    timed += s;
                    point_ms.push_back(s * 1e3);
                    ++out.attempted;
                    if (kind == PlatformKind::kCpu) {
                        cpu_accesses += r->counters.l1dAccesses;
                    }

                    const std::string key = pointKey(id, p, b);
                    const uint64_t d = digestOf(*r);
                    if (opts.recordDigest) {
                        seen[key] = d;
                        continue;
                    }
                    auto it = recorded.find(key);
                    if (it == recorded.end()) {
                        out.fail("no recorded digest for " + key);
                    } else if (it->second != d) {
                        out.fail("simulated statistics of " + key +
                                 " differ from the recorded digest");
                    }
                }
            }
        }
        if (pass == 0) {
            points_per_pass = point_ms.size();
        }
        if (opts.recordDigest) {
            break;
        }
    }

    if (opts.recordDigest) {
        std::ofstream f(digest_path);
        f << "# char_grid digests: model, platform index in "
             "allPlatformsWithPim(), batch, FNV-1a of every simulated "
             "statistic.\n# Refreshed only by a change to the benchmark "
             "itself; see README.md.\n";
        for (const auto& [key, d] : seen) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "%016" PRIx64, d);
            f << key << " " << hex << "\n";
        }
        f.close();
        if (!f) {
            out.fail("cannot write " + digest_path);
        } else {
            std::fprintf(stderr, "perfbench: wrote %zu digests to %s\n",
                         seen.size(), digest_path.c_str());
        }
        return out;
    }

    // The tail rank comes from one pass, so it means the same point
    // whatever the number of passes.
    const double tail_q = tailQuantile(points_per_pass);
    out.endToEnd["setup_s"] = {setup_s, "s"};
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MiB"};
    out.endToEnd["items_per_s"] = {
        static_cast<double>(point_ms.size()) / timed, "1/s"};
    out.endToEnd["p50_ms"] = {median(point_ms), "ms"};
    out.endToEnd["tail_ms"] = {quantile(point_ms, tail_q), "ms"};

    if (tracingEnabled()) {
        const std::vector<SpanRecord> spans = finishedSpans();
        const double sim_total = totalSpanSeconds(spans, "uarch.sim");
        out.perLayer["core.lower_ms"] = {
            median(spanSeconds(spans, "core.lower")) * 1e3, "ms"};
        out.perLayer["uarch.sim_ms"] = {
            median(spanSeconds(spans, "uarch.sim")) * 1e3, "ms"};
        out.perLayer["uarch.ns_per_access"] = {
            cpu_accesses > 0 ? sim_total * 1e9 /
                                   static_cast<double>(cpu_accesses)
                             : 0.0,
            "ns"};
        out.perLayer["uarch.sim_share"] = {
            sim_total / totalSpanSeconds(spans, "grid.point"), "ratio"};
        out.perLayer["gpu.sim_ms"] = {
            median(spanSeconds(spans, "gpu.sim")) * 1e3, "ms"};
        out.perLayer["pim.sim_ms"] = {
            median(spanSeconds(spans, "pim.sim")) * 1e3, "ms"};
        out.perLayer["models.build_s"] = {
            median(spanSeconds(spans, "models.build")), "s"};
        out.perLayer["trace.items_per_s"] = out.endToEnd["items_per_s"];
    }
    return out;
}

}  // namespace perfbench
