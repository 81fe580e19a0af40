/**
 * @file
 * perfbench: the repository's host-clock benchmark.
 *
 *   perfbench --workload <char_grid|serve_sls|serve_fc|serve_queue|
 *                         fleet_diurnal>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir DIR] [--bench-dir DIR] [--record-digest]
 *
 * Runs one workload in this process and prints, as the last line of
 * standard output, one JSON object with the keys correct, attempted,
 * failed and metrics. --trace 0 reports the end-to-end metrics;
 * --trace 1 records the harness's spans, reports the per-layer metrics
 * and writes the spans as Chrome-trace JSON under the work dir. See
 * perfbench/README.md.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "spans.h"

namespace perfbench {
namespace {

const Clock::time_point g_process_start = Clock::now();

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--bench-dir DIR] [--record-digest]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            o.trace = value() == "1";
        } else if (arg == "--work-dir") {
            o.workDir = value();
        } else if (arg == "--bench-dir") {
            o.benchDir = value();
        } else if (arg == "--record-digest") {
            o.recordDigest = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload.empty() || !have_seed) {
        usage("--workload and --seed are required");
    }
    if (o.recordDigest && o.workload != "char_grid") {
        usage("--record-digest applies to char_grid only");
    }
    if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
        usage("--seconds must be in (0, 600]");
    }
    return o;
}

/**
 * Every per-layer metric, with its unit. A traced run prints all of
 * them; a layer the workload never calls reads 0.
 */
const std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"workload.materialize_ms", "ms"}, {"graph.exec_ms", "ms"},
    {"graph.overhead_ms", "ms"},       {"graph.sls_share", "ratio"},
    {"graph.fc_share", "ratio"},       {"ops.sls_ms", "ms"},
    {"ops.fc_ms", "ms"},               {"ops.sls_gbs", "GB/s"},
    {"ops.fc_gflops", "GFLOP/s"},      {"store.ns_per_lookup", "ns"},
    {"store.hit_rate", "ratio"},       {"store.disk_frac", "ratio"},
    {"store.disk_read_ms", "ms"},      {"store.update_us_p50", "us"},
    {"store.update_us_p99", "us"},     {"store.resident_mb", "MiB"},
    {"loadgen.queue_ms_p50", "ms"},    {"loadgen.queue_ms_p99", "ms"},
    {"loadgen.late_ms_p99", "ms"},     {"loadgen.threads", "count"},
    {"models.build_s", "s"},           {"core.lower_ms", "ms"},
    {"uarch.sim_ms", "ms"},            {"uarch.ns_per_access", "ns"},
    {"uarch.sim_share", "ratio"},      {"gpu.sim_ms", "ms"},
    {"pim.sim_ms", "ms"},              {"sched.warm_s", "s"},
    {"serve.run_s", "s"},              {"serve.replay_s", "s"},
    {"serve.sim_share", "ratio"},      {"trace.items_per_s", "1/s"},
    {"trace.service_coverage", "ratio"},
};

void
printMetrics(const std::map<std::string, Metric>& metrics)
{
    std::printf("\"metrics\": {");
    bool first = true;
    for (const auto& [name, m] : metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), v, m.unit.c_str());
        first = false;
    }
    std::printf("}");
}

}  // namespace

Clock::time_point
processStart()
{
    return g_process_start;
}

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const Options opts = parseArgs(argc, argv);
    if (opts.trace) {
        enableTracing();
    }
    std::error_code ec;
    std::filesystem::create_directories(opts.workDir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     opts.workDir.c_str(), ec.message().c_str());
        return 2;
    }

    Outcome out;
    try {
        if (opts.workload == "char_grid") {
            out = runCharGrid(opts);
        } else if (opts.workload == "serve_sls") {
            out = runServe(opts, /*sls=*/true);
        } else if (opts.workload == "serve_fc") {
            out = runServe(opts, /*sls=*/false);
        } else if (opts.workload == "fleet_diurnal") {
            out = runFleet(opts);
        } else if (opts.workload == "serve_queue") {
            out = runServeQueue(opts);
        } else {
            usage(("unknown workload " + opts.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }
    if (opts.recordDigest) {
        return out.failed == 0 ? 0 : 1;
    }

    if (opts.trace) {
        const std::string path = opts.workDir + "/trace-" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".json";
        if (writeChromeTrace(path)) {
            std::fprintf(stderr, "perfbench: spans written to %s\n",
                         path.c_str());
        } else {
            out.fail("cannot write " + path);
        }
    }
    if (out.attempted == 0) {
        out.fail("no operation attempted");
        out.attempted = 1;
    }

    if (opts.trace) {
        for (const auto& [name, unit] : kPerLayerMetrics) {
            out.perLayer.try_emplace(name, Metric{0.0, unit});
        }
    }
    const auto& metrics = opts.trace ? out.perLayer : out.endToEnd;
    for (const auto& [name, m] : metrics) {
        if (!std::isfinite(m.value)) {
            out.fail("metric " + name + " is not finite");
        }
    }
    if (out.failed > 0) {
        std::fprintf(stderr, "perfbench: %llu of %llu ops failed a check\n",
                     static_cast<unsigned long long>(out.failed),
                     static_cast<unsigned long long>(out.attempted));
    }
    std::fflush(stderr);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    printMetrics(metrics);
    std::printf("}\n");
    std::fflush(stdout);
    return 0;
}
