/**
 * @file
 * perfbench: run one workload for a fixed host-time budget and print
 * its end-to-end metrics (--trace 0) or its per-layer metrics from a
 * traced run (--trace 1). The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 *
 * A run repeats the workload's fixed-size repetition until --seconds
 * of wall time have passed. Modelled (sim_*) results and counts must
 * be bit-identical across repetitions; host_* results and setup_s are
 * medians over repetitions. Exits 1 when any output check fails.
 *
 * Usage: perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--trace-out <file.json>]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *key = argv[i];
        std::string val = argv[i + 1];
        char *end = nullptr;
        if (std::strcmp(key, "--workload") == 0) {
            a.workload = val;
        } else if (std::strcmp(key, "--seed") == 0) {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            haveSeed = !val.empty() && *end == '\0';
        } else if (std::strcmp(key, "--seconds") == 0) {
            a.seconds = std::strtod(val.c_str(), &end);
            haveSeconds = !val.empty() && *end == '\0' && a.seconds > 0;
        } else if (std::strcmp(key, "--trace") == 0) {
            haveTrace = val == "0" || val == "1";
            a.trace = val == "1";
        } else if (std::strcmp(key, "--trace-out") == 0) {
            a.traceOut = val;
        } else {
            return false;
        }
    }
    const auto &names = workloadNames();
    return argc % 2 == 1 && haveSeed && haveSeconds && haveTrace &&
           std::find(names.begin(), names.end(), a.workload) != names.end();
}

double
hostOpsPerS(const Rep &r)
{
    return r.measureS > 0 ? static_cast<double>(r.attempted) / r.measureS
                          : 0;
}

/** CPU seconds the reference kernel takes on the reference host. */
constexpr double referenceNominalS = 0.010;

/**
 * Host-speed reference: CPU seconds of a fixed kernel of the kinds of
 * work the simulator's host path does (string-keyed map updates, 64 KiB
 * copies, an integer sort). It lives in the benchmark, so no change to
 * the library alters it; co-tenants that slow the host slow it too.
 */
double
referenceKernelS()
{
    static std::vector<std::string> keys;
    if (keys.empty())
        for (int i = 0; i < 64; ++i)
            keys.push_back("gate.counter." + std::to_string(i * 7919));
    double t0 = cpuSeconds();
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t acc = 0;
    for (int i = 0; i < 200000; ++i)
        acc += ++counters[keys[i % 64]];
    std::vector<char> a(65536, 1), b(65536);
    for (int i = 0; i < 200; ++i) {
        std::memcpy(b.data(), a.data(), a.size());
        a[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i) * 3];
    }
    std::vector<std::uint32_t> v(20000);
    std::uint32_t x = 1;
    for (std::uint32_t &e : v)
        e = x = x * 1664525u + 1013904223u;
    std::sort(v.begin(), v.end());
    acc += v[100] + static_cast<std::uint64_t>(b[5]);
    double t1 = cpuSeconds();
    // Keep the work observable so it cannot be optimized away.
    if (acc == 0)
        std::fprintf(stderr, "reference kernel: impossible sum\n");
    return t1 - t0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    const char *note;
    /**
     * Whether the metric goes into the JSON result. Modelled latency
     * and op rate are printed but left out: on iperf-ept2 and
     * sqlite-mpk3 they are quantized to the same vcycle counts for
     * every seed, and sim_goodput_gbps already gates the modelled
     * clock on every workload.
     */
    bool json = true;
};

/** Per-layer metric units, in the order they are printed. */
const std::vector<std::pair<const char *, const char *>> layerUnits = {
    {"core.crossings_per_op", "count/op"},
    {"core.dss_stack_allocs_per_op", "count/op"},
    {"core.gate_vcycles", "vcycles"},
    {"core.gate_host_ns", "ns"},
    {"core.setup_build_s", "s"},
    {"backends.ept_rpcs_per_op", "count/op"},
    {"backends.ept_ring_depth_max", "count"},
    {"backends.ept_elastic_spawns", "count"},
    {"uksched.dispatches_per_op", "count/op"},
    {"uksched.idle_jumps_per_op", "count/op"},
    {"uksched.switch_host_ns", "ns"},
    {"machine.idle_share", "share"},
    {"machine.stall_cycles_per_op", "vcycles/op"},
    {"machine.bump_host_ns", "ns"},
    {"net.frames_per_op", "count/op"},
    {"net.segments_per_op", "count/op"},
    {"net.retransmits_per_op", "count/op"},
    {"net.useful_segment_ratio", "share"},
    {"net.dropped", "count"},
    {"ukalloc.allocs_per_op", "count/op"},
    {"ukalloc.steps_per_alloc", "count/alloc"},
    {"ukalloc.failed", "count"},
    {"ukalloc.alloc_free_host_ns", "ns"},
    {"vfs.ops_per_op", "count/op"},
    {"vfs.ramfs_ops_per_op", "count/op"},
    {"vfs.pwrite_fsync_host_ns", "ns"},
    {"apps.exec_host_ns", "ns"},
    {"apps.exec_vcycles", "vcycles"},
    {"apps.commands_served", "count"},
    {"explore.enumerate_s", "s"},
    {"explore.poset_s", "s"},
    {"bench.trace_overhead_share", "share"},
};

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char *sep = "";
    for (const Metric &m : metrics) {
        if (!m.json)
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    sep, m.name.c_str(), m.value, m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <redis-mpk3|iperf-ept2|"
                     "sqlite-mpk3|redis-sweep80> --seed <n> --seconds <s> "
                     "--trace <0|1> [--trace-out <file.json>]\n");
        return 2;
    }

    // Repeat until the budget is spent; the trace run alternates
    // traced and untraced repetitions so the tracing overhead is
    // measured under the same conditions.
    const std::size_t minReps = args.trace ? 4 : 3;
    const std::int64_t deadline =
        hostNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    Tracer tracer;
    Rep first;
    // host_ops_per_s and setup_s are normalized to the reference host
    // speed per repetition; raw figures are printed beside them.
    std::vector<double> hostPlain, hostTraced, setups, builds;
    std::vector<double> rawHost, slowdowns;
    std::uint64_t attempted = 0, failed = 0;
    bool deterministic = true;
    std::size_t reps = 0;
    for (; reps < minReps || hostNs() < deadline; ++reps) {
        bool traced = args.trace && reps % 2 == 0;
        std::size_t mark = tracer.size();
        double ref0 = referenceKernelS();
        std::uint32_t span = traced ? tracer.begin("rep", 0, 0) : 0;
        Rep r = runRep(args.workload, args.seed, 1.0,
                       traced ? &tracer : nullptr, span);
        if (traced) {
            tracer.end(span, 0);
            if (reps > 0)
                tracer.rollback(mark);
        }
        // Host speed over the repetition, as a multiple of the
        // reference host's: kernel time bracketing it over nominal.
        double slowdown =
            (ref0 + referenceKernelS()) / 2 / referenceNominalS;
        slowdowns.push_back(slowdown);
        rawHost.push_back(hostOpsPerS(r));
        (traced ? hostTraced : hostPlain)
            .push_back(hostOpsPerS(r) * slowdown);
        setups.push_back(r.setupS / slowdown);
        builds.push_back(r.buildS);
        attempted += r.attempted;
        failed += r.failed;
        if (reps == 0)
            first = std::move(r);
        else if (!sameModel(first, r))
            deterministic = false;
    }

    std::vector<std::string> errors = first.errors;
    if (!deterministic)
        errors.push_back("modelled results differ between repetitions");

    std::vector<std::uint64_t> lat = first.latencyVcycles;
    std::sort(lat.begin(), lat.end());
    double usPerVcycle = first.cpuGhz > 0 ? 1e-3 / first.cpuGhz : 0;
    auto latUs = [&](unsigned perMille) {
        auto v = percentile(lat, perMille);
        if (!v)
            errors.push_back("too few latency samples beyond the " +
                             std::to_string(perMille) + "/1000 percentile");
        return v ? static_cast<double>(*v) * usPerVcycle : 0;
    };
    std::vector<Metric> e2e = {
        {"sim_ops_per_s", first.simOpsPerS, "1/s", "modelled", false},
        {"sim_goodput_gbps",
         first.simSeconds > 0
             ? static_cast<double>(first.payloadBytes) * 8 /
                   first.simSeconds / 1e9
             : 0,
         "Gbit/s", "modelled"},
        {"sim_lat_p50_us", latUs(500), "us", "modelled", false},
        {"sim_lat_p99_us", latUs(990), "us", "modelled", false},
        {"sim_lat_p999_us", latUs(999), "us", "modelled", false},
        {"host_ops_per_s", median(hostPlain), "1/s",
         "host CPU, at reference speed"},
        {"setup_s", median(setups), "s", "host CPU, at reference speed"},
        {"host_ops_per_s_raw", median(rawHost), "1/s", "host CPU", false},
        {"host_slowdown", median(slowdowns), "x",
         "reference kernel vs nominal", false},
    };
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    e2e.push_back({"host_peak_rss_mib",
                   static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB",
                   "host"});

    std::vector<Metric> layer;
    if (args.trace) {
        std::uint32_t span = tracer.begin("probes", 0, 0);
        std::map<std::string, double> values = first.layer;
        for (const auto &[k, v] :
             runProbes(args.workload, first, tracer, span))
            values[k] = v;
        tracer.end(span, 0);
        SpanTotal op = tracer.mean("op");
        values["apps.exec_host_ns"] = op.hostNs;
        values["apps.exec_vcycles"] = op.vcycles;
        values["core.setup_build_s"] = median(builds);
        values["explore.enumerate_s"] = first.enumerateS;
        values["explore.poset_s"] = first.posetS;
        double plain = median(hostPlain);
        values["bench.trace_overhead_share"] =
            plain > 0 ? 1 - median(hostTraced) / plain : 0;
        for (const auto &[name, unit] : layerUnits)
            layer.push_back({name, values[name], unit, ""});
        if (!args.traceOut.empty() &&
            !tracer.writeJson(args.traceOut, args.workload, args.seed))
            errors.push_back("cannot write " + args.traceOut);
    }

    double failedShare =
        attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                  : 1;
    bool correct = errors.empty() && failed == 0 && attempted > 0;
    std::printf("perfbench %s seed=%llu trace=%d repetitions=%zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, reps);
    for (const Metric &m : e2e)
        std::printf("  %-28s %18.6f %-8s %s\n", m.name.c_str(), m.value,
                    m.unit, m.note);
    std::printf("  %-28s %18zu %-8s modelled (latency samples per "
                "repetition)\n",
                "sim_lat_samples", lat.size(), "count");
    std::printf("  %-28s %18.6f %-8s %llu of %llu ops\n", "failed_op_share",
                failedShare, "share", static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const Metric &m : layer)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    constexpr std::size_t maxPrinted = 8;
    for (std::size_t i = 0; i < errors.size() && i < maxPrinted; ++i) {
        std::string line;
        for (char ch : errors[i])
            line += ch == '\r'   ? std::string("\\r")
                    : ch == '\n' ? std::string("\\n")
                                 : std::string(1, ch);
        std::printf("FAILED CHECK: %s\n", line.c_str());
    }
    if (errors.size() > maxPrinted)
        std::printf("FAILED CHECK: ... and %zu more\n",
                    errors.size() - maxPrinted);
    printJson(correct, attempted, failed, args.trace ? layer : e2e);
    return correct ? 0 : 1;
}
