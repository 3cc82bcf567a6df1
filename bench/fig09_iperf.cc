/**
 * @file
 * Figure 9 reproduction: iPerf network-stack throughput against the
 * receive buffer size (16 B .. 16 KiB) for: vanilla Unikraft, FlexOS
 * with no isolation, FlexOS MPK with shared call stacks (-light),
 * FlexOS MPK with protected stacks + DSS (-dss), and FlexOS EPT with
 * two compartments.
 *
 * Expected shape (paper 6.3): FlexOS NONE == Unikraft ("you only pay
 * for what you get"); MPK converges to baseline from ~128 B buffers;
 * EPT needs ~256 B to reach ~90% of baseline.
 *
 * A second, multi-flow mode (`--flows [N...]`, also run by default)
 * drives N parallel connections through one listener and reports the
 * aggregate goodput, exercising the accept backlog, the flow table and
 * per-connection reassembly under concurrent traffic. With `--cores
 * [M...]` the server machine simulates M cores: RSS steers each
 * connection to one core's RX queue, the per-queue pollers and flow
 * workers are pinned there, and aggregate goodput is expected to scale
 * with cores (wall time is the furthest-ahead core's clock). On one
 * core it holds steady (not multiplying) as flows are added; the
 * interesting signals are fairness and the absence of collapse.
 *
 * `--json [path]` additionally writes the flows x cores matrix to a
 * JSON snapshot (default BENCH_fig09.json) for regression tracking.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/deploy.hh"
#include "apps/iperf.hh"
#include "explore/wayfinder.hh"

using namespace flexos;

namespace {

const char *noneCfg = R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libiperf: all
- newlib: all
- uksched: all
- lwip: all
)";

std::string
mpk2Cfg(const char *flavor)
{
    return std::string(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libiperf: comp1
- newlib: comp2
- uksched: comp2
- lwip: comp2
boundaries:
- '*' -> '*': {gate: )") + flavor + "}\n";
}

const char *ept2Cfg = R"(
compartments:
- comp1:
    mechanism: vm-ept
    default: True
- comp2:
    mechanism: vm-ept
libraries:
- libiperf: comp1
- newlib: comp2
- uksched: comp2
- lwip: comp2
)";

double
run(const std::string &cfgText, std::size_t bufSize,
    StackSharing sharing = StackSharing::Dss)
{
    SafetyConfig cfg = SafetyConfig::parse(cfgText);
    cfg.stackSharing = sharing;
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(cfg, opts);
    dep.start();
    IperfResult res = runIperf(dep.image(), dep.libc(),
                               dep.clientStack(), 512 * 1024, bufSize);
    dep.stop();
    return res.gbitPerSec;
}

constexpr std::size_t multiBufSize = 16 * 1024;
constexpr std::uint64_t multiBytesPerFlow = 256 * 1024;

IperfResult
runMulti(const std::string &cfgText, unsigned flows, std::size_t bufSize,
         std::uint64_t bytesPerFlow, unsigned cores = 1)
{
    SafetyConfig cfg = SafetyConfig::parse(cfgText);
    cfg.stackSharing = StackSharing::Dss;
    cfg.cores = cores ? cores : 1;
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(cfg, opts);
    dep.start();
    IperfResult res =
        runIperfMulti(dep.image(), dep.libc(), dep.clientStack(),
                      bytesPerFlow, bufSize, flows);
    dep.stop();
    if (std::getenv("FLEXOS_FIG09_DEBUG")) {
        Machine &m = dep.machine();
        for (unsigned c = 0; c < m.coreCount(); ++c)
            std::fprintf(stderr, "  core%u: %llu cycles\n", c,
                         static_cast<unsigned long long>(
                             m.coreCycles(static_cast<int>(c))));
        for (const auto &[k, v] : m.counters())
            if (k.rfind("sched.", 0) == 0 || k.rfind("nic.", 0) == 0 ||
                k.rfind("machine.", 0) == 0 || k.rfind("tcp.", 0) == 0)
                std::fprintf(stderr, "  %s = %llu\n", k.c_str(),
                             static_cast<unsigned long long>(v));
    }
    return res;
}

void
multiFlowTable(const std::vector<unsigned> &flowCounts,
               const std::vector<unsigned> &coreCounts)
{
    std::printf("\n=== Multi-flow iPerf: aggregate goodput (Gb/s) vs "
                "concurrent connections (FlexOS-NONE, %zu B buffer) "
                "===\n",
                multiBufSize);
    std::printf("%-8s %-8s %-12s %-14s %-12s\n", "flows", "cores",
                "aggregate", "per-flow avg", "vs first");

    double single = 0;
    for (unsigned flows : flowCounts) {
        for (unsigned cores : coreCounts) {
            IperfResult res = runMulti(noneCfg, flows, multiBufSize,
                                       multiBytesPerFlow, cores);
            if (single == 0)
                single = res.gbitPerSec;
            char ratio[32];
            std::snprintf(ratio, sizeof(ratio), "%.2fx",
                          single > 0 ? res.gbitPerSec / single : 0);
            std::printf("%-8u %-8u %-12.3f %-14.3f %-12s\n", flows,
                        cores, res.gbitPerSec,
                        res.gbitPerSec / flows, ratio);
        }
    }
    if (coreCounts.size() == 1 && coreCounts[0] == 1)
        std::printf("\nexpected shape: aggregate holds (single "
                    "simulated core); no collapse as flows scale\n");
    else
        std::printf("\nexpected shape: aggregate scales with cores "
                    "while flows >= cores (RSS spreads connections); "
                    "holds steady per core count as flows grow\n");
}

/**
 * The flows x cores goodput matrix as a JSON snapshot
 * (BENCH_fig09.json): the regression-tracked artefact for the SMP
 * machine model.
 */
void
emitJson(const char *path, const std::vector<unsigned> &flowCounts,
         const std::vector<unsigned> &coreCounts)
{
    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "fig09_iperf: cannot write %s\n", path);
        std::exit(2);
    }
    // The audit-score axis: the static boundary-audit hazard score of
    // the swept configuration (one config here, so one top-level
    // field; lower = cleaner boundaries).
    ConfigPoint nonePt =
        wayfinder::basePoint({0, 0, 0, 0}, Mechanism::None);
    std::fprintf(f, "{\n"
                    "  \"bench\": \"fig09_iperf_multiflow\",\n"
                    "  \"config\": \"flexos-none\",\n"
                    "  \"audit_score\": %d,\n"
                    "  \"buf_bytes\": %zu,\n"
                    "  \"bytes_per_flow\": %llu,\n"
                    "  \"results\": [\n",
                 wayfinder::auditScore(nonePt, "libiperf"), multiBufSize,
                 static_cast<unsigned long long>(multiBytesPerFlow));
    bool first = true;
    for (unsigned flows : flowCounts) {
        for (unsigned cores : coreCounts) {
            IperfResult res = runMulti(noneCfg, flows, multiBufSize,
                                       multiBytesPerFlow, cores);
            std::fprintf(f,
                         "%s    {\"flows\": %u, \"cores\": %u, "
                         "\"gbps\": %.3f, \"seconds\": %.6f, "
                         "\"bytes\": %llu}",
                         first ? "" : ",\n", flows, cores,
                         res.gbitPerSec, res.seconds,
                         static_cast<unsigned long long>(res.bytes));
            first = false;
        }
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    // `--flows [N...]` runs only the multi-flow table, optionally with
    // an explicit list of connection counts. `--cores [M...]` adds
    // simulated core counts as a second sweep dimension, and
    // `--json [path]` writes the matrix to a snapshot file.
    std::vector<unsigned> flowCounts;
    std::vector<unsigned> coreCounts;
    bool flowsMode = false;
    bool jsonMode = false;
    const char *jsonPath = "BENCH_fig09.json";
    std::vector<unsigned> *sink = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--flows") == 0) {
            flowsMode = true;
            sink = &flowCounts;
            continue;
        }
        if (std::strcmp(argv[i], "--cores") == 0) {
            flowsMode = true;
            sink = &coreCounts;
            continue;
        }
        if (std::strcmp(argv[i], "--json") == 0) {
            flowsMode = true;
            jsonMode = true;
            if (i + 1 < argc && argv[i + 1][0] != '-' &&
                (argv[i + 1][0] < '0' || argv[i + 1][0] > '9'))
                jsonPath = argv[++i];
            sink = nullptr;
            continue;
        }
        char *end = nullptr;
        unsigned long v = std::strtoul(argv[i], &end, 10);
        if (!sink || end == argv[i] || *end != '\0' || v == 0 ||
            v > 1024) {
            std::fprintf(stderr,
                         "fig09_iperf: invalid argument '%s' (usage: "
                         "[--flows N...] [--cores M...] "
                         "[--json [path]])\n",
                         argv[i]);
            return 2;
        }
        sink->push_back(static_cast<unsigned>(v));
    }
    if (flowsMode) {
        if (flowCounts.empty())
            flowCounts = {1, 2, 4, 8, 16, 32};
        if (coreCounts.empty())
            coreCounts = {1};
        if (jsonMode)
            emitJson(jsonPath, flowCounts, coreCounts);
        else
            multiFlowTable(flowCounts, coreCounts);
        return 0;
    }

    std::printf("=== Figure 9: iPerf throughput (Gb/s) vs receive "
                "buffer size ===\n");
    std::printf("%-8s %-10s %-12s %-12s %-12s %-10s\n", "bufsize",
                "Unikraft", "FlexOS-NONE", "MPK2-light", "MPK2-dss",
                "EPT2");

    for (unsigned shift = 4; shift <= 14; ++shift) {
        std::size_t buf = std::size_t(1) << shift;
        // Vanilla Unikraft is the same code with the flexibility layer
        // compiled out; in FlexOS terms, the NONE backend.
        double unikraft = run(noneCfg, buf);
        double none = run(noneCfg, buf);
        double light = run(mpk2Cfg("light"), buf,
                           StackSharing::SharedStack);
        double dss = run(mpk2Cfg("dss"), buf, StackSharing::Dss);
        double ept = run(ept2Cfg, buf);
        std::printf("%-8zu %-10.3f %-12.3f %-12.3f %-12.3f %-10.3f\n",
                    buf, unikraft, none, light, dss, ept);
    }

    std::printf("\nexpected shape: NONE==Unikraft; light >= dss >= ept "
                "at small buffers; all converge as the buffer grows\n");

    multiFlowTable({1, 2, 4, 8, 16, 32}, {1});
    return 0;
}
