/**
 * @file
 * Figure 11b reproduction: raw gate latencies — plain function call,
 * MPK light gate, MPK DSS gate, EPT RPC gate, and Linux system calls
 * with/without KPTI.
 *
 * Each row prints `vcycles`, virtual cycles per gate round trip; paper
 * values: function 2, MPK-light 62, MPK-dss 108, EPT 462, syscall 470,
 * syscall-nokpti 146.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "apps/deploy.hh"

using namespace flexos;

namespace {

std::string
twoComp(const char *mech, const char *gateFlavor = nullptr,
        const char *extraRule = nullptr)
{
    std::string text = std::string(R"(
compartments:
- c1:
    mechanism: )") + mech + R"(
    default: True
- c2:
    mechanism: )" + mech + R"(
libraries:
- libredis: c1
- lwip: c2
)";
    if (gateFlavor || extraRule)
        text += "boundaries:\n";
    if (gateFlavor)
        text += std::string("- '*' -> '*': {gate: ") + gateFlavor +
                "}\n";
    if (extraRule)
        text += std::string("- ") + extraRule + "\n";
    return text;
}

/**
 * Average virtual cycles per call of a cross-compartment gate round
 * trip. With width > 0 the calls ride vectored crossings of that
 * width — the amortization the `batch:` knob buys: one backend
 * transition (one EPT doorbell) per chunk plus a per-slot dispatch
 * cost, instead of a full round trip per call. Width 1 is the
 * identity case and must match width 0 exactly.
 */
double
gateCost(const std::string &cfgText, std::size_t width = 0,
         bool sameCompartment = false, bool noKpti = false)
{
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    if (noKpti) {
        // Reboot with KPTI disabled: syscalls get the cheap path.
        opts.timing.syscallKpti = opts.timing.syscallNoKpti;
    }
    Deployment dep(cfgText, opts);

    const std::string callee = sameCompartment ? "libredis" : "lwip";
    const char *entry = sameCompartment ? "redis_main" : "recv";
    constexpr std::uint64_t iters = 2000;
    static_assert(iters % 8 == 0 && iters % 4 == 0,
                  "iters must divide evenly into batch widths");
    std::vector<std::function<void()>> bodies(width, [] {});

    Cycles measured = 0;
    bool done = false;
    dep.image().spawnIn("libredis", "gate-bench", [&] {
        Machine &m = dep.machine();
        Cycles before = m.cycles();
        for (std::uint64_t i = 0; i < iters; i += width ? width : 1) {
            if (width)
                dep.image().gateBatch(callee, entry, bodies);
            else
                dep.image().gate(callee, entry, [] {});
        }
        measured = m.cycles() - before;
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    return static_cast<double>(measured) / static_cast<double>(iters);
}

} // namespace

int
main()
{
    struct Row
    {
        const char *name;
        std::string cfg;
        std::size_t width = 0; ///< gateCost's batch width
        bool sameCompartment = false;
        bool noKpti = false;
    };
    const Row rows[] = {
        {"gateBench/function_call", twoComp("intel-mpk"), 0, true},
        {"gateBench/mpk_light", twoComp("intel-mpk", "light")},
        {"gateBench/mpk_dss", twoComp("intel-mpk", "dss")},
        {"gateBench/ept", twoComp("vm-ept")},
        {"gateBench/syscall", twoComp("linux-pt")},
        {"gateBench/syscall_nokpti", twoComp("linux-pt"), 0, false, true},
        {"gateBench/sel4_ipc", twoComp("sel4-ipc")},
        {"gateBench/cubicle_pkey_mprotect", twoComp("cubicle-mpk")},
        {"gateBench/cheri_sketch", twoComp("cheri")},
        // Vectored crossings: the `batch:` / `coalesce:` / `elide:`
        // knobs. batch: 1 is regression-pinned to the sequential gate
        // (vcycle-identical by construction); batch: 8 amortizes the
        // transition — one EPT doorbell per eight calls — and the EPT
        // step-change is the headline number. The elide rows show
        // repeated same-boundary crossings shedding the entry-validate
        // / return-scrub charges.
        {"batchedGateBench/ept_batch1",
         twoComp("vm-ept", nullptr, "'*' -> '*': {batch: 1}"), 1},
        {"batchedGateBench/ept_batch4",
         twoComp("vm-ept", nullptr, "'*' -> '*': {batch: 4}"), 4},
        {"batchedGateBench/ept_batch8",
         twoComp("vm-ept", nullptr, "'*' -> '*': {batch: 8}"), 8},
        {"batchedGateBench/ept_batch8_coalesce",
         twoComp("vm-ept", nullptr, "'*' -> '*': {batch: 8, coalesce: 2000}"),
         8},
        {"batchedGateBench/mpk_dss_batch8",
         twoComp("intel-mpk", "dss", "'*' -> '*': {batch: 8}"), 8},
        {"batchedGateBench/cheri_batch8",
         twoComp("cheri", nullptr, "'*' -> '*': {batch: 8}"), 8},
        {"gateBench/mpk_dss_validate",
         twoComp("intel-mpk", "dss", "'*' -> '*': {validate: true}")},
        {"gateBench/mpk_dss_elide_both",
         twoComp("intel-mpk", "dss",
                 "'*' -> '*': {validate: true, elide: both}")},
        {"gateBench/ept_elide_scrub",
         twoComp("vm-ept", nullptr, "'*' -> '*': {elide: scrub}")},
    };
    for (const Row &r : rows)
        std::printf("%-40s vcycles=%g\n", r.name,
                    gateCost(r.cfg, r.width, r.sameCompartment, r.noKpti));
    return 0;
}
