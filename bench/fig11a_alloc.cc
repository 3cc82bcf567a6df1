/**
 * @file
 * Figure 11a reproduction: latency of allocating 1..3 shared 1-byte
 * stack variables under the three data-sharing strategies — shared-heap
 * conversion, DSS, and fully shared stacks.
 *
 * Each row prints `vcycles`, virtual machine cycles per operation (the
 * paper's y axis); wall time of the simulator is irrelevant. Expected:
 * heap 100-300+ cycles growing with the variable count; DSS and shared
 * stack constant ~2 cycles.
 */

#include <cstdio>
#include <string>

#include "apps/deploy.hh"
#include "core/dss.hh"

using namespace flexos;

namespace {

const char *cfgText = R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libredis: comp1
- lwip: comp2
)";

/** Measure virtual cycles of one frame with n shared 1-byte vars. */
double
measure(StackSharing sharing, int nVars, std::uint64_t iters)
{
    SafetyConfig cfg = SafetyConfig::parse(cfgText);
    cfg.stackSharing = sharing;
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    Deployment dep(cfg, opts);

    Cycles total = 0;
    bool done = false;
    dep.image().spawnIn("libredis", "alloc-bench", [&] {
        Machine &m = dep.machine();
        for (std::uint64_t i = 0; i < iters; ++i) {
            Cycles before = m.cycles();
            {
                DssFrame frame(dep.image());
                for (int v = 0; v < nVars; ++v)
                    frame.alloc(1);
            }
            total += m.cycles() - before;
        }
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    return static_cast<double>(total) / static_cast<double>(iters);
}

} // namespace

int
main()
{
    static const struct
    {
        const char *name;
        StackSharing sharing;
    } strategies[] = {
        {"heap", StackSharing::Heap},
        {"dss", StackSharing::Dss},
        {"shared_stack", StackSharing::SharedStack},
    };
    for (const auto &s : strategies)
        for (int nVars = 1; nVars <= 3; ++nVars)
            std::printf("%-30s vcycles=%g\n",
                        ("allocBench/" + std::string(s.name) + "/" +
                         std::to_string(nVars))
                            .c_str(),
                        measure(s.sharing, nVars, 2000));
    return 0;
}
