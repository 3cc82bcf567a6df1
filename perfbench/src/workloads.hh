/**
 * @file
 * The benchmark's four workloads, driven through the library's public
 * API only: redis-mpk3, iperf-ept2, sqlite-mpk3 and redis-sweep80.
 *
 * One repetition builds its deployment(s) from config text, preloads,
 * runs a timed phase of a size fixed by the workload, checks every
 * output against a shadow of the seeded inputs and tears down. All
 * modelled results and per-layer counts of a repetition are a pure
 * function of (workload, scale, seed); only its host_* timings vary.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** Workload names in the order the benchmark documents them. */
const std::vector<std::string> &workloadNames();

/** What one repetition measured. */
struct Rep
{
    /** @name Modelled clock: identical for identical (scale, seed). @{ */
    std::uint64_t attempted = 0; ///< ops sent
    std::uint64_t failed = 0;    ///< ops refused, wrong, missing, timed out
    double simSeconds = 0;       ///< timed phase, vcycles / cpuGhz
    /** Ops per simulated second (redis-sweep80: geomean over points). */
    double simOpsPerS = 0;
    std::uint64_t payloadBytes = 0;
    std::vector<std::uint64_t> latencyVcycles; ///< one per op
    double cpuGhz = 0;
    /** Exact per-layer counts over the timed phase(s), by metric name. */
    std::map<std::string, double> layer;
    /** Failed output checks (empty when every output was correct). */
    std::vector<std::string> errors;
    /** @} */

    /** @name Host clock (process CPU seconds). @{ */
    double setupS = 0;   ///< config text -> booted, preloaded deployment
    double buildS = 0;   ///< Deployment construction and boot alone
    double measureS = 0; ///< the timed phase
    double enumerateS = 0; ///< redis-sweep80: fig6Space()
    double posetS = 0;     ///< redis-sweep80: Poset build + safestWithin
    /** @} */

    /**
     * The hottest boundary of the timed phase, as (caller library,
     * callee library, entry point): the gate the core probe times.
     */
    std::string hotCaller, hotCallee, hotEntry;
};

/** Whether two repetitions agree on every modelled result and count. */
bool sameModel(const Rep &a, const Rep &b);

/**
 * Run one repetition. scale shrinks every size of the workload (1 is
 * the benchmark; tests use small fractions). When tr is set, phase and
 * per-op spans are recorded under parent.
 */
Rep runRep(const std::string &workload, std::uint64_t seed, double scale,
           Tracer *tr, std::uint32_t parent);

/**
 * Host-cost probes for the traced run: K timed calls into single
 * public functions, using the workload's config, each recorded as a
 * span under parent. Returns per-layer metrics (`core.gate_host_ns`,
 * `core.gate_vcycles`, `uksched.switch_host_ns`, `machine.bump_host_ns`,
 * `ukalloc.alloc_free_host_ns`, `vfs.pwrite_fsync_host_ns`).
 */
std::map<std::string, double> runProbes(const std::string &workload,
                                        const Rep &rep, Tracer &tr,
                                        std::uint32_t parent);

/** Process CPU time in seconds. */
double cpuSeconds();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
