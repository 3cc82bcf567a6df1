/**
 * @file
 * Partial safety ordering (paper section 5).
 *
 * Configurations cannot be totally ordered by safety, but some pairs
 * are programmatically comparable: safety probabilistically increases
 * with (1) the number of compartments (partition refinement), (2) data
 * isolation strength, (3) stackable software hardening, and (4) the
 * strength of the isolation mechanism. The poset of configurations —
 * viewed as a DAG — can then be labelled with measured performance and
 * pruned to the *maximal* (safest) elements meeting a budget.
 */

#ifndef FLEXOS_EXPLORE_POSET_HH
#define FLEXOS_EXPLORE_POSET_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"

namespace flexos {

/** Bit of Hardening h in ConfigPoint::hardening. */
constexpr unsigned
hardeningBit(Hardening h)
{
    return 1u << static_cast<unsigned>(h);
}

/** Compartment name of partition block b in materialized configs. */
std::string blockCompartment(int b);

/**
 * One point in the safety configuration space: components are indices
 * 0..n-1, grouped into partition blocks. The point holds exactly what
 * the materialized image is built from — wayfinder::toSafetyConfig
 * copies every field below verbatim — so the safety order reads the
 * same protection state the image enforces.
 */
struct ConfigPoint
{
    /** Component -> compartment block id (normalized partition). */
    std::vector<int> partition;
    /**
     * Per-component hardening: bit hardeningBit(h) set means the
     * component is built with Hardening h.
     */
    std::vector<unsigned> hardening;
    /**
     * Isolation mechanism of each partition block, indexed by block
     * id; a homogeneous image holds one entry per block all the same.
     */
    std::vector<Mechanism> blockMechanism;
    /**
     * The `boundaries:` section, copied verbatim into the config.
     * Block b is named blockCompartment(b), i.e. `comp<b+1>`.
     */
    std::vector<BoundaryRule> rules;

    /**
     * Simulated core count the image boots with. Performance-only:
     * compareSafety ignores it, so points differing only in cores are
     * Equal and distinguished by perf alone.
     */
    int cores = 1;

    std::string label;

    /** Measured performance (filled by the explorer); higher=faster. */
    double perf = 0;

    /**
     * Static boundary-audit hazard score of the materialized config
     * (flexos::analysis, call-graph + policy passes; lower = cleaner),
     * or -1 before wayfinder::attachAuditScore() fills it. Like perf
     * this is a measurement label, not a safety dimension —
     * compareSafety ignores it; sweeps plot it against perf instead.
     */
    int auditScore = -1;

    /**
     * Measured adversary-simulation hazard score: the config is
     * deployed and the attack catalogue (flexos::adversary) is run
     * from a compromised net compartment; 10 per breach + 3 per
     * partial containment (0 = full containment), or -1 before
     * wayfinder::attachAttackScore() fills it. A measurement label
     * like perf/auditScore — compareSafety ignores it; it is the
     * *dynamic* counterpart of the static auditScore (what the config
     * actually contains, not what it promises).
     */
    int attackScore = -1;

    /** Number of distinct compartments in the partition. */
    int compartments() const;
};

/**
 * The point's image without libraries: block b becomes compartment
 * blockCompartment(b) under blockMechanism[b], the rules become the
 * `boundaries:` section, plus `cores:` and — when any rule sets
 * `adaptive: true` — a default `controller:` section.
 */
SafetyConfig blockConfig(const ConfigPoint &p);

/** The block-level gate matrix of a point (its blockConfig, resolved). */
GateMatrix blockMatrix(const ConfigPoint &p);

/** Result of comparing two configurations by safety. */
enum class SafetyOrder { Less, Equal, Greater, Incomparable };

/**
 * Compare a and b. Greater means "a is probabilistically safer".
 * Partitions compare by refinement and hardening by per-component
 * subset; the rest compares the resolved block gate matrices cell by
 * cell, over every ordered component pair (i, j) including i == j
 * (see docs/exploring.md for the per-cell lattice).
 */
SafetyOrder compareSafety(const ConfigPoint &a, const ConfigPoint &b);

/** compareSafety with both points' blockMatrix() already resolved. */
SafetyOrder compareSafety(const ConfigPoint &a, const GateMatrix &ma,
                          const ConfigPoint &b, const GateMatrix &mb);

/** Whether partition a refines partition b (a splits at least as much). */
bool refines(const std::vector<int> &a, const std::vector<int> &b);

/**
 * The configuration poset.
 */
class SafetyPoset
{
  public:
    /**
     * Add a configuration, resolving its block matrix once; returns
     * its node index.
     */
    std::size_t add(ConfigPoint p);

    std::size_t size() const { return nodes.size(); }
    const ConfigPoint &at(std::size_t i) const { return nodes[i]; }
    /**
     * Mutable access for the measurement labels (perf, label, scores);
     * the protection state was resolved by add() and must not change.
     */
    ConfigPoint &at(std::size_t i) { return nodes[i]; }

    /** Build the Hasse diagram (cover edges, transitively reduced). */
    void buildEdges();

    /** Direct covers of node i (immediately-safer configurations). */
    const std::vector<std::size_t> &coversOf(std::size_t i) const;

    /**
     * The safest configurations meeting a performance budget: maximal
     * elements of the sub-poset { perf >= minPerf } (the paper's green
     * starred nodes in Figure 8).
     */
    std::vector<std::size_t> safestWithin(double minPerf) const;

    /**
     * Label nodes by running evaluate() bottom-up with monotone
     * pruning: since performance monotonically decreases with safety,
     * any node whose predecessor already misses the budget is skipped
     * (assigned perf 0). @return number of evaluations actually run.
     */
    std::size_t explore(const std::function<double(ConfigPoint &)> &eval,
                        double minPerf);

    /** Graphviz rendering (Figure 8). */
    std::string toDot(double minPerf) const;

  private:
    bool strictlySafer(std::size_t a, std::size_t b) const;

    std::vector<ConfigPoint> nodes;
    std::vector<GateMatrix> matrices; ///< blockMatrix() of each node
    std::vector<bool> safer; ///< [a * n + b]: node a strictly safer than b
    std::vector<std::vector<std::size_t>> covers;  ///< safer neighbours
    std::vector<std::vector<std::size_t>> coveredBy; ///< less-safe nbrs
    bool edgesBuilt = false;
};

} // namespace flexos

#endif // FLEXOS_EXPLORE_POSET_HH
