#include "explore/poset.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "base/logging.hh"

namespace flexos {

int
ConfigPoint::compartments() const
{
    std::set<int> blocks(partition.begin(), partition.end());
    return static_cast<int>(blocks.size());
}

std::string
blockCompartment(int b)
{
    return "comp" + std::to_string(b + 1);
}

SafetyConfig
blockConfig(const ConfigPoint &p)
{
    panic_if(static_cast<int>(p.blockMechanism.size()) != p.compartments(),
             "point needs one mechanism per partition block");
    SafetyConfig cfg;
    for (std::size_t b = 0; b < p.blockMechanism.size(); ++b) {
        CompartmentSpec spec;
        spec.name = blockCompartment(static_cast<int>(b));
        spec.mechanism = p.blockMechanism[b];
        cfg.compartments.push_back(std::move(spec));
    }
    cfg.boundaries = p.rules;
    cfg.cores = static_cast<unsigned>(p.cores);
    // Controller points run the default sampling/threshold knobs: the
    // section's presence alone enables the control plane.
    for (const BoundaryRule &r : p.rules)
        if (r.adaptive.value_or(false))
            cfg.controller = ControllerConfig{};
    return cfg;
}

GateMatrix
blockMatrix(const ConfigPoint &p)
{
    return GateMatrix::build(blockConfig(p));
}

bool
refines(const std::vector<int> &a, const std::vector<int> &b)
{
    panic_if(a.size() != b.size(), "partition size mismatch");
    // a refines b iff components sharing a block in a also share in b.
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = i + 1; j < a.size(); ++j) {
            if (a[i] == a[j] && b[i] != b[j])
                return false;
        }
    }
    return true;
}

namespace {

/**
 * The mechanism-strength order: none < intel-mpk < {vm-ept, cheri},
 * with ept and cheri incomparable — VM-grade address-space isolation
 * and capability-grade spatial safety protect against different
 * attacker models. The baselines are unranked: equal only to
 * themselves.
 */
bool
mechanismLe(Mechanism a, Mechanism b)
{
    auto rank = [](Mechanism m) {
        return m == Mechanism::None       ? 0
               : m == Mechanism::IntelMpk ? 1
               : m == Mechanism::VmEpt || m == Mechanism::Cheri ? 2
                                                                 : -1;
    };
    return a == b || (rank(a) >= 0 && rank(b) >= 0 && rank(a) < rank(b));
}

/** Elided legs as a bitmask (validate = 1, scrub = 2). */
unsigned
elidedLegs(GateElide e)
{
    return (elidesValidate(e) ? 1u : 0u) | (elidesScrub(e) ? 2u : 0u);
}

/**
 * Crossing budgets: unlimited is least safe; two budgets compare only
 * under the same window, weight and overflow, the lower one safer.
 */
bool
rateLe(const GatePolicy &a, const GatePolicy &b)
{
    if (a.rate == 0)
        return true;
    return b.rate != 0 && a.rateWindow == b.rateWindow &&
           a.weight == b.weight && a.overflow == b.overflow &&
           b.rate <= a.rate;
}

/**
 * Whether boundary a is at most as safe as boundary b. batch,
 * coalesce and adaptive are performance-only and not compared.
 */
bool
policyLe(const GatePolicy &a, const GatePolicy &b)
{
    return mechanismLe(a.mech, b.mech) &&
           (a.flavor == MpkGateFlavor::Light ||
            b.flavor == MpkGateFlavor::Dss) &&
           (!a.validateEntry || b.validateEntry) &&
           (!a.validateReturn || b.validateReturn) &&
           (!a.scrubReturn || b.scrubReturn) &&
           (elidedLegs(a.elide) & elidedLegs(b.elide)) ==
               elidedLegs(b.elide) &&
           stackSharingStrength(a.stackSharing) <=
               stackSharingStrength(b.stackSharing) &&
           (!a.deny || b.deny) && rateLe(a, b);
}

} // namespace

SafetyOrder
compareSafety(const ConfigPoint &a, const ConfigPoint &b)
{
    return compareSafety(a, blockMatrix(a), b, blockMatrix(b));
}

SafetyOrder
compareSafety(const ConfigPoint &a, const GateMatrix &ma,
              const ConfigPoint &b, const GateMatrix &mb)
{
    panic_if(a.partition.size() != b.partition.size() ||
                 a.hardening.size() != b.hardening.size(),
             "comparing configurations over different components");

    // Partition refinement: splitting into more compartments is safer.
    bool aLe = refines(b.partition, a.partition);
    bool bLe = refines(a.partition, b.partition);

    // Per-component hardening: subset order on each component.
    for (std::size_t i = 0; i < a.hardening.size(); ++i) {
        unsigned both = a.hardening[i] & b.hardening[i];
        aLe = aLe && both == a.hardening[i];
        bLe = bLe && both == b.hardening[i];
    }

    // Every boundary, cell (block(i), block(j)) for every component
    // pair. The diagonal carries each component's own mechanism and
    // the flavour/elision of gates into its block.
    const std::vector<int> &pa = a.partition, &pb = b.partition;
    for (std::size_t i = 0; i < pa.size() && (aLe || bLe); ++i) {
        for (std::size_t j = 0; j < pa.size(); ++j) {
            const GatePolicy &ca = ma.at(pa[i], pa[j]);
            const GatePolicy &cb = mb.at(pb[i], pb[j]);
            aLe = aLe && policyLe(ca, cb);
            bLe = bLe && policyLe(cb, ca);
        }
    }

    if (aLe && bLe)
        return SafetyOrder::Equal;
    if (aLe)
        return SafetyOrder::Less;
    if (bLe)
        return SafetyOrder::Greater;
    return SafetyOrder::Incomparable;
}

std::size_t
SafetyPoset::add(ConfigPoint p)
{
    matrices.push_back(blockMatrix(p));
    nodes.push_back(std::move(p));
    edgesBuilt = false;
    return nodes.size() - 1;
}

bool
SafetyPoset::strictlySafer(std::size_t a, std::size_t b) const
{
    return safer[a * nodes.size() + b];
}

void
SafetyPoset::buildEdges()
{
    std::size_t n = nodes.size();
    covers.assign(n, {});
    coveredBy.assign(n, {});
    safer.assign(n * n, false);
    for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = 0; b < n; ++b)
            safer[a * n + b] = compareSafety(nodes[a], matrices[a],
                                             nodes[b], matrices[b]) ==
                               SafetyOrder::Greater;

    for (std::size_t lo = 0; lo < n; ++lo) {
        for (std::size_t hi = 0; hi < n; ++hi) {
            if (lo == hi || !strictlySafer(hi, lo))
                continue;
            // Cover edge iff no intermediate m with lo < m < hi
            // (transitive reduction -> Hasse diagram).
            bool direct = true;
            for (std::size_t m = 0; m < n && direct; ++m) {
                if (m == lo || m == hi)
                    continue;
                if (strictlySafer(m, lo) && strictlySafer(hi, m))
                    direct = false;
            }
            if (direct) {
                covers[lo].push_back(hi);
                coveredBy[hi].push_back(lo);
            }
        }
    }
    edgesBuilt = true;
}

const std::vector<std::size_t> &
SafetyPoset::coversOf(std::size_t i) const
{
    panic_if(!edgesBuilt, "poset edges not built");
    return covers[i];
}

std::vector<std::size_t>
SafetyPoset::safestWithin(double minPerf) const
{
    panic_if(!edgesBuilt, "poset edges not built");
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].perf < minPerf)
            continue;
        // Maximal in the qualifying sub-poset: no strictly safer node
        // also meets the budget.
        bool dominated = false;
        for (std::size_t j = 0; j < nodes.size() && !dominated; ++j) {
            if (j != i && nodes[j].perf >= minPerf &&
                strictlySafer(j, i))
                dominated = true;
        }
        if (!dominated)
            out.push_back(i);
    }
    return out;
}

std::size_t
SafetyPoset::explore(const std::function<double(ConfigPoint &)> &eval,
                     double minPerf)
{
    if (!edgesBuilt)
        buildEdges();

    // Topological walk from the least-safe nodes upward. Performance
    // decreases monotonically with safety, so once a node misses the
    // budget every safer node would too: prune the entire up-set
    // (paper 5: "it can safely stop evaluating a path as soon as a
    // threshold is reached").
    std::size_t n = nodes.size();
    std::vector<int> pendingBelow(n);
    std::vector<bool> pruned(n, false);
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < n; ++i) {
        pendingBelow[i] = static_cast<int>(coveredBy[i].size());
        if (pendingBelow[i] == 0)
            queue.push_back(i);
    }

    std::size_t evaluated = 0;
    while (!queue.empty()) {
        std::size_t i = queue.back();
        queue.pop_back();

        if (pruned[i]) {
            nodes[i].perf = 0;
        } else {
            nodes[i].perf = eval(nodes[i]);
            ++evaluated;
            if (nodes[i].perf < minPerf)
                pruned[i] = true;
        }

        for (std::size_t up : covers[i]) {
            if (pruned[i])
                pruned[up] = true;
            if (--pendingBelow[up] == 0)
                queue.push_back(up);
        }
    }
    return evaluated;
}

std::string
SafetyPoset::toDot(double minPerf) const
{
    std::vector<std::size_t> best = safestWithin(minPerf);
    std::ostringstream oss;
    oss << "digraph safety {\n    rankdir=BT;\n";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        bool starred =
            std::find(best.begin(), best.end(), i) != best.end();
        oss << "    n" << i << " [label=\"" << nodes[i].label << "\\n"
            << static_cast<std::uint64_t>(nodes[i].perf);
        // Audit-score axis: nodes carrying a static boundary-audit
        // score show it next to perf (lower = cleaner boundaries).
        if (nodes[i].auditScore >= 0)
            oss << "\\naudit=" << nodes[i].auditScore;
        oss << "\""
            << (starred ? ", shape=star, style=filled, fillcolor=green"
                : nodes[i].perf < minPerf ? ", style=dashed" : "")
            << "];\n";
    }
    for (std::size_t i = 0; i < nodes.size(); ++i)
        for (std::size_t up : covers[i])
            oss << "    n" << i << " -> n" << up << ";\n";
    oss << "}\n";
    return oss.str();
}

} // namespace flexos
