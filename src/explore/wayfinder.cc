#include "explore/wayfinder.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "adversary/adversary.hh"
#include "analysis/audit.hh"
#include "apps/deploy.hh"
#include "apps/http.hh"
#include "apps/redis.hh"
#include "base/logging.hh"

namespace flexos {
namespace wayfinder {

std::vector<std::string>
sweepComponents(const std::string &appLib)
{
    return {appLib, "newlib", "uksched", "lwip"};
}

const std::vector<std::vector<int>> &
fig6Partitions()
{
    static const std::vector<std::vector<int>> parts = {
        {0, 0, 0, 0}, // A: app+newlib+sched+lwip
        {0, 0, 1, 0}, // B: sched isolated
        {0, 0, 0, 1}, // C: lwip isolated
        {0, 0, 1, 1}, // D: app+newlib / sched+lwip
        {0, 0, 1, 2}, // E: app+newlib / sched / lwip
    };
    return parts;
}

ConfigPoint
basePoint(const std::vector<int> &partition, Mechanism mech)
{
    ConfigPoint p;
    p.partition = partition;
    p.hardening.assign(partition.size(), 0);
    p.blockMechanism.assign(static_cast<std::size_t>(p.compartments()),
                            mech);
    return p;
}

std::vector<std::pair<int, int>>
requiredBlockEdges(const std::vector<int> &partition,
                   const std::string &appLib)
{
    // Which block every library of the materialized image lands in.
    SafetyConfig cfg = toSafetyConfig(basePoint(partition), appLib);
    std::map<std::string, int> blockOf;
    for (const auto &[lib, comp] : cfg.libraries)
        blockOf[lib] = cfg.compartmentIndex(comp);

    // Cross-block edges of the registry's static call graph. All
    // sweep points are MPK-only, so no TCB replication applies and
    // unassigned TCB services (ukalloc) stay local to every caller.
    LibraryRegistry reg = LibraryRegistry::standard();
    std::set<std::pair<int, int>> edges;
    for (const auto &[lib, from] : blockOf) {
        for (const std::string &callee : reg.get(lib).callees) {
            auto it = blockOf.find(callee);
            if (it == blockOf.end() || it->second == from)
                continue;
            edges.emplace(from, it->second);
        }
    }
    return {edges.begin(), edges.end()};
}

namespace {

/** A per-partition sweep concatenated over the five Figure 8 partitions. */
template <class Slice>
std::vector<ConfigPoint>
overPartitions(Slice slice)
{
    std::vector<ConfigPoint> out;
    for (const auto &partition : fig6Partitions())
        for (ConfigPoint &p : slice(partition))
            out.push_back(std::move(p));
    return out;
}

/** Every {none, mpk, ept, cheri} assignment to the partition's blocks. */
std::vector<ConfigPoint>
mechanismChoices(const std::vector<int> &partition)
{
    static const Mechanism mechs[] = {Mechanism::None, Mechanism::IntelMpk,
                                      Mechanism::VmEpt, Mechanism::Cheri};
    ConfigPoint base = basePoint(partition);
    std::size_t nBlocks = base.blockMechanism.size();
    std::vector<ConfigPoint> out;
    for (std::size_t code = 0; code < (std::size_t(1) << 2 * nBlocks);
         ++code) {
        ConfigPoint &p = out.emplace_back(base);
        for (std::size_t b = 0, digits = code; b < nBlocks; ++b, digits /= 4)
            p.blockMechanism[b] = mechs[digits % 4];
    }
    return out;
}

/**
 * Every {light, dss} assignment to the partition's blocks, all-MPK:
 * a `'*' -> block: {gate: light}` rule per light block.
 */
std::vector<ConfigPoint>
flavourChoices(const std::vector<int> &partition)
{
    ConfigPoint base = basePoint(partition);
    std::size_t nBlocks = base.blockMechanism.size();
    std::vector<ConfigPoint> out;
    for (std::size_t code = 0; code < (std::size_t(1) << nBlocks); ++code) {
        ConfigPoint &p = out.emplace_back(base);
        for (std::size_t b = 0; b < nBlocks; ++b)
            if (!((code >> b) & 1))
                p.rules.push_back({.from = "*",
                                   .to = blockCompartment(static_cast<int>(b)),
                                   .flavor = MpkGateFlavor::Light});
    }
    return out;
}

/**
 * Every subset of the partition's deniable block edges — ordered
 * pairs the static call graph does not need — one `deny: true` rule
 * per denied edge. Required edges are never offered: a point denying
 * one would be rejected at image build, i.e. it is not reachable.
 */
std::vector<ConfigPoint>
denyChoices(const std::vector<int> &partition, const std::string &appLib)
{
    auto required = requiredBlockEdges(partition, appLib);
    std::set<std::pair<int, int>> keep(required.begin(), required.end());
    ConfigPoint base = basePoint(partition);
    std::vector<std::pair<int, int>> deniable;
    for (int f = 0; f < base.compartments(); ++f)
        for (int t = 0; t < base.compartments(); ++t)
            if (f != t && !keep.count({f, t}))
                deniable.emplace_back(f, t);
    std::vector<ConfigPoint> out;
    for (std::size_t mask = 0; mask < (std::size_t(1) << deniable.size());
         ++mask) {
        ConfigPoint &p = out.emplace_back(base);
        for (std::size_t e = 0; e < deniable.size(); ++e)
            if ((mask >> e) & 1)
                p.rules.push_back(
                    {.from = blockCompartment(deniable[e].first),
                     .to = blockCompartment(deniable[e].second),
                     .deny = true});
    }
    return out;
}

/** One point per value: `'*' -> '*'` with `field` set, none for `off`. */
template <class T>
std::vector<ConfigPoint>
wildcardChoices(const std::vector<int> &partition,
                std::optional<T> BoundaryRule::*field,
                std::initializer_list<T> values, T off)
{
    std::vector<ConfigPoint> out;
    for (T v : values) {
        ConfigPoint &p = out.emplace_back(basePoint(partition));
        if (v != off) {
            p.rules.push_back({.from = "*", .to = "*"});
            p.rules.back().*field = v;
        }
    }
    return out;
}

std::vector<ConfigPoint>
elideChoices(const std::vector<int> &partition)
{
    return wildcardChoices(partition, &BoundaryRule::elide,
                           {GateElide::None, GateElide::Validate,
                            GateElide::Scrub, GateElide::Both},
                           GateElide::None);
}

std::vector<ConfigPoint>
batchChoices(const std::vector<int> &partition)
{
    return wildcardChoices<std::uint64_t>(partition, &BoundaryRule::batch,
                                          {1, 4, 8}, 1);
}

/** p with q's rules appended: combines choices of different axes. */
ConfigPoint
withRulesOf(ConfigPoint p, const ConfigPoint &q)
{
    p.rules.insert(p.rules.end(), q.rules.begin(), q.rules.end());
    return p;
}

} // namespace

std::vector<ConfigPoint>
fig6Space()
{
    return overPartitions([](const std::vector<int> &partition) {
        std::vector<ConfigPoint> out;
        for (unsigned mask = 0; mask < 16; ++mask) {
            ConfigPoint &p = out.emplace_back(basePoint(partition));
            for (unsigned c = 0; c < 4; ++c)
                p.hardening[c] = (mask >> c) & 1 ? fig6Hardening : 0;
        }
        return out;
    });
}

std::vector<ConfigPoint>
mixedMechanismSpace()
{
    return overPartitions(mechanismChoices);
}

std::vector<ConfigPoint>
gateFlavorSpace()
{
    return overPartitions(flavourChoices);
}

std::vector<ConfigPoint>
leastPrivilegeSpace(const std::string &appLib)
{
    return overPartitions([&](const std::vector<int> &partition) {
        return denyChoices(partition, appLib);
    });
}

std::vector<ConfigPoint>
coreCountSpace()
{
    return overPartitions([](const std::vector<int> &partition) {
        std::vector<ConfigPoint> out;
        for (int cores : {1, 2, 4})
            out.emplace_back(basePoint(partition)).cores = cores;
        return out;
    });
}

std::vector<ConfigPoint>
batchingSpace()
{
    return overPartitions([](const std::vector<int> &partition) {
        std::vector<ConfigPoint> out;
        for (const ConfigPoint &batch : batchChoices(partition))
            for (const ConfigPoint &elide : elideChoices(partition))
                out.push_back(withRulesOf(batch, elide));
        return out;
    });
}

std::vector<ConfigPoint>
controllerSpace()
{
    return overPartitions([](const std::vector<int> &partition) {
        return wildcardChoices(partition, &BoundaryRule::adaptive,
                               {false, true}, false);
    });
}

std::size_t
explorePrunedProduct(
    const std::vector<ProductDimension> &dims,
    const std::function<double(const std::vector<std::size_t> &)> &eval,
    double minPerf,
    const std::function<void(const std::vector<std::size_t> &, double)>
        &emit)
{
    // Does candidate `v` dominate (sit at-or-above, component-wise)
    // one of the vectors that already missed the budget? Every axis
    // order is reflexive, so a failed vector also "dominates" itself
    // and is never revisited.
    std::vector<std::vector<std::size_t>> failed;
    auto dominatesFailed = [&](const std::vector<std::size_t> &v) {
        for (const auto &f : failed) {
            bool dom = true;
            for (std::size_t d = 0; d < dims.size() && dom; ++d)
                if (!dims[d].le(f[d], v[d]))
                    dom = false;
            if (dom)
                return true;
        }
        return false;
    };

    std::size_t evaluated = 0;
    auto visit = [&](const std::vector<std::size_t> &v) {
        if (dominatesFailed(v))
            return;
        double perf = eval(v);
        ++evaluated;
        if (perf >= minPerf) {
            if (emit)
                emit(v, perf);
        } else {
            failed.push_back(v);
        }
    };

    // Ascending index-sum enumeration: one index vector live at a
    // time, recursion assigning axis d a share of the remaining sum.
    // The linear-extension contract on each axis makes this a linear
    // extension of the product order, so by the time a vector is
    // visited everything it dominates has already been measured (or
    // pruned) — maximal pruning without materializing the product.
    std::size_t maxSum = 0;
    for (const auto &d : dims) {
        panic_if(d.size == 0 || !d.le, "malformed product dimension");
        maxSum += d.size - 1;
    }
    std::vector<std::size_t> v(dims.size(), 0);
    std::function<void(std::size_t, std::size_t)> place =
        [&](std::size_t d, std::size_t rest) {
            if (d == dims.size()) {
                if (rest == 0)
                    visit(v);
                return;
            }
            std::size_t cap = std::min(rest, dims[d].size - 1);
            for (std::size_t i = 0; i <= cap; ++i) {
                v[d] = i;
                place(d + 1, rest - i);
            }
        };
    for (std::size_t sum = 0; sum <= maxSum; ++sum)
        place(0, sum);
    return evaluated;
}

std::size_t
prunedBoundarySweep(const std::vector<int> &partition,
                    const std::string &appLib,
                    const std::function<double(ConfigPoint &)> &eval,
                    double minPerf, std::vector<ConfigPoint> &accepted)
{
    // Each axis lists its choices as the partition's base point with
    // that choice applied: the mechanisms on axis 0, rules on the rest.
    static const char *names[] = {"mechanism", "flavour", "deny", "elide",
                                  "batch"};
    std::vector<std::vector<ConfigPoint>> axes = {
        mechanismChoices(partition), flavourChoices(partition),
        denyChoices(partition, appLib), elideChoices(partition),
        batchChoices(partition)};

    // Each axis's order, read off compareSafety over its choices:
    // le[a][b] iff a == b or a is Less. Choices are then listed by
    // down-set size, which is a linear extension of that order.
    std::vector<std::vector<std::vector<bool>>> le(axes.size());
    std::vector<ProductDimension> dims;
    for (std::size_t d = 0; d < axes.size(); ++d) {
        std::vector<ConfigPoint> &pts = axes[d];
        std::size_t n = pts.size();
        std::vector<GateMatrix> mats;
        for (const ConfigPoint &p : pts)
            mats.push_back(blockMatrix(p));
        auto leq = [&](std::size_t a, std::size_t b) {
            return a == b || compareSafety(pts[a], mats[a], pts[b],
                                           mats[b]) == SafetyOrder::Less;
        };
        std::vector<std::pair<std::size_t, std::size_t>> bySize;
        for (std::size_t b = 0; b < n; ++b) {
            std::size_t below = 0;
            for (std::size_t a = 0; a < n; ++a)
                below += leq(a, b);
            bySize.emplace_back(below, b);
        }
        std::sort(bySize.begin(), bySize.end());
        le[d].assign(n, std::vector<bool>(n));
        std::vector<ConfigPoint> listed;
        for (std::size_t a = 0; a < n; ++a) {
            listed.push_back(pts[bySize[a].second]);
            for (std::size_t b = 0; b < n; ++b)
                le[d][a][b] = leq(bySize[a].second, bySize[b].second);
        }
        pts = std::move(listed);
        dims.push_back({names[d], n, [&le, d](std::size_t a, std::size_t b) {
                            return bool(le[d][a][b]);
                        }});
    }

    // A vector's point: axis 0's mechanisms plus every axis's rules.
    auto materialize = [&](const std::vector<std::size_t> &v) {
        ConfigPoint p = axes[0][v[0]];
        for (std::size_t d = 1; d < axes.size(); ++d)
            p = withRulesOf(std::move(p), axes[d][v[d]]);
        return p;
    };

    return explorePrunedProduct(
        dims,
        [&](const std::vector<std::size_t> &v) {
            ConfigPoint p = materialize(v);
            return eval(p);
        },
        minPerf,
        [&](const std::vector<std::size_t> &v, double perf) {
            ConfigPoint p = materialize(v);
            p.perf = perf;
            accepted.push_back(std::move(p));
        });
}

SafetyConfig
toSafetyConfig(const ConfigPoint &point, const std::string &appLib)
{
    std::vector<std::string> comps = sweepComponents(appLib);
    panic_if(point.partition.size() != comps.size() ||
                 point.hardening.size() != comps.size(),
             "partition arity mismatch");

    SafetyConfig cfg = blockConfig(point);
    int appBlock = point.partition[0];
    cfg.compartments[static_cast<std::size_t>(appBlock)].isDefault = true;
    for (std::size_t c = 0; c < comps.size(); ++c) {
        cfg.libraries.emplace_back(comps[c],
                                   blockCompartment(point.partition[c]));
        for (unsigned h = 0; point.hardening[c] >> h; ++h) {
            panic_if(h > static_cast<unsigned>(Hardening::Asan),
                     "unknown hardening bit ", h);
            if ((point.hardening[c] >> h) & 1)
                cfg.libHardening[comps[c]].push_back(
                    static_cast<Hardening>(h));
        }
    }
    // Components not varied by the sweep ride in the app compartment.
    cfg.libraries.emplace_back("uktime", blockCompartment(appBlock));
    if (appLib == "libnginx")
        cfg.libraries.emplace_back("vfscore", blockCompartment(appBlock));
    return cfg;
}

std::string
pointLabel(const ConfigPoint &point, const std::string &appLib)
{
    std::vector<std::string> comps = sweepComponents(appLib);
    std::ostringstream oss;
    // Partition rendering: blocks joined by '/'.
    int nBlocks = point.compartments();
    for (int b = 0; b < nBlocks; ++b) {
        if (b)
            oss << " / ";
        bool first = true;
        for (std::size_t c = 0; c < comps.size(); ++c) {
            if (point.partition[c] != b)
                continue;
            if (!first)
                oss << "+";
            oss << comps[c];
            first = false;
        }
    }
    oss << "  [";
    for (std::size_t c = 0; c < comps.size(); ++c)
        oss << (point.hardening[c] ? "●" : "○");
    oss << "]";
    // Mechanisms only when some block is not the MPK default.
    bool allMpk = true;
    for (Mechanism m : point.blockMechanism)
        allMpk = allMpk && m == Mechanism::IntelMpk;
    if (!allMpk) {
        oss << " {";
        for (std::size_t b = 0; b < point.blockMechanism.size(); ++b) {
            Mechanism m = point.blockMechanism[b];
            oss << (b ? "/" : "")
                << (m == Mechanism::IntelMpk ? "mpk"
                    : m == Mechanism::VmEpt  ? "ept"
                                             : mechanismName(m));
        }
        oss << "}";
    }
    for (const BoundaryRule &r : point.rules)
        oss << " [" << r.toText() << "]";
    if (point.cores > 1)
        oss << " x" << point.cores << "cores";
    return oss.str();
}

int
auditScore(const ConfigPoint &point, const std::string &appLib)
{
    static const LibraryRegistry reg = LibraryRegistry::standard();
    analysis::AuditOptions opts;
    opts.escape = false;
    return analysis::runAudit(toSafetyConfig(point, appLib), reg, opts)
        .score();
}

void
attachAuditScore(ConfigPoint &point, const std::string &appLib)
{
    point.auditScore = auditScore(point, appLib);
}

int
attackScore(const ConfigPoint &point, const std::string &appLib)
{
    SafetyConfig cfg = toSafetyConfig(point, appLib);
    adversary::AttackOptions aopts;
    aopts.attackerLib = cfg.libraries.empty()
                            ? std::string("lwip")
                            : cfg.libraries.front().first;
    for (const auto &[lib, comp] : cfg.libraries)
        if (lib == "lwip")
            aopts.attackerLib = lib;
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    Deployment dep(std::move(cfg), opts);
    dep.start();
    adversary::AttackScorecard card =
        adversary::runScorecard(dep, aopts);
    dep.stop();
    return card.score();
}

void
attachAttackScore(ConfigPoint &point, const std::string &appLib)
{
    point.attackScore = attackScore(point, appLib);
}

double
measureRedis(const ConfigPoint &point, std::uint64_t requests)
{
    DeployOptions opts;
    opts.withFs = false;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    Deployment dep(toSafetyConfig(point, "libredis"), opts);
    dep.start();
    // redis-benchmark default: no pipelining — every request pays the
    // full per-request communication pattern (paper 6.1).
    RedisBenchmarkResult res = runRedisGetBenchmark(
        dep.image(), dep.libc(), dep.clientStack(), requests, 1, 50);
    dep.stop();
    return res.requestsPerSec;
}

double
measureNginx(const ConfigPoint &point, std::uint64_t requests)
{
    DeployOptions opts;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    Deployment dep(toSafetyConfig(point, "libnginx"), opts);
    dep.writeFile("/www/index.html", std::string(612, 'w'));
    dep.start();
    HttpBenchmarkResult res = runHttpBenchmark(
        dep.image(), dep.libc(), dep.clientStack(), requests,
        "/index.html", 1);
    dep.stop();
    return res.requestsPerSec;
}

} // namespace wayfinder
} // namespace flexos
