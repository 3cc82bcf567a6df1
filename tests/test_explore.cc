/**
 * @file
 * Tests for partial safety ordering: order axioms, refinement,
 * Hasse-diagram construction, budget pruning, monotone exploration
 * savings, and the Figure 6/8 sweep space.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <tuple>

#include "base/rng.hh"
#include "core/toolchain.hh"
#include "explore/poset.hh"
#include "explore/wayfinder.hh"

namespace flexos {
namespace {

ConfigPoint
mk(std::vector<int> part, std::vector<unsigned> hard,
   Mechanism mech = Mechanism::IntelMpk)
{
    ConfigPoint p = wayfinder::basePoint(part, mech);
    p.hardening = std::move(hard);
    return p;
}

/** `comp<f+1> -> comp<t+1>: {deny: true}`. */
BoundaryRule
denyRule(int f, int t)
{
    return {.from = blockCompartment(f),
            .to = blockCompartment(t),
            .deny = true};
}

TEST(Refines, BasicCases)
{
    EXPECT_TRUE(refines({0, 1, 2}, {0, 0, 0}));  // finer refines coarser
    EXPECT_FALSE(refines({0, 0, 0}, {0, 1, 2}));
    EXPECT_TRUE(refines({0, 1, 0}, {0, 1, 0}));  // reflexive
    EXPECT_TRUE(refines({0, 1, 1}, {0, 1, 1}));
    EXPECT_FALSE(refines({0, 0, 1}, {0, 1, 0})); // crosswise
}

TEST(CompareSafety, PaperC1C2C3Chain)
{
    // Paper section 5: C1 no isolation/no hardening <= C2 two
    // compartments <= C3 adding CFI on top.
    ConfigPoint c1 = mk({0, 0}, {0, 0});
    ConfigPoint c2 = mk({0, 1}, {0, 0});
    ConfigPoint c3 = mk({0, 1}, {1, 1});
    EXPECT_EQ(compareSafety(c1, c2), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(c2, c3), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(c1, c3), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(c3, c1), SafetyOrder::Greater);
}

TEST(CompareSafety, IncomparableDimensions)
{
    // More compartments vs. more hardening: not comparable.
    ConfigPoint a = mk({0, 1}, {0, 0});
    ConfigPoint b = mk({0, 0}, {1, 1});
    EXPECT_EQ(compareSafety(a, b), SafetyOrder::Incomparable);

    // Hardening on different components: not comparable.
    ConfigPoint c = mk({0, 0}, {1, 0});
    ConfigPoint d = mk({0, 0}, {0, 1});
    EXPECT_EQ(compareSafety(c, d), SafetyOrder::Incomparable);
}

TEST(CompareSafety, MechanismAndSharingRank)
{
    ConfigPoint mpk = mk({0, 1}, {0, 0});
    ConfigPoint ept = mk({0, 1}, {0, 0}, Mechanism::VmEpt);
    EXPECT_EQ(compareSafety(mpk, ept), SafetyOrder::Less);

    ConfigPoint sharedStack = mpk, heap = mpk;
    sharedStack.rules = {{.from = "*",
                          .to = "*",
                          .stackSharing = StackSharing::SharedStack}};
    EXPECT_EQ(compareSafety(sharedStack, mpk), SafetyOrder::Less);
    heap.rules = {{.from = "*", .to = "*", .stackSharing = StackSharing::Heap}};
    EXPECT_EQ(compareSafety(heap, mpk), SafetyOrder::Greater);
}

TEST(CompareSafety, NoneMechanismIsBuiltAndOrderedAsNone)
{
    // The order and the built image agree: a none point builds
    // `mechanism: none` everywhere and sits below the MPK point.
    ConfigPoint none = wayfinder::basePoint({0, 0, 0, 0}, Mechanism::None);
    SafetyConfig cfg = wayfinder::toSafetyConfig(none, "libredis");
    ASSERT_EQ(cfg.compartments.size(), 1u);
    EXPECT_EQ(cfg.compartments[0].mechanism, Mechanism::None);
    EXPECT_EQ(compareSafety(none, wayfinder::basePoint({0, 0, 0, 0})),
              SafetyOrder::Less);
}

TEST(CompareSafety, ValidateRuleOrdersPoints)
{
    // A rule the image enforces is a rule the order sees.
    ConfigPoint plain = mk({0, 0, 1, 2}, {0, 0, 0, 0});
    ConfigPoint validated = plain;
    validated.rules = {{.from = "*", .to = "*", .validate = true}};
    EXPECT_EQ(compareSafety(plain, validated), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(validated, plain), SafetyOrder::Greater);
}

TEST(CompareSafety, RateBudgetsOrderUnderEqualParameters)
{
    auto limited = [](std::uint64_t rate, std::uint64_t window) {
        ConfigPoint p = mk({0, 1}, {0, 0});
        p.rules = {{.from = "*", .to = "*", .rate = rate, .window = window}};
        return p;
    };
    ConfigPoint unlimited = mk({0, 1}, {0, 0});
    // Unlimited is least safe; a lower budget is safer.
    EXPECT_EQ(compareSafety(unlimited, limited(100, 1000)),
              SafetyOrder::Less);
    EXPECT_EQ(compareSafety(limited(100, 1000), limited(10, 1000)),
              SafetyOrder::Less);
    // Budgets over different windows do not compare.
    EXPECT_EQ(compareSafety(limited(100, 1000), limited(10, 2000)),
              SafetyOrder::Incomparable);
}

/** The seven sweeps tests/golden/safety_order.txt records, by name. */
std::vector<std::pair<std::string, std::vector<ConfigPoint>>>
oracleSpaces()
{
    return {{"fig6", wayfinder::fig6Space()},
            {"mixedMechanism", wayfinder::mixedMechanismSpace()},
            {"gateFlavor", wayfinder::gateFlavorSpace()},
            {"coreCount", wayfinder::coreCountSpace()},
            {"batching", wayfinder::batchingSpace()},
            {"controller", wayfinder::controllerSpace()},
            {"leastPrivilege", wayfinder::leastPrivilegeSpace()}};
}

/** A random 4-component partition, block ids in first-appearance order. */
std::vector<int>
randomPartition(Rng &rng)
{
    std::vector<int> part(4), idOf(3, -1);
    int next = 0;
    for (int &b : part) {
        int &id = idOf[rng.below(3)];
        if (id < 0)
            id = next++;
        b = id;
    }
    return part;
}

/**
 * Four random boundary rules over every GatePolicy field, on distinct
 * (from, to) keys so no two rules meet at one specificity on a cell
 * (equal-specificity conflicts are build errors). Deny rules are
 * exact block pairs that set nothing else, as the parser demands.
 */
std::vector<BoundaryRule>
randomRules(Rng &rng, int nBlocks, bool withDeny)
{
    std::vector<std::string> ends = {"*"};
    for (int b = 0; b < nBlocks; ++b)
        ends.push_back(blockCompartment(b));
    std::set<std::pair<std::string, std::string>> keys;
    while (keys.size() < 4)
        keys.emplace(ends[rng.below(ends.size())],
                     ends[rng.below(ends.size())]);
    std::vector<BoundaryRule> rules;
    for (const auto &[from, to] : keys) {
        BoundaryRule &r = rules.emplace_back(BoundaryRule{from, to});
        if (withDeny && from != "*" && to != "*" && from != to &&
            rng.chance(1, 2)) {
            r.deny = true;
            continue;
        }
        // Each field set with probability 1/3.
        auto maybe = [&](auto &field, auto value) {
            if (rng.chance(1, 3))
                field = value;
        };
        maybe(r.flavor, static_cast<MpkGateFlavor>(rng.below(2)));
        maybe(r.validate, rng.chance(1, 2));
        maybe(r.validateReturn, rng.chance(1, 2));
        maybe(r.scrub, rng.chance(1, 2));
        maybe(r.elide, static_cast<GateElide>(rng.below(4)));
        maybe(r.stackSharing, static_cast<StackSharing>(rng.below(3)));
        maybe(r.rate, 10 * rng.range(1, 3));
        maybe(r.window, 1000 * rng.range(1, 2));
        maybe(r.weight, rng.range(1, 2));
        maybe(r.overflow, static_cast<RateOverflow>(rng.below(2)));
        maybe(r.batch, rng.range(1, 8));
        maybe(r.coalesce, 1000 * rng.below(2));
        maybe(r.adaptive, rng.chance(1, 2));
    }
    return rules;
}

/**
 * 100 random points, each over a random partition, sharing one pool of
 * random rules over three blocks: a point takes a random subset of the
 * rules naming only blocks it has, so that many pairs compare, across
 * partitions too.
 */
std::vector<ConfigPoint>
randomSamples(Rng &rng, bool withDeny)
{
    static const Mechanism mechs[] = {Mechanism::None, Mechanism::IntelMpk,
                                      Mechanism::VmEpt, Mechanism::Cheri};
    std::vector<BoundaryRule> pool = randomRules(rng, 3, withDeny);
    std::vector<ConfigPoint> pts;
    for (int i = 0; i < 100; ++i) {
        ConfigPoint p = wayfinder::basePoint(randomPartition(rng));
        for (unsigned &h : p.hardening)
            h = rng.chance(1, 8) ? static_cast<unsigned>(rng.below(4)) : 0;
        for (Mechanism &m : p.blockMechanism)
            m = rng.chance(1, 8) ? mechs[rng.below(4)] : Mechanism::IntelMpk;
        auto names = [&](const std::string &end) {
            for (int b = 0; b < p.compartments(); ++b)
                if (end == blockCompartment(b))
                    return true;
            return end == "*";
        };
        for (const BoundaryRule &r : pool)
            if (names(r.from) && names(r.to) && rng.chance(1, 2))
                p.rules.push_back(r);
        p.cores = static_cast<int>(rng.range(1, 2));
        pts.push_back(std::move(p));
    }
    return pts;
}

/** The order over pts as a table, [i][j] = compareSafety(pts[i], pts[j]). */
std::vector<std::vector<SafetyOrder>>
orderTable(const std::vector<ConfigPoint> &pts)
{
    std::vector<GateMatrix> mats;
    for (const ConfigPoint &p : pts)
        mats.push_back(blockMatrix(p));
    std::vector<std::vector<SafetyOrder>> t(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        for (std::size_t j = 0; j < pts.size(); ++j)
            t[i].push_back(compareSafety(pts[i], mats[i], pts[j], mats[j]));
    return t;
}

/**
 * Property: reflexivity, antisymmetry and transitivity over random
 * samples, one set without deny rules and one with them.
 */
TEST(CompareSafety, OrderAxiomsHoldOnRandomSamples)
{
    Rng rng(17);
    for (bool withDeny : {false, true}) {
        std::vector<ConfigPoint> pts = randomSamples(rng, withDeny);
        auto t = orderTable(pts);
        auto le = [&](std::size_t a, std::size_t b) {
            return t[a][b] == SafetyOrder::Less ||
                   t[a][b] == SafetyOrder::Equal;
        };
        std::size_t strictChains = 0;
        for (std::size_t a = 0; a < pts.size(); ++a) {
            EXPECT_EQ(t[a][a], SafetyOrder::Equal);
            for (std::size_t b = 0; b < pts.size(); ++b) {
                static const SafetyOrder flipped[] = {
                    SafetyOrder::Greater, SafetyOrder::Equal,
                    SafetyOrder::Less, SafetyOrder::Incomparable};
                EXPECT_EQ(t[b][a], flipped[static_cast<int>(t[a][b])]);
                if (a == b || !le(a, b))
                    continue;
                for (std::size_t c = 0; c < pts.size(); ++c) {
                    if (c == b || !le(b, c))
                        continue;
                    EXPECT_TRUE(le(a, c)) << a << " <= " << b << " <= " << c;
                    if (t[a][b] == SafetyOrder::Less &&
                        t[b][c] == SafetyOrder::Less)
                        ++strictChains;
                    if (t[a][b] == SafetyOrder::Less ||
                        t[b][c] == SafetyOrder::Less) {
                        EXPECT_EQ(t[a][c], SafetyOrder::Less);
                    }
                }
            }
        }
        EXPECT_GT(strictChains, 20u) << "the samples barely compare";
        bool denies = false;
        for (const ConfigPoint &p : pts)
            for (const BoundaryRule &r : p.rules)
                denies = denies || r.deny.value_or(false);
        EXPECT_EQ(denies, withDeny);
    }
}

/**
 * What a built image enforces: the partition, the libraries'
 * hardening and the block gate matrix, with the performance-only
 * fields stripped (batch, coalesce, adaptive; the window, weight and
 * overflow of an unlimited boundary have no effect either).
 */
auto
protectionState(const ConfigPoint &p)
{
    SafetyConfig cfg = wayfinder::toSafetyConfig(p, "libredis");
    GateMatrix m = GateMatrix::build(cfg);
    std::vector<GatePolicy> cells;
    for (std::size_t f = 0; f < m.size(); ++f) {
        for (std::size_t t = 0; t < m.size(); ++t) {
            GatePolicy c = m.at(static_cast<int>(f), static_cast<int>(t));
            c.batch = 1;
            c.coalesce = 0;
            c.adaptive = false;
            if (c.rate == 0) {
                c.rateWindow = defaultRateWindow;
                c.weight = 1;
                c.overflow = RateOverflow::Stall;
            }
            cells.push_back(c);
        }
    }
    return std::tuple(p.partition, cfg.libHardening, cells);
}

/**
 * Property: two points compare Equal exactly when the images built
 * from them enforce the same protection state — the order sees every
 * protection dimension the build emits, and nothing the build drops.
 */
TEST(CompareSafety, EqualExactlyWhenProtectionStateEqual)
{
    auto check = [](const std::vector<ConfigPoint> &pts) {
        auto t = orderTable(pts);
        std::vector<decltype(protectionState(pts[0]))> states;
        for (const ConfigPoint &p : pts)
            states.push_back(protectionState(p));
        std::size_t equal = 0;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            for (std::size_t j = 0; j < pts.size(); ++j) {
                bool same = states[i] == states[j];
                EXPECT_EQ(t[i][j] == SafetyOrder::Equal, same)
                    << wayfinder::pointLabel(pts[i], "app") << " vs "
                    << wayfinder::pointLabel(pts[j], "app");
                equal += same && i != j;
            }
        }
        return equal;
    };
    for (const auto &[name, space] : oracleSpaces())
        check(space);

    // Random points, each beside a twin that redraws only the
    // performance-only knobs.
    Rng rng(23);
    std::vector<ConfigPoint> pts;
    for (bool withDeny : {false, true}) {
      for (ConfigPoint &p : randomSamples(rng, withDeny)) {
        ConfigPoint twin = p;
        twin.cores = 3 - p.cores;
        for (BoundaryRule &r : twin.rules) {
            if (r.batch)
                r.batch = rng.range(1, 8);
            if (r.adaptive)
                r.adaptive = !*r.adaptive;
        }
        pts.push_back(std::move(p));
        pts.push_back(std::move(twin));
      }
    }
    EXPECT_GE(check(pts), 120u);
}

/**
 * Oracle: the committed tests/golden/safety_order.txt records the
 * order over seven wayfinder spaces as an earlier compareSafety
 * computed it; the current order must reproduce every pair.
 */
TEST(CompareSafety, ReproducesOrderOracle)
{
    std::vector<std::string> rows;
    for (const auto &[name, space] : oracleSpaces()) {
        for (std::size_t i = 0; i < space.size(); ++i) {
            static const char sym[] = {'<', '=', '>', '~'};
            std::string row = name + " " + std::to_string(i) + " ";
            for (const ConfigPoint &b : space)
                row += sym[static_cast<int>(compareSafety(space[i], b))];
            rows.push_back(std::move(row));
        }
    }

    std::ifstream in(FLEXOS_REPO_ROOT "/tests/golden/safety_order.txt");
    ASSERT_TRUE(in) << "missing tests/golden/safety_order.txt";
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            golden.push_back(line);
    ASSERT_EQ(golden.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], golden[i]);
}

TEST(Poset, HasseEdgesSkipTransitive)
{
    SafetyPoset poset;
    std::size_t c1 = poset.add(mk({0, 0}, {0, 0}));
    std::size_t c2 = poset.add(mk({0, 1}, {0, 0}));
    std::size_t c3 = poset.add(mk({0, 1}, {1, 1}));
    poset.buildEdges();
    // c1 -> c2 -> c3 but no direct c1 -> c3 edge.
    EXPECT_EQ(poset.coversOf(c1), std::vector<std::size_t>{c2});
    EXPECT_EQ(poset.coversOf(c2), std::vector<std::size_t>{c3});
    EXPECT_TRUE(poset.coversOf(c3).empty());
}

TEST(Poset, SafestWithinBudgetPicksMaximal)
{
    SafetyPoset poset;
    std::size_t fast = poset.add(mk({0, 0}, {0, 0}));
    std::size_t mid = poset.add(mk({0, 1}, {0, 0}));
    std::size_t safe = poset.add(mk({0, 1}, {1, 1}));
    std::size_t side = poset.add(mk({0, 0}, {1, 1}));
    poset.at(fast).perf = 100;
    poset.at(mid).perf = 70;
    poset.at(safe).perf = 30; // misses the budget below
    poset.at(side).perf = 60;
    poset.buildEdges();

    std::vector<std::size_t> best = poset.safestWithin(50);
    std::set<std::size_t> bestSet(best.begin(), best.end());
    // 'safe' misses the budget; 'mid' and 'side' are maximal among the
    // remaining; 'fast' is dominated by 'mid'.
    EXPECT_EQ(bestSet, (std::set<std::size_t>{mid, side}));
}

TEST(Poset, ExploreSkipsDominatedEvaluations)
{
    // A chain of increasing safety with monotonically decreasing
    // performance: exploration must stop evaluating past the first
    // node under budget.
    SafetyPoset poset;
    for (unsigned h = 0; h <= 3; ++h) {
        std::vector<unsigned> hard(2);
        hard[0] = h >= 1 ? 1 : 0;
        hard[1] = h >= 2 ? 1 : 0;
        poset.add(mk({0, 1}, hard,
                     h == 3 ? Mechanism::VmEpt : Mechanism::IntelMpk));
    }
    poset.buildEdges();

    int evals = 0;
    std::size_t ran = poset.explore(
        [&](ConfigPoint &p) {
            ++evals;
            // Perf drops sharply with each hardening step.
            double perf = 100;
            for (unsigned h : p.hardening)
                perf -= h * 45;
            return perf;
        },
        40);
    EXPECT_LT(ran, poset.size()); // pruning saved evaluations
    EXPECT_EQ(static_cast<std::size_t>(evals), ran);
}

TEST(Poset, DotOutputMarksWinners)
{
    SafetyPoset poset;
    poset.add(mk({0, 0}, {0, 0}));
    poset.add(mk({0, 1}, {0, 0}));
    poset.at(0).perf = 90;
    poset.at(0).label = "A";
    poset.at(1).perf = 80;
    poset.at(1).label = "B";
    poset.buildEdges();
    std::string dot = poset.toDot(50);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("shape=star"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

// ------------------------------------------------------------ wayfinder

TEST(Wayfinder, SpaceHas80DistinctConfigurations)
{
    auto space = wayfinder::fig6Space();
    EXPECT_EQ(space.size(), 80u);
    std::set<std::string> seen;
    for (const auto &p : space) {
        std::string key;
        for (int b : p.partition)
            key += std::to_string(b);
        for (unsigned h : p.hardening)
            key += std::to_string(h);
        seen.insert(key);
    }
    EXPECT_EQ(seen.size(), 80u);
}

TEST(Wayfinder, PartitionsMatchFigure8Strategies)
{
    const auto &parts = wayfinder::fig6Partitions();
    ASSERT_EQ(parts.size(), 5u);
    std::multiset<int> counts;
    for (const auto &p : parts) {
        ConfigPoint cp;
        cp.partition = p;
        counts.insert(cp.compartments());
    }
    EXPECT_EQ(counts, (std::multiset<int>{1, 2, 2, 2, 3}));
}

TEST(Wayfinder, ConfigsValidateAndBuild)
{
    auto space = wayfinder::fig6Space();
    // Spot-check a handful of corners: the all-in-one, the 3-comp with
    // full hardening, and one asymmetric point.
    for (std::size_t idx : {0ul, 79ul, 37ul}) {
        SafetyConfig cfg =
            wayfinder::toSafetyConfig(space[idx], "libredis");
        LibraryRegistry reg = LibraryRegistry::standard();
        Toolchain tc(reg);
        EXPECT_NO_THROW(tc.validate(cfg)) << idx;
    }
}

TEST(Wayfinder, MeasuredThroughputOrdersSanely)
{
    auto space = wayfinder::fig6Space();
    // Config 0: no isolation, no hardening = fastest corner.
    double fastest = wayfinder::measureRedis(space[0], 200);
    // Config 79: 3 compartments, everything hardened = slow corner.
    double slowest = wayfinder::measureRedis(space[79], 200);
    EXPECT_GT(fastest, slowest * 1.5);
}

// ------------------------------------------------- mixed mechanisms

TEST(CompareSafety, PerBlockMechanismsOrderComponentWise)
{
    // Same partition {0,1}: all-EPT dominates MPK+EPT dominates
    // all-MPK; MPK+EPT and EPT+MPK are incomparable.
    constexpr Mechanism mpk = Mechanism::IntelMpk, ept = Mechanism::VmEpt;
    auto mkMech = [](std::vector<Mechanism> blocks) {
        ConfigPoint p = mk({0, 1}, {0, 0});
        p.blockMechanism = std::move(blocks);
        return p;
    };
    ConfigPoint allMpk = mkMech({mpk, mpk});
    ConfigPoint mixed = mkMech({mpk, ept});
    ConfigPoint allEpt = mkMech({ept, ept});
    ConfigPoint flipped = mkMech({ept, mpk});
    EXPECT_EQ(compareSafety(allMpk, mixed), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(mixed, allMpk), SafetyOrder::Greater);
    EXPECT_EQ(compareSafety(mixed, allEpt), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(allMpk, allEpt), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(mixed, flipped), SafetyOrder::Incomparable);
}

TEST(Wayfinder, MixedSpaceEnumeratesPerBlockAssignments)
{
    auto space = wayfinder::mixedMechanismSpace();
    // 5 partitions with {1,2,2,2,3} blocks over {none, mpk, ept,
    // cheri}: 4 + 16 + 16 + 16 + 64.
    EXPECT_EQ(space.size(), 116u);
    std::set<std::string> seen;
    for (const auto &p : space) {
        EXPECT_EQ(p.blockMechanism.size(),
                  static_cast<std::size_t>(p.compartments()));
        std::string key;
        for (int b : p.partition)
            key += std::to_string(b);
        key += "|";
        for (Mechanism m : p.blockMechanism)
            key += mechanismName(m);
        seen.insert(key);
    }
    EXPECT_EQ(seen.size(), 116u);
}

TEST(Wayfinder, MixedConfigsValidateAndMaterializeMechanisms)
{
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);
    auto space = wayfinder::mixedMechanismSpace();
    int heterogeneous = 0;
    for (const auto &p : space) {
        SafetyConfig cfg = wayfinder::toSafetyConfig(p, "libredis");
        EXPECT_NO_THROW(tc.validate(cfg));
        if (cfg.mechanisms().size() > 1)
            ++heterogeneous;
        // Each block's compartment carries its assigned mechanism.
        for (std::size_t b = 0; b < p.blockMechanism.size(); ++b)
            EXPECT_EQ(cfg.compartments[b].mechanism, p.blockMechanism[b]);
    }
    EXPECT_GT(heterogeneous, 0);
}

TEST(Wayfinder, MixedPointMeasuresBetweenHomogeneousCorners)
{
    // Partition E (3 blocks): all-MPK vs net-block-on-EPT vs all-EPT.
    constexpr Mechanism mpk = Mechanism::IntelMpk, ept = Mechanism::VmEpt;
    auto withMechs = [](std::vector<Mechanism> m) {
        ConfigPoint p = wayfinder::basePoint({0, 0, 1, 2});
        p.blockMechanism = std::move(m);
        return p;
    };
    double allMpk = wayfinder::measureRedis(withMechs({mpk, mpk, mpk}), 150);
    double netEpt = wayfinder::measureRedis(withMechs({mpk, mpk, ept}), 150);
    double allEpt = wayfinder::measureRedis(withMechs({ept, ept, ept}), 150);
    // Stronger mechanisms on more boundaries cost more.
    EXPECT_GT(allMpk, netEpt);
    EXPECT_GT(netEpt, allEpt);
}

TEST(Wayfinder, MixedLabelsRenderMechanisms)
{
    auto space = wayfinder::mixedMechanismSpace();
    // The last point of the last partition is all-cheri; an all-ept
    // point appears earlier in the same enumeration.
    std::string label = wayfinder::pointLabel(space.back(), "libredis");
    EXPECT_NE(label.find("{"), std::string::npos);
    EXPECT_NE(label.find("cheri"), std::string::npos);
    bool sawEpt = false;
    for (const auto &p : space)
        if (wayfinder::pointLabel(p, "libredis").find("ept") !=
            std::string::npos)
            sawEpt = true;
    EXPECT_TRUE(sawEpt);
}

TEST(Wayfinder, LabelsRenderPartitionAndHardening)
{
    auto space = wayfinder::fig6Space();
    std::string label = wayfinder::pointLabel(space[79], "libredis");
    EXPECT_NE(label.find("/"), std::string::npos);
    EXPECT_NE(label.find("●"), std::string::npos);
}

TEST(CompareSafety, DeniedEdgeSupersetIsSafer)
{
    ConfigPoint base = wayfinder::basePoint({0, 0, 1, 2});

    ConfigPoint one = base, two = base, other = base;
    one.rules = {denyRule(1, 2)};
    two.rules = {denyRule(1, 2), denyRule(2, 1)};
    other.rules = {denyRule(2, 1)};

    // Denying more edges is safer; disjoint sets are incomparable.
    EXPECT_EQ(compareSafety(base, one), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(one, two), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(two, one), SafetyOrder::Greater);
    EXPECT_EQ(compareSafety(one, other), SafetyOrder::Incomparable);

    // Across different partitions deny compares per component pair:
    // a coarser point denying edges the finer one leaves open is
    // incomparable to it.
    ConfigPoint coarser = wayfinder::basePoint({0, 0, 1, 1});
    EXPECT_EQ(compareSafety(coarser, base), SafetyOrder::Less);
    coarser.rules = {denyRule(0, 1)};
    EXPECT_EQ(compareSafety(coarser, one), SafetyOrder::Incomparable);
}

TEST(CompareSafety, DenyOrdersTransitivelyAcrossPartitions)
{
    // Regression: the bare lwip split < the three-way split < the
    // three-way split with a denied edge, so the ends compare too. An
    // earlier rule made points over different partitions incomparable
    // whenever either denied an edge, which broke this chain.
    ConfigPoint lwipSplit = wayfinder::basePoint({0, 0, 0, 1});
    ConfigPoint threeWay = wayfinder::basePoint({0, 0, 1, 2});
    ConfigPoint denied = threeWay;
    denied.rules = {denyRule(1, 2)};
    EXPECT_EQ(compareSafety(lwipSplit, threeWay), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(threeWay, denied), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(lwipSplit, denied), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(denied, lwipSplit), SafetyOrder::Greater);
}

TEST(Wayfinder, LeastPrivilegeSpaceSkipsRequiredEdges)
{
    // Every enumerated point must be buildable: denied edges never
    // include an edge the static call graph needs, so validation and
    // matrix resolution succeed for all of them.
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);
    auto space = wayfinder::leastPrivilegeSpace();
    EXPECT_GE(space.size(), 5u); // at least the 5 bare partitions
    bool sawDeny = false;
    for (const ConfigPoint &p : space) {
        SafetyConfig cfg = wayfinder::toSafetyConfig(p, "libredis");
        EXPECT_NO_THROW(tc.validate(cfg));
        std::vector<std::pair<int, int>> denied;
        for (const BoundaryRule &r : p.rules) {
            EXPECT_TRUE(r.deny.value_or(false));
            denied.emplace_back(cfg.compartmentIndex(r.from),
                                cfg.compartmentIndex(r.to));
        }
        if (!denied.empty()) {
            // Image build runs the static-edge deny rejection; a
            // least-privilege point must never trip it.
            Machine mach;
            MachineScope scope(mach);
            Scheduler sched(mach);
            cfg.heapBytes = 64 * 1024;
            cfg.sharedHeapBytes = 64 * 1024;
            EXPECT_NO_THROW(tc.build(mach, sched, cfg)->shutdown());
        }
        auto required =
            wayfinder::requiredBlockEdges(p.partition, "libredis");
        for (const auto &edge : denied) {
            sawDeny = true;
            for (const auto &req : required)
                EXPECT_NE(edge, req);
        }
        // The matrix resolves the deny rules the point asked for.
        GateMatrix m = GateMatrix::build(cfg);
        for (const auto &[f, t] : denied)
            EXPECT_TRUE(m.at(f, t).deny);
    }
    EXPECT_TRUE(sawDeny); // the dimension is not degenerate

    // Denied labels render and the points order in the poset.
    for (const ConfigPoint &p : space) {
        if (p.rules.empty())
            continue;
        EXPECT_NE(wayfinder::pointLabel(p, "libredis").find("deny: true"),
                  std::string::npos);
    }
}

} // namespace
} // namespace flexos
