/**
 * @file
 * Vectored-crossing tests: `batch:` / `coalesce:` / `elide:` knob
 * parse + toText round-trip and wildcard layering, the crossing
 * contract on every mechanism (batch: 1 vcycle identity, exact chunk
 * arithmetic, the ledger after a throwing body), per-logical-call
 * throttle debiting, a plain EPT crossing made with deferred calls
 * queued, elision streaks resetting on interleaved boundaries, RX integrity under the deployment's batched drain, and
 * the monotone product-space pruner against brute force.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/deploy.hh"
#include "apps/iperf.hh"
#include "core/image.hh"
#include "core/toolchain.hh"
#include "explore/poset.hh"
#include "explore/wayfinder.hh"

namespace flexos {
namespace {

struct BatchingFixture : ::testing::Test
{
    BatchingFixture()
        : scope(mach), sched(mach), reg(LibraryRegistry::standard()),
          tc(reg)
    {
    }

    std::unique_ptr<Image>
    buildFrom(const std::string &text)
    {
        SafetyConfig cfg = SafetyConfig::parse(text);
        cfg.heapBytes = 1 << 20;
        cfg.sharedHeapBytes = 1 << 20;
        return tc.build(mach, sched, cfg);
    }

    Machine mach;
    MachineScope scope;
    Scheduler sched;
    LibraryRegistry reg;
    Toolchain tc;
};

// --------------------------------------------------- config surface

TEST_F(BatchingFixture, BatchKnobsParseAndRoundTripThroughToText)
{
    const char *text = R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: vm-ept
libraries:
- libredis: app
- lwip: net
boundaries:
- app -> net: {batch: 8, coalesce: 2000}
- net -> app: {elide: scrub}
)";
    SafetyConfig cfg = SafetyConfig::parse(text);
    ASSERT_EQ(cfg.boundaries.size(), 2u);
    EXPECT_EQ(cfg.boundaries[0].batch, 8u);
    EXPECT_EQ(cfg.boundaries[0].coalesce, 2000u);
    EXPECT_FALSE(cfg.boundaries[0].elide.has_value());
    EXPECT_EQ(cfg.boundaries[1].elide, GateElide::Scrub);

    SafetyConfig again = SafetyConfig::parse(cfg.toText());
    EXPECT_EQ(again.boundaries, cfg.boundaries);
    GateMatrix m = GateMatrix::build(again);
    EXPECT_EQ(m.at(0, 1).batch, 8u);
    EXPECT_EQ(m.at(0, 1).coalesce, 2000u);
    EXPECT_EQ(m.at(1, 0).elide, GateElide::Scrub);
    // Untouched cells keep the full-strength defaults.
    EXPECT_EQ(m.at(1, 0).batch, 1u);
    EXPECT_EQ(m.at(0, 1).elide, GateElide::None);
    // The policy name carries the tuning for ledgers and docs.
    EXPECT_NE(m.at(0, 1).name().find("batch(8)"), std::string::npos);
    EXPECT_NE(m.at(0, 1).name().find("coalesce(2000)"),
              std::string::npos);
    EXPECT_NE(m.at(1, 0).name().find("elide=scrub"), std::string::npos);
}

TEST_F(BatchingFixture, BatchKnobsLayerBySpecificity)
{
    // Wildcard batch applies image-wide; a callee-side rule overrides
    // the caller-side one; the exact pair wins without disturbing
    // fields it does not set.
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
- c:
    mechanism: intel-mpk
libraries:
- libredis: a
boundaries:
- '*' -> '*': {batch: 4}
- '*' -> b: {batch: 8, elide: validate}
- a -> b: {elide: both}
- a -> '*': {coalesce: 500}
)");
    GateMatrix m = GateMatrix::build(cfg);
    // a -> c: global batch, caller-side coalesce.
    EXPECT_EQ(m.at(0, 2).batch, 4u);
    EXPECT_EQ(m.at(0, 2).coalesce, 500u);
    EXPECT_EQ(m.at(0, 2).elide, GateElide::None);
    // a -> b: callee-side batch beats global; exact elide beats the
    // callee-side one; caller-side coalesce still layers in.
    EXPECT_EQ(m.at(0, 1).batch, 8u);
    EXPECT_EQ(m.at(0, 1).elide, GateElide::Both);
    EXPECT_EQ(m.at(0, 1).coalesce, 500u);
    // c -> b: callee-side only.
    EXPECT_EQ(m.at(2, 1).batch, 8u);
    EXPECT_EQ(m.at(2, 1).elide, GateElide::Validate);

    // Knob validation: batch: 0 is not a width, a denied edge has no
    // gate to tune, and equal-specificity disagreement is ambiguous.
    // lint-skip: intentionally invalid fragments below.
    auto parse = [](const std::string &rules) {
        return SafetyConfig::parse(std::string(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
libraries:
- libredis: a
boundaries:
)") + rules);
    };
    EXPECT_THROW(parse("- a -> b: {batch: 0}\n"), FatalError);
    EXPECT_THROW(parse("- a -> b: {deny: true, batch: 8}\n"),
                 FatalError);
    EXPECT_THROW(parse("- a -> b: {deny: true, elide: both}\n"),
                 FatalError);
    EXPECT_THROW(GateMatrix::build(parse("- a -> b: {batch: 4}\n"
                                         "- a -> b: {batch: 8}\n")),
                 FatalError);
}

// --------------------------------------------- vcycle identity + cost

const char *twoCompMpk = R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
libraries:
- libredis: a
- lwip: b
)";

/** How a mechanism's backend carries a chunk of batched calls. */
enum class Vectoring
{
    OneLeg,  ///< MPK, CHERI: one entry/return leg plus per-slot dispatch
    OneRpc,  ///< EPT: one ring slot and one doorbell for the chunk
    PerCall, ///< the baselines: a full crossing per call
};

/** One mechanism (and gate policy) the crossing contract runs over. */
struct MechanismCase
{
    const char *name;
    const char *mechanism;
    const char *rule; ///< boundary rule for every edge, or nullptr
    Vectoring vectoring;
    /** The timing constant one round trip costs, where it is one. */
    Cycles TimingModel::*roundTrip;
};

std::ostream &
operator<<(std::ostream &os, const MechanismCase &c)
{
    return os << c.name;
}

const MechanismCase mechanismCases[] = {
    {"mpk_light", "intel-mpk", "'*' -> '*': {gate: light}",
     Vectoring::OneLeg, &TimingModel::mpkLightGate},
    {"mpk_dss", "intel-mpk", "'*' -> '*': {gate: dss}", Vectoring::OneLeg,
     &TimingModel::mpkDssGate},
    {"mpk_dss_noscrub", "intel-mpk",
     "'*' -> '*': {gate: dss, scrub: false}", Vectoring::OneLeg, nullptr},
    {"cheri", "cheri", nullptr, Vectoring::OneLeg, nullptr},
    {"ept", "vm-ept", nullptr, Vectoring::OneRpc, nullptr},
    {"none", "none", nullptr, Vectoring::PerCall,
     &TimingModel::functionCall},
    {"linux_pt", "linux-pt", nullptr, Vectoring::PerCall,
     &TimingModel::syscallKpti},
    {"sel4_ipc", "sel4-ipc", nullptr, Vectoring::PerCall,
     &TimingModel::sel4Ipc},
    {"cubicle_mpk", "cubicle-mpk", nullptr, Vectoring::PerCall, nullptr},
};

/**
 * Compartments a (libredis) and b (lwip) under the case's mechanism,
 * with its rule and an optional second one.
 */
std::string
twoComp(const MechanismCase &c, const char *extraRule = nullptr)
{
    std::string text = std::string("compartments:\n- a:\n    mechanism: ") +
                       c.mechanism + "\n    default: True\n- b:\n"
                       "    mechanism: " + c.mechanism +
                       "\nlibraries:\n- libredis: a\n- lwip: b\n";
    if (c.rule || extraRule)
        text += "boundaries:\n";
    for (const char *rule : {c.rule, extraRule})
        if (rule)
            text += std::string("- ") + rule + "\n";
    return text;
}

/** What a run of a -> b crossings leaves behind. */
struct CrossingRun
{
    Cycles wall = 0;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::pair<int, int>, std::uint64_t> crossings;
};

/**
 * Drive `calls` crossings a -> b on a fresh machine built from `text`:
 * plain gate() calls when `perCall` is 0, otherwise gateBatch() in
 * chunks of `perCall` bodies.
 */
CrossingRun
runCrossings(LibraryRegistry &reg, const std::string &text,
             std::size_t calls, std::size_t perCall)
{
    Machine m;
    MachineScope scope(m);
    Scheduler sched(m);
    Toolchain tc(reg);
    SafetyConfig cfg = SafetyConfig::parse(text);
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    auto img = tc.build(m, sched, cfg);
    std::vector<std::function<void()>> bodies(perCall, [] {});
    img->spawnIn("libredis", "t", [&] {
        for (std::size_t i = 0; i < calls; i += perCall ? perCall : 1) {
            if (perCall)
                img->gateBatch("lwip", "recv", bodies);
            else
                img->gate("lwip", "recv", [] {});
        }
    });
    sched.run();
    img->shutdown();
    return {m.wallCycles(), m.counters(), img->gateCrossings()};
}

/**
 * Average vcycles per call of `calls` a -> b crossings, measured the
 * way fig11b measures its rows: plain gate() calls when `width` is 0,
 * otherwise gateBatch() in chunks of `width`, on a deployment without
 * network or filesystem.
 */
double
perCallCost(const std::string &text, std::size_t width)
{
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    Deployment dep(text, opts);
    constexpr std::size_t calls = 2000;
    std::vector<std::function<void()>> bodies(width, [] {});
    Cycles measured = 0;
    bool done = false;
    dep.image().spawnIn("libredis", "gate-bench", [&] {
        Cycles before = dep.machine().cycles();
        for (std::size_t i = 0; i < calls; i += width ? width : 1) {
            if (width)
                dep.image().gateBatch("lwip", "recv", bodies);
            else
                dep.image().gate("lwip", "recv", [] {});
        }
        measured = dep.machine().cycles() - before;
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    EXPECT_TRUE(done);
    EXPECT_EQ(dep.image().gateCrossings().at({0, 1}), calls);
    return static_cast<double>(measured) / calls;
}

/** The crossing contract, run once per mechanism. */
struct CrossingContract : BatchingFixture,
                          ::testing::WithParamInterface<MechanismCase>
{
};

TEST_P(CrossingContract, BatchOneIsVcycleIdenticalToSequentialGates)
{
    // The regression pin: `batch: 1` (and an unconfigured boundary
    // driven through the vectored API) must be bit-identical in
    // virtual time, counters and the crossing ledger to the plain
    // sequential gate.
    const MechanismCase &c = GetParam();
    CrossingRun plain = runCrossings(reg, twoComp(c), 64, 0);
    for (const CrossingRun &run :
         {runCrossings(reg, twoComp(c), 64, 1),
          runCrossings(reg, twoComp(c, "a -> b: {batch: 1}"), 64, 1)}) {
        EXPECT_EQ(run.wall, plain.wall);
        EXPECT_EQ(run.counters, plain.counters);
        EXPECT_EQ(run.crossings, plain.crossings);
    }
    EXPECT_EQ(plain.crossings.at({0, 1}), 64u);
    // No vectored-path artifacts exist at width 1.
    EXPECT_EQ(plain.counters.count("gate.batched"), 0u);
    EXPECT_EQ(plain.counters.count("gate.coalesced"), 0u);
}

TEST_P(CrossingContract, BatchedChunkCostsOneGatePlusSlotDispatch)
{
    // A full chunk of 8 calls costs one gate round trip plus 7
    // per-slot dispatches where the backend amortizes the transition
    // (MPK, CHERI), and 8 round trips where it cannot (the baselines).
    const MechanismCase &c = GetParam();
    const std::string batched = twoComp(c, "a -> b: {batch: 8}");
    if (c.vectoring == Vectoring::OneRpc) {
        // EPT, as fig11b measures it: one doorbell per 8 calls turns
        // the 462-vcycle round trip into (462 + 7 x 6) / 8 = 63.
        double roundTrip = perCallCost(twoComp(c), 0);
        EXPECT_EQ(roundTrip, static_cast<double>(
                                 mach.timing.eptGate +
                                 2 * mach.timing.contextSwitch +
                                 mach.timing.pollDispatch));
        EXPECT_EQ(perCallCost(batched, 8),
                  (roundTrip + 7.0 * mach.timing.batchSlot) / 8);
        return;
    }
    auto img = buildFrom(batched);
    std::vector<std::function<void()>> one(1, [] {});
    std::vector<std::function<void()>> eight(8, [] {});
    Cycles gateCost = 0, eightGatesCost = 0, chunkCost = 0;
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gateBatch("lwip", "recv", one); // warm the sim stack
        Cycles t0 = mach.cycles();
        img->gateBatch("lwip", "recv", one);
        gateCost = mach.cycles() - t0;
        t0 = mach.cycles();
        for (int i = 0; i < 8; ++i)
            img->gateBatch("lwip", "recv", one);
        eightGatesCost = mach.cycles() - t0;
        // An even number of calls so far: cubicle-mpk's every-other
        // trap-and-map fault lines up with the eight gates above.
        t0 = mach.cycles();
        img->gateBatch("lwip", "recv", eight);
        chunkCost = mach.cycles() - t0;
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    if (c.roundTrip) {
        EXPECT_EQ(gateCost, mach.timing.*c.roundTrip);
    }
    if (c.vectoring == Vectoring::OneLeg) {
        EXPECT_EQ(chunkCost, gateCost + 7 * mach.timing.batchSlot);
    } else {
        EXPECT_EQ(chunkCost, eightGatesCost);
    }
    EXPECT_EQ(mach.counter("gate.batched"), 1u);
    EXPECT_EQ(mach.counter("gate.batchedCalls"), 8u);
    EXPECT_EQ(img->gateCrossings().at({0, 1}), 18u);
    img->shutdown();
}

TEST_P(CrossingContract, ThrowingBodyAbortsTheChunk)
{
    // An exception from the second body of a chunk aborts the rest
    // and unwinds out of gateBatch. The crossing ledger counts every
    // call the chunk carried, on every mechanism: Image::cross keeps
    // it before the backend runs any body, so the baselines, which
    // cross once per body, also count the bodies they never reached.
    const MechanismCase &c = GetParam();
    auto img = buildFrom(twoComp(c, "a -> b: {batch: 8}"));
    int ran = 0;
    std::vector<std::function<void()>> bodies(8, [&] { ++ran; });
    bodies[1] = [&] {
        ++ran;
        throw std::runtime_error("second body");
    };
    bool threw = false, done = false;
    img->spawnIn("libredis", "t", [&] {
        try {
            img->gateBatch("lwip", "recv", bodies);
        } catch (const std::runtime_error &) {
            threw = true;
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_TRUE(threw);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(img->gateCrossings().at({0, 1}), 8u);
    img->shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, CrossingContract, ::testing::ValuesIn(mechanismCases),
    [](const ::testing::TestParamInfo<MechanismCase> &info) {
        return std::string(info.param.name);
    });

// ------------------------------------------- throttle per logical call

TEST_F(BatchingFixture, ThrottleDebitsPerLogicalCallNotPerDoorbell)
{
    // rate: 4 with batch: 8 — a vectored chunk of four debits all four
    // tokens even though it rings one doorbell, so the next logical
    // call overflows. Batching must not launder rate limits.
    auto img = buildFrom(std::string(twoCompMpk) + R"(boundaries:
- a -> b: {batch: 8, rate: 4, window: 10000000, overflow: fail}
)");
    int executed = 0;
    bool throttled = false;
    bool done = false;
    std::vector<std::function<void()>> four(4, [&] { ++executed; });
    img->spawnIn("libredis", "t", [&] {
        img->gateBatch("lwip", "recv", four);
        try {
            img->gateBatch("lwip", "recv", four);
        } catch (const ThrottledCrossing &) {
            throttled = true;
        }
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    // First chunk: one crossing, four token debits, four bodies run.
    // Second chunk: rejected at enforcement, before any body runs.
    EXPECT_EQ(executed, 4);
    EXPECT_TRUE(throttled);
    EXPECT_EQ(mach.counter("gate.batched"), 1u);
    EXPECT_EQ(mach.counter("gate.batchedCalls"), 4u);
    EXPECT_EQ(mach.counter("gate.throttled"), 1u);
    img->shutdown();
}

TEST_F(BatchingFixture, PlainEptCrossingWithCallsQueuedKeepsItsWakeup)
{
    // Regression: a plain EPT crossing waits for its RPC on a wait
    // queue, and blocking there fires the pre-suspension hook, which
    // flushes the queued deferred call through a second RPC. The first
    // RPC completes while the caller waits on the second; its wakeup
    // must not be lost, or the caller stays Blocked forever.
    auto img = buildFrom(std::string("compartments:\n") +
                         "- a:\n    mechanism: vm-ept\n    default: True\n" +
                         "- b:\n    mechanism: vm-ept\n" +
                         "libraries:\n- libredis: a\n- lwip: b\n" +
                         "boundaries:\n- a -> b: {batch: 4}\n");
    int sent = 0, received = 0;
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gateDeferred("lwip", "send", [&] { ++sent; });
        img->gate("lwip", "recv", [&] { ++received; });
        done = true;
    });
    EXPECT_TRUE(sched.runUntil([&] { return done; }, 100'000));
    EXPECT_EQ(sent, 1);
    EXPECT_EQ(received, 1);
    EXPECT_EQ(img->activeCrossings(), 0);
    // Both logical calls crossed a -> b: the flushed one and the plain one.
    EXPECT_EQ(img->gateCrossings().at({0, 1}), 2u);
    img->shutdown();
}

// --------------------------------------------------- elision streaks

TEST_F(BatchingFixture, ElisionStreakResetsOnInterleavedBoundary)
{
    // elide: both sheds the validate + scrub legs only on consecutive
    // same-boundary calls; an intervening a -> c crossing breaks the
    // streak so the next a -> b call pays both legs in full.
    auto img = buildFrom(R"(
compartments:
- a:
    mechanism: intel-mpk
    default: True
- b:
    mechanism: intel-mpk
- c:
    mechanism: intel-mpk
libraries:
- libredis: a
- lwip: b
- uksched: c
boundaries:
- a -> b: {validate: true, elide: both}
)");
    Cycles elidedCost = 0, resetCost = 0;
    bool done = false;
    img->spawnIn("libredis", "t", [&] {
        img->gate("lwip", "recv", [] {}); // streak opener, full price
        Cycles t0 = mach.cycles();
        img->gate("lwip", "recv", [] {}); // streak: both legs elided
        elidedCost = mach.cycles() - t0;
        img->gate("uksched", "yield", [] {}); // breaks the streak
        t0 = mach.cycles();
        img->gate("lwip", "recv", [] {}); // full price again
        resetCost = mach.cycles() - t0;
        done = true;
    });
    sched.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    // Exactly one elision of each leg happened, and the post-reset
    // crossing is dearer by precisely those two charges.
    EXPECT_EQ(mach.counter("gate.elided.validate"), 1u);
    EXPECT_EQ(mach.counter("gate.elided.scrub"), 1u);
    EXPECT_EQ(mach.counter("gate.validate"), 2u);
    EXPECT_EQ(resetCost, elidedCost + mach.timing.entryValidate +
                             mach.timing.registerSaveZero);
    img->shutdown();
}

// ------------------------------------- batched RX drain end to end

TEST(BatchedRxDrain, DeploymentDeliversAllBytesInOrder)
{
    // lwip in its own compartment with a batched RX boundary: the
    // driver-side poller fetches bursts and crosses once per burst.
    // TCP is the ordering oracle — reordered or dropped frames inside
    // a burst could not yield the exact byte count across four flows.
    SafetyConfig cfg = SafetyConfig::parse(R"(
compartments:
- app:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: intel-mpk
libraries:
- libiperf: app
- newlib: app
- uksched: app
- lwip: net
boundaries:
- app -> net: {batch: 8}
)");
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(cfg, opts);
    dep.start();
    IperfResult res = runIperfMulti(dep.image(), dep.libc(),
                                    dep.clientStack(), 32 * 1024, 4096,
                                    /*flows=*/4);
    dep.stop();
    EXPECT_EQ(res.bytes, 4u * 32 * 1024);
    // The vectored path actually carried traffic (bursts formed).
    Machine &m = dep.machine();
    EXPECT_GE(m.counter("gate.batched"), 1u);
    EXPECT_GT(m.counter("gate.batchedCalls"),
              m.counter("gate.batched"));
}

// ------------------------------------------------ poset + pruning

TEST(BatchingPoset, ElisionOrdersPointsBatchWidthDoesNot)
{
    ConfigPoint base = wayfinder::basePoint({0, 0, 0, 1});
    auto with = [&](BoundaryRule r) {
        ConfigPoint p = base;
        p.rules.push_back(std::move(r));
        return p;
    };

    ConfigPoint elided =
        with({.from = "*", .to = "*", .elide = GateElide::Both});
    EXPECT_EQ(compareSafety(elided, base), SafetyOrder::Less);
    EXPECT_EQ(compareSafety(base, elided), SafetyOrder::Greater);

    ConfigPoint scrubOnly =
        with({.from = "*", .to = "*", .elide = GateElide::Scrub});
    EXPECT_EQ(compareSafety(scrubOnly, elided), SafetyOrder::Greater);
    ConfigPoint validateOnly =
        with({.from = "*", .to = "*", .elide = GateElide::Validate});
    EXPECT_EQ(compareSafety(validateOnly, scrubOnly),
              SafetyOrder::Incomparable);

    // Batch width is performance-only, exactly like cores.
    ConfigPoint batched = with({.from = "*", .to = "*", .batch = 8});
    EXPECT_EQ(compareSafety(batched, base), SafetyOrder::Equal);

    // And the sweep space materializes valid configs end to end.
    for (const ConfigPoint &p : wayfinder::batchingSpace()) {
        SafetyConfig c = wayfinder::toSafetyConfig(p, "libredis");
        if (!p.rules.empty()) {
            ASSERT_FALSE(c.boundaries.empty());
            EXPECT_EQ(c.boundaries.back().from, "*");
        }
        // Round-trips through text like any hand-written config.
        SafetyConfig again = SafetyConfig::parse(c.toText());
        EXPECT_EQ(again.boundaries, c.boundaries);
    }
}

TEST(PrunedProduct, MatchesBruteForceAndSkipsDominatedFailures)
{
    // Two safety axes (chains of 3 and 2) and one perf-only axis of 2:
    // perf decreases monotonically in the safety axes and is flat in
    // the perf axis. Budget 6.5 rejects x=2 vectors; the pruner must
    // accept exactly the brute-force set and never evaluate a vector
    // dominating a failed one — but a failure must NOT prune across
    // the perf-only axis.
    std::vector<wayfinder::ProductDimension> dims = {
        {"x", 3, [](std::size_t a, std::size_t b) { return a <= b; }},
        {"y", 2, [](std::size_t a, std::size_t b) { return a <= b; }},
        {"perf", 2,
         [](std::size_t a, std::size_t b) { return a == b; }},
    };
    auto perf = [](const std::vector<std::size_t> &v) {
        return 10.0 - 2.0 * static_cast<double>(v[0]) -
               static_cast<double>(v[1]);
    };
    std::set<std::vector<std::size_t>> evaluated, accepted;
    std::size_t evals = wayfinder::explorePrunedProduct(
        dims,
        [&](const std::vector<std::size_t> &v) {
            evaluated.insert(v);
            return perf(v);
        },
        6.5,
        [&](const std::vector<std::size_t> &v, double p) {
            EXPECT_EQ(p, perf(v));
            accepted.insert(v);
        });

    // Brute force: accepted iff 10 - 2x - y >= 6.5.
    std::set<std::vector<std::size_t>> expect;
    for (std::size_t x = 0; x < 3; ++x)
        for (std::size_t y = 0; y < 2; ++y)
            for (std::size_t p = 0; p < 2; ++p)
                if (perf({x, y, p}) >= 6.5)
                    expect.insert({x, y, p});
    EXPECT_EQ(accepted, expect);
    EXPECT_EQ(evals, evaluated.size());

    // The first x=2 vector of each perf slice fails (perf 6 < 6.5)
    // and prunes the (2,1,p) vector of the SAME perf index; vectors
    // in the other perf slice are incomparable under the equality
    // order and must still be evaluated in their own right.
    EXPECT_TRUE(evaluated.count({2, 0, 0}));
    EXPECT_TRUE(evaluated.count({2, 0, 1}));
    EXPECT_FALSE(evaluated.count({2, 1, 0}));
    EXPECT_FALSE(evaluated.count({2, 1, 1}));
    EXPECT_LT(evals, 12u);
}

TEST(PrunedProduct, BoundarySweepMatchesBruteForce)
{
    // A synthetic perf that drops by one per safety feature of every
    // block boundary is monotone in the safety order, so the pruned
    // sweep must accept exactly the product points a brute-force pass
    // accepts, while evaluating fewer of them. Wider batches are
    // faster: a miss at one batch width must not prune another.
    auto cells = [](const ConfigPoint &p) {
        GateMatrix m = blockMatrix(p);
        std::vector<GatePolicy> out;
        for (std::size_t f = 0; f < m.size(); ++f)
            for (std::size_t t = 0; t < m.size(); ++t)
                out.push_back(m.at(static_cast<int>(f), static_cast<int>(t)));
        return out;
    };
    auto perf = [&](const ConfigPoint &p) {
        double v = 100;
        for (const GatePolicy &c : cells(p))
            v -= (c.mech == Mechanism::IntelMpk ? 1
                  : c.mech == Mechanism::None   ? 0
                                                : 2) +
                 (c.flavor == MpkGateFlavor::Dss) + c.deny +
                 !elidesValidate(c.elide) + !elidesScrub(c.elide) -
                 static_cast<double>(c.batch) / 4;
        return v;
    };
    auto key = [&](const ConfigPoint &p) {
        std::string k;
        for (const GatePolicy &c : cells(p))
            k += std::string(mechanismName(c.mech)) + "/" +
                 std::to_string(static_cast<int>(c.flavor)) + "/" +
                 std::to_string(c.deny) + "/" + elideName(c.elide) + "/" +
                 std::to_string(c.batch) + ";";
        return k;
    };
    const std::vector<int> part = {0, 0, 0, 1};
    auto slice = [&](std::vector<ConfigPoint> space) {
        std::erase_if(space, [&](const ConfigPoint &p) {
            return p.partition != part;
        });
        return space;
    };
    constexpr double minPerf = 88;

    // Brute force over mechanism x flavour x deny x (batch, elide).
    std::multiset<std::string> want;
    std::vector<ConfigPoint> all;
    for (const ConfigPoint &m : slice(wayfinder::mixedMechanismSpace()))
        for (const ConfigPoint &f : slice(wayfinder::gateFlavorSpace()))
            for (const ConfigPoint &d :
                 slice(wayfinder::leastPrivilegeSpace()))
                for (const ConfigPoint &b :
                     slice(wayfinder::batchingSpace())) {
                    ConfigPoint p = m;
                    for (const ConfigPoint *q : {&f, &d, &b})
                        p.rules.insert(p.rules.end(), q->rules.begin(),
                                       q->rules.end());
                    if (perf(p) >= minPerf)
                        want.insert(key(p));
                    all.push_back(std::move(p));
                }
    // The sweep must evaluate exactly the points no failing point
    // lies strictly below, at the same batch width.
    std::vector<GateMatrix> mats;
    for (const ConfigPoint &p : all)
        mats.push_back(blockMatrix(p));
    std::size_t mustEvaluate = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        bool pruned = false;
        for (std::size_t j = 0; j < all.size() && !pruned; ++j)
            pruned = perf(all[j]) < minPerf &&
                     mats[j].at(0, 0).batch == mats[i].at(0, 0).batch &&
                     compareSafety(all[j], mats[j], all[i], mats[i]) ==
                         SafetyOrder::Less;
        mustEvaluate += !pruned;
    }

    std::vector<ConfigPoint> accepted;
    std::size_t evaluated = wayfinder::prunedBoundarySweep(
        part, "libredis", [&](ConfigPoint &p) { return perf(p); },
        minPerf, accepted);
    std::multiset<std::string> got;
    for (const ConfigPoint &p : accepted)
        got.insert(key(p));
    EXPECT_EQ(all.size(), 768u);
    EXPECT_EQ(got, want);
    EXPECT_GT(want.size(), 0u);
    EXPECT_EQ(evaluated, mustEvaluate);
    EXPECT_LT(evaluated, all.size());
}

} // namespace
} // namespace flexos
