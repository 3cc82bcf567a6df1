/**
 * @file
 * Gate-path behaviour pin: a seeded random driver runs plain, batched,
 * deferred, nested, same-compartment and caller-local TCB crossings
 * over all nine mechanism cases (plus two mixed-mechanism images)
 * under random boundary policies — deny, rate with fail or stall and
 * weight, validate, validate_return, elide, batch, scrub,
 * stack_sharing — on one and two cores, with matrix swaps from a fiber
 * and from the driver. Wide scenarios run on two cores, swap from a
 * fiber there too, and leave deferred calls queued across later
 * crossings. Every scenario's counters, crossing ledger, boundary
 * statistics and per-core clocks are dumped and compared with
 * tests/golden/gate_path.txt.
 *
 * The golden is the behaviour contract of the crossing path: a host
 * fast-path change must leave it byte-identical. Regenerate it (only
 * when a behaviour change is intended) with
 *   FLEXOS_UPDATE_GOLDEN=1 ./build/test_gatepath
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "core/dss.hh"
#include "core/image.hh"
#include "core/toolchain.hh"

#ifndef FLEXOS_REPO_ROOT
#define FLEXOS_REPO_ROOT "."
#endif

namespace flexos {
namespace {

/** One image shape: the mechanisms of compartments a, b and c. */
struct Shape
{
    const char *name;
    const char *mech[3];
    /** Rule every edge starts from (MPK flavours), or nullptr. */
    const char *baseRule;
};

const Shape shapes[] = {
    {"mpk_light", {"intel-mpk", "intel-mpk", "intel-mpk"},
     "'*' -> '*': {gate: light}"},
    {"mpk_dss", {"intel-mpk", "intel-mpk", "intel-mpk"},
     "'*' -> '*': {gate: dss}"},
    {"mpk_dss_noscrub", {"intel-mpk", "intel-mpk", "intel-mpk"},
     "'*' -> '*': {gate: dss, scrub: false}"},
    {"cheri", {"cheri", "cheri", "cheri"}, nullptr},
    {"ept", {"vm-ept", "vm-ept", "vm-ept"}, nullptr},
    {"none", {"none", "none", "none"}, nullptr},
    {"linux_pt", {"linux-pt", "linux-pt", "linux-pt"}, nullptr},
    {"sel4_ipc", {"sel4-ipc", "sel4-ipc", "sel4-ipc"}, nullptr},
    {"cubicle_mpk", {"cubicle-mpk", "cubicle-mpk", "cubicle-mpk"},
     nullptr},
    {"mixed_mpk_ept_cheri", {"intel-mpk", "vm-ept", "cheri"}, nullptr},
    {"mixed_ept_mpk_none", {"vm-ept", "intel-mpk", "none"}, nullptr},
};

const char *const compNames[3] = {"a", "b", "c"};

/** A gate target: library and entry point. */
struct Target
{
    const char *lib;
    const char *fn;
};

/** Targets across a (libredis, uktime), b (lwip), c (vfscore) and the
 *  TCB memory manager (caller-local unless placed in a). */
const Target targets[] = {
    {"lwip", "recv"},
    {"lwip", "send"},
    {"vfscore", "read"},
    {"vfscore", "open"},
    {"uktime", "clock_gettime"},
    {"libredis", "redis_main"},
    {"ukalloc", "malloc"},
};

/** Edges the static call graph needs (never denied): libredis ->
 *  lwip, lwip -> uktime, and vfscore -> ukalloc when it is placed. */
bool
staticEdge(int from, int to, bool ukallocPlaced)
{
    return (from == 0 && to == 1) || (from == 1 && to == 0) ||
           (ukallocPlaced && from == 2 && to == 0);
}

/** Random policy knobs for one boundary rule body. */
std::string
randomKnobs(Rng &rng, bool mpk)
{
    std::vector<std::string> knobs;
    if (mpk && rng.chance(1, 2))
        knobs.push_back(rng.chance(1, 2) ? "gate: light" : "gate: dss");
    if (rng.chance(1, 3))
        knobs.push_back("validate: true");
    if (rng.chance(1, 4))
        knobs.push_back("validate_return: true");
    if (rng.chance(1, 4))
        knobs.push_back("scrub: false");
    if (rng.chance(1, 3)) {
        knobs.push_back("rate: " + std::to_string(rng.range(2, 6)));
        knobs.push_back("window: " + std::to_string(rng.range(2, 20) * 1000));
        knobs.push_back(rng.chance(1, 2) ? "overflow: fail"
                                         : "overflow: stall");
        if (rng.chance(1, 2))
            knobs.push_back("weight: 2");
    }
    if (rng.chance(1, 3)) {
        const char *modes[] = {"validate", "scrub", "both"};
        knobs.push_back(std::string("elide: ") + modes[rng.below(3)]);
    }
    if (rng.chance(1, 3))
        knobs.push_back("batch: " + std::to_string(rng.range(2, 4)));
    if (rng.chance(1, 4)) {
        const char *modes[] = {"heap", "dss", "shared-stack"};
        knobs.push_back(std::string("stack_sharing: ") + modes[rng.below(3)]);
    }
    if (rng.chance(1, 4))
        knobs.push_back("coalesce: 500");
    std::string out = "{";
    for (std::size_t i = 0; i < knobs.size(); ++i)
        out += (i ? ", " : "") + knobs[i];
    return out + "}";
}

/** The `boundaries:` section: the shape's base rule, the given deny
 *  edges, and random knobs on a random subset of the other edges. */
std::string
randomBoundaries(Rng &rng, const Shape &shape,
                 const std::vector<std::pair<int, int>> &denies)
{
    std::string out = "boundaries:\n";
    if (shape.baseRule)
        out += std::string("- ") + shape.baseRule + "\n";
    for (int f = 0; f < 3; ++f) {
        for (int t = 0; t < 3; ++t) {
            if (f == t)
                continue;
            std::string edge = std::string("- ") + compNames[f] + " -> " +
                               compNames[t] + ": ";
            bool denied = false;
            for (const auto &d : denies)
                denied = denied || d == std::make_pair(f, t);
            if (denied) {
                out += edge + "{deny: true}\n";
                continue;
            }
            bool mpk = std::string(shape.mech[f]) == "intel-mpk" ||
                       std::string(shape.mech[t]) == "intel-mpk";
            if (rng.chance(2, 3)) {
                std::string knobs = randomKnobs(rng, mpk);
                if (knobs != "{}")
                    out += edge + knobs + "\n";
            }
        }
    }
    return out;
}

/** FNV-1a of a shape name: each shape draws its own policies. */
std::uint64_t
nameHash(const char *s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (; *s; ++s)
        h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001b3ull;
    return h;
}

/** Outcome tallies of the driver's operations. */
struct Tally
{
    std::uint64_t ok = 0, denied = 0, throttled = 0, hardening = 0,
                  fault = 0;
};

/** One scenario: an image, its driver threads and the swap schedule. */
class Scenario
{
  public:
    /**
     * A wide scenario runs on two cores, swaps from a fiber there, and
     * may leave deferred calls queued behind the crossings that follow.
     */
    Scenario(const Shape &shape, std::uint64_t seed, bool wide = false)
        : shape(shape), wide(wide),
          rng(seed * 7919 + nameHash(shape.name) + (wide ? 104729 : 0)),
          mach(TimingModel{}, wide ? 2 : 1 + static_cast<unsigned>(seed % 2)),
          scope(mach), sched(mach), reg(LibraryRegistry::standard()),
          tc(reg)
    {
        for (int i = 0; i < 3; ++i)
            if (std::string(shape.mech[i]) == "vm-ept")
                hasEpt = true;
        ukallocPlaced = rng.chance(1, 2);
        std::vector<std::pair<int, int>> deniable;
        for (int f = 0; f < 3; ++f)
            for (int t = 0; t < 3; ++t)
                if (f != t && !staticEdge(f, t, ukallocPlaced))
                    deniable.push_back({f, t});
        if (rng.chance(1, 2))
            denies.push_back(deniable[rng.below(deniable.size())]);
        headerText = header();
        std::string text = headerText + randomBoundaries(rng, shape, denies);
        SafetyConfig cfg = SafetyConfig::parse(text);
        cfg.heapBytes = 1 << 20;
        cfg.sharedHeapBytes = 1 << 20;
        img = tc.build(mach, sched, cfg);
    }

    /** Run every phase and return the dump. */
    std::string
    run()
    {
        if (!hasEpt) {
            // Driver context (no current thread): its own streak slot.
            for (int i = 0; i < 12; ++i)
                op(/*inThread=*/false, 1);
        }
        // The original scenarios swap from a fiber on one core only;
        // wide ones do it on two.
        for (int t = 0; t < 3; ++t)
            spawnWorker(t, /*swapper=*/t == 2 &&
                               (wide || mach.coreCount() == 1));
        sched.run();
        swapRandom();
        for (int t = 0; t < 2; ++t)
            spawnWorker(t, false);
        sched.run();
        img->shutdown();
        return dump();
    }

  private:
    std::string
    header()
    {
        std::string out = "compartments:\n";
        for (int i = 0; i < 3; ++i) {
            out += std::string("- ") + compNames[i] +
                   ":\n    mechanism: " + shape.mech[i] + "\n";
            if (i == 0)
                out += "    default: True\n";
            if (i == 2 && rng.chance(1, 3))
                out += "    hardening: [cfi]\n";
        }
        out += "libraries:\n- libredis: a\n- uktime: a\n- lwip: b\n"
               "- vfscore: c\n";
        if (ukallocPlaced)
            out += "- ukalloc: a\n";
        return out;
    }

    void
    spawnWorker(int comp, bool swapper)
    {
        const char *homeLib[3] = {"libredis", "lwip", "vfscore"};
        std::uint64_t ops = 40;
        img->spawnIn(homeLib[comp], std::string("w") + compNames[comp],
                     [this, ops, swapper] {
                         for (std::uint64_t i = 0; i < ops; ++i) {
                             if (swapper && i == ops / 2)
                                 guarded([&] { swapRandom(); });
                             op(/*inThread=*/true, 2);
                         }
                     });
    }

    /** Swap in a re-randomized matrix with the same deny edges. */
    void
    swapRandom()
    {
        SafetyConfig next = SafetyConfig::parse(
            headerText + randomBoundaries(rng, shape, denies));
        if (img->swapGateMatrix(GateMatrix::build(next)))
            ++swaps;
    }

    template <typename F>
    void
    guarded(F &&f)
    {
        try {
            f();
            ++tally.ok;
        } catch (const DeniedCrossing &) {
            ++tally.denied;
        } catch (const ThrottledCrossing &) {
            ++tally.throttled;
        } catch (const HardeningViolation &) {
            ++tally.hardening;
        } catch (const ProtectionFault &) {
            ++tally.fault;
        }
    }

    const Target &
    pickTarget()
    {
        return targets[rng.below(std::size(targets))];
    }

    const char *
    pickFn(const Target &t)
    {
        return rng.chance(1, 10) ? "not_an_entry" : t.fn;
    }

    /** A body: some work, maybe a yield, a DSS frame or a nested gate. */
    std::function<void()>
    body(bool inThread, int depth)
    {
        Cycles work = rng.range(0, 60);
        bool yield = inThread && rng.chance(1, 4);
        bool frame = rng.chance(1, 5);
        bool nested = depth > 0 && rng.chance(1, 4);
        const Target *inner = nested ? &pickTarget() : nullptr;
        const char *innerFn = nested ? pickFn(*inner) : nullptr;
        std::function<void()> innerBody =
            nested ? body(inThread, depth - 1) : std::function<void()>();
        return [this, work, yield, frame, inner, innerFn, innerBody] {
            consumeCycles(work);
            if (frame) {
                DssFrame f(*img);
                long *v = f.var<long>();
                *f.shadow(v) = 1;
            }
            if (yield)
                sched.yield();
            if (inner)
                img->gate(inner->lib, innerFn, innerBody);
        };
    }

    /** One random operation from the current context. */
    void
    op(bool inThread, int depth)
    {
        const Target &t = pickTarget();
        const char *fn = pickFn(t);
        switch (rng.below(inThread ? 8 : 7)) {
          case 0:
          case 1:
          case 2: {
              auto b = body(inThread, depth);
              guarded([&] { img->gate(t.lib, fn, b); });
              break;
          }
          case 3: {
              std::vector<std::function<void()>> bodies;
              for (std::uint64_t i = rng.range(1, 5); i > 0; --i)
                  bodies.push_back(body(inThread, depth - 1));
              guarded([&] { img->gateBatch(t.lib, fn, bodies); });
              break;
          }
          case 4: {
              Cycles work = rng.range(1, 40);
              guarded([&] {
                  int v = img->gate(t.lib, fn, [work] {
                      consumeCycles(work);
                      return static_cast<int>(work);
                  });
                  consumeCycles(static_cast<Cycles>(v % 3));
              });
              break;
          }
          case 5:
          case 6: {
              for (std::uint64_t i = rng.range(1, 4); i > 0; --i) {
                  auto b = body(inThread, 0);
                  guarded([&] { img->gateDeferred(t.lib, fn, b); });
              }
              // Wide scenarios may leave the calls queued behind the
              // next crossing; otherwise flush explicitly or through
              // the scheduler's pre-suspension hook, which a yield
              // fires.
              if (wide && rng.chance(1, 2))
                  break;
              if (inThread && rng.chance(1, 2))
                  guarded([&] { sched.yield(); });
              else
                  guarded([&] { img->flushBatch(); });
              break;
          }
          case 7:
              guarded([&] { sched.yield(); });
              break;
        }
    }

    std::string
    dump() const
    {
        std::ostringstream out;
        out << "tally ok=" << tally.ok << " denied=" << tally.denied
            << " throttled=" << tally.throttled
            << " hardening=" << tally.hardening << " fault=" << tally.fault
            << " swaps=" << swaps << "\n";
        for (unsigned c = 0; c < mach.coreCount(); ++c)
            out << "core" << c << " cycles=" << mach.coreCycles(int(c))
                << "\n";
        for (const auto &[pair, n] : img->gateCrossings())
            out << "crossings " << pair.first << "->" << pair.second << " "
                << n << "\n";
        for (const auto &[pair, s] : img->boundaryStats())
            out << "boundary " << pair.first << "->" << pair.second << " "
                << s.from << "->" << s.to << " [" << s.policy << "] "
                << s.count << "\n";
        for (const auto &[key, v] : mach.counters())
            out << "counter " << key << " " << v << "\n";
        return out.str();
    }

    const Shape &shape;
    bool wide;
    Rng rng;
    Machine mach;
    MachineScope scope;
    Scheduler sched;
    LibraryRegistry reg;
    Toolchain tc;
    std::unique_ptr<Image> img;
    std::vector<std::pair<int, int>> denies;
    std::string headerText;
    bool hasEpt = false;
    bool ukallocPlaced = false;
    Tally tally;
    std::uint64_t swaps = 0;
};

std::string
runAll()
{
    std::string out;
    for (const Shape &shape : shapes) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            out += std::string("== ") + shape.name + " seed " +
                   std::to_string(seed) + "\n";
            Scenario s(shape, seed);
            out += s.run();
        }
    }
    for (const Shape &shape : shapes) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            out += std::string("== ") + shape.name + " seed " +
                   std::to_string(seed) + " wide\n";
            Scenario s(shape, seed, /*wide=*/true);
            out += s.run();
        }
    }
    return out;
}

TEST(GatePath, MatchesGolden)
{
    const std::string golden =
        std::string(FLEXOS_REPO_ROOT) + "/tests/golden/gate_path.txt";
    std::string actual = runAll();
    if (std::getenv("FLEXOS_UPDATE_GOLDEN")) {
        std::ofstream(golden) << actual;
        GTEST_SKIP() << "rewrote " << golden;
    }
    std::ifstream in(golden);
    ASSERT_TRUE(in) << golden << " is missing; generate it with "
                    << "FLEXOS_UPDATE_GOLDEN=1 ./build/test_gatepath";
    std::stringstream committed;
    committed << in.rdbuf();
    if (committed.str() == actual)
        return;
    // Point at the first differing line rather than dumping both files.
    std::istringstream a(actual), g(committed.str());
    std::string la, lg;
    std::size_t line = 0;
    while (true) {
        ++line;
        bool ha = static_cast<bool>(std::getline(a, la));
        bool hg = static_cast<bool>(std::getline(g, lg));
        if (!ha && !hg)
            break;
        if (!ha || !hg || la != lg) {
            FAIL() << golden << " differs at line " << line
                   << "\n  golden: " << (hg ? lg : "<eof>")
                   << "\n  actual: " << (ha ? la : "<eof>");
        }
    }
}

TEST(GatePath, IsDeterministic)
{
    // The golden is only a contract if the driver itself is
    // reproducible: two runs in one process must agree exactly.
    auto once = [] { return Scenario(shapes[4], 1).run(); };
    EXPECT_EQ(once(), once());
}

} // namespace
} // namespace flexos
