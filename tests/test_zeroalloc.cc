/**
 * @file
 * Allocation regression test for the crossing path. This binary
 * replaces the global operator new with a counting one and checks that
 * warmed-up MPK DSS crossings through a GateSite allocate nothing on
 * the host heap: the site is resolved once, counters are dense slots,
 * and the per-crossing state (ledger, elision streak, crossing depth)
 * lives in arrays and on the thread, not in map nodes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "core/image.hh"
#include "core/toolchain.hh"

namespace {

/** Host heap allocations made through operator new. */
std::size_t allocations = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace flexos {
namespace {

/** Two MPK compartments, a (libredis) and b (lwip), behind DSS gates. */
std::string
twoCompDss()
{
    return std::string("compartments:\n") +
           "- a:\n    mechanism: intel-mpk\n    default: True\n" +
           "- b:\n    mechanism: intel-mpk\n" +
           "libraries:\n- libredis: a\n- lwip: b\n" +
           "boundaries:\n- '*' -> '*': {gate: dss}\n";
}

TEST(ZeroAlloc, WarmDssCrossingsThroughASiteAllocateNothing)
{
    Machine mach;
    MachineScope scope(mach);
    Scheduler sched(mach);
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);
    SafetyConfig cfg = SafetyConfig::parse(twoCompDss());
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    auto img = tc.build(mach, sched, cfg);
    const GateSite recv = img->entry("lwip", "recv");

    constexpr int crossings = 10'000;
    std::size_t during = 0;
    int ran = 0;
    img->spawnIn("libredis", "t", [&] {
        // Warm-up: the callee's simulated stack and every counter
        // slot the crossing touches come into existence here.
        for (int i = 0; i < 100; ++i)
            img->gate(recv, [&] { ++ran; });
        std::size_t before = allocations;
        for (int i = 0; i < crossings; ++i)
            img->gate(recv, [&] { ++ran; });
        during = allocations - before;
    });
    sched.run();

    EXPECT_EQ(ran, crossings + 100);
    EXPECT_EQ(mach.counter(Counter::GateMpkDss),
              static_cast<std::uint64_t>(crossings + 100));
    EXPECT_EQ(img->gateCrossings().at({0, 1}),
              static_cast<std::uint64_t>(crossings + 100));
    EXPECT_EQ(during, 0u) << during << " heap allocations over "
                          << crossings << " crossings";
    img->shutdown();
}

} // namespace
} // namespace flexos
