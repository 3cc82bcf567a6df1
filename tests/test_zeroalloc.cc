/**
 * @file
 * Allocation regression tests for the steady-state server loop. This
 * binary replaces the global operator new with a counting one and
 * checks that warm hot paths allocate nothing on the host heap:
 * MPK DSS crossings through a GateSite (the site is resolved once,
 * counters are dense slots, and the per-crossing state lives in arrays
 * and on the thread, not in map nodes), yield round trips and blockFor
 * heartbeat timeouts (run and wait queues are vectors, not deques),
 * and timer arm/cancel/poll cycles (a slot table, not a list of
 * cancelled ids).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "core/image.hh"
#include "core/toolchain.hh"
#include "uktime/clock.hh"

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

TEST(ZeroAlloc, WarmYieldRoundTripsAllocateNothing)
{
    // Two threads of an image ping-pong through yield(): every round
    // trip runs the pre-suspension hook, re-queues the caller at the
    // back of its run queue and dispatches the other from the front.
    Machine mach;
    MachineScope scope(mach);
    Scheduler sched(mach);
    LibraryRegistry reg = LibraryRegistry::standard();
    Toolchain tc(reg);
    SafetyConfig cfg = SafetyConfig::parse(twoCompDss());
    cfg.heapBytes = 1 << 20;
    cfg.sharedHeapBytes = 1 << 20;
    auto img = tc.build(mach, sched, cfg);

    constexpr int rounds = 10'000;
    std::size_t during = 0;
    img->spawnIn("libredis", "peer", [&] {
        for (int i = 0; i < rounds + 200; ++i)
            sched.yield();
    });
    img->spawnIn("libredis", "t", [&] {
        for (int i = 0; i < 100; ++i)
            sched.yield();
        std::size_t before = allocations;
        for (int i = 0; i < rounds; ++i)
            sched.yield();
        during = allocations - before;
    });
    std::uint64_t switchesBefore = sched.switches();
    sched.run();

    EXPECT_GE(sched.switches() - switchesBefore, 2u * rounds);
    EXPECT_EQ(during, 0u) << during << " heap allocations over " << rounds
                          << " yield round trips";
    img->shutdown();
}

TEST(ZeroAlloc, WarmBlockForTimeoutsAllocateNothing)
{
    // A poller's heartbeat: blockFor() on a queue nobody signals, so
    // every wait ends in a timeout found by the scheduler's idle jump.
    Machine mach;
    MachineScope scope(mach);
    Scheduler sched(mach);
    WaitQueue idle(sched);

    constexpr int beats = 10'000;
    std::size_t during = 0;
    int timeouts = 0;
    sched.spawn("poller", [&] {
        for (int i = 0; i < 100; ++i)
            sched.blockFor(idle, 1'000);
        std::size_t before = allocations;
        for (int i = 0; i < beats; ++i)
            timeouts += sched.blockFor(idle, 1'000) ? 0 : 1;
        during = allocations - before;
    });
    sched.run();

    EXPECT_EQ(timeouts, beats);
    EXPECT_GE(mach.counter(Counter::SchedIdleJumps),
              static_cast<std::uint64_t>(beats));
    EXPECT_EQ(during, 0u) << during << " heap allocations over " << beats
                          << " blockFor timeouts";
}

TEST(ZeroAlloc, WarmTimerArmCancelPollAllocatesNothing)
{
    // The retransmission timer's life: armed per send, cancelled by the
    // ACK, and now and then left to fire; the queue is polled as time
    // passes. Cancelled entries linger in the heap until they pop.
    Machine mach;
    TimerQueue timers(mach);
    int fired = 0;
    auto cycle = [&](int i) {
        std::uint64_t id = timers.arm(200 + i % 3 * 100, [&fired] { ++fired; });
        if (i % 4 != 0)
            timers.cancel(id);
        if (i % 4 == 1)
            timers.cancel(id); // a double cancel is a no-op
        mach.consume(150);
        timers.poll();
    };
    for (int i = 0; i < 1'000; ++i)
        cycle(i);
    int firedWarm = fired;
    std::size_t before = allocations;
    constexpr int cycles = 10'000;
    for (int i = 0; i < cycles; ++i)
        cycle(i);
    std::size_t during = allocations - before;

    EXPECT_EQ(fired - firedWarm, cycles / 4);
    EXPECT_EQ(during, 0u) << during << " heap allocations over " << cycles
                          << " timer cycles";
}

} // namespace
} // namespace flexos
