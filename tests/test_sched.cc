/**
 * @file
 * Unit tests for uksched: spawn/join/yield ordering, blocking,
 * virtual-time sleep, mutex/semaphore semantics, backend hooks, the
 * free-running (uncharged) thread mode, cancellation, and the contract
 * every fiber switch keeps (floating-point control state, stack
 * alignment, callee-saved registers, unwinding across the fiber stack).
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "uksched/scheduler.hh"

namespace flexos {
namespace {

struct SchedFixture : ::testing::Test
{
    Machine mach;
    MachineScope scope{mach};
    Scheduler sched{mach};
};

TEST_F(SchedFixture, RunsSingleThreadToCompletion)
{
    bool ran = false;
    sched.spawn("t", [&] { ran = true; });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(ran);
}

TEST_F(SchedFixture, RoundRobinInterleavesAtYields)
{
    std::vector<std::string> log;
    sched.spawn("a", [&] {
        log.push_back("a1");
        sched.yield();
        log.push_back("a2");
    });
    sched.spawn("b", [&] {
        log.push_back("b1");
        sched.yield();
        log.push_back("b2");
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST_F(SchedFixture, JoinWaitsForTarget)
{
    std::vector<int> order;
    Thread *worker = sched.spawn("worker", [&] {
        sched.yield();
        sched.yield();
        order.push_back(1);
    });
    sched.spawn("joiner", [&] {
        sched.join(worker);
        order.push_back(2);
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SchedFixture, JoinFinishedThreadReturnsImmediately)
{
    Thread *t = sched.spawn("quick", [] {});
    sched.spawn("j", [&] { sched.join(t); });
    EXPECT_TRUE(sched.run());
}

TEST_F(SchedFixture, DeadlockDetectedAsFalse)
{
    WaitQueue q(sched);
    sched.spawn("stuck", [&] { q.wait(); });
    EXPECT_FALSE(sched.run());
}

TEST_F(SchedFixture, SleepAdvancesVirtualClock)
{
    std::uint64_t woke = 0;
    sched.spawn("sleeper", [&] {
        sched.sleepNs(1'000'000); // 1 ms
        woke = mach.nanoseconds();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_GE(woke, 1'000'000u);
    // Idle jump: not far past the deadline either.
    EXPECT_LT(woke, 1'200'000u);
}

TEST_F(SchedFixture, SleepersWakeInDeadlineOrder)
{
    std::vector<std::string> order;
    sched.spawn("late", [&] {
        sched.sleepNs(2'000'000);
        order.push_back("late");
    });
    sched.spawn("early", [&] {
        sched.sleepNs(1'000'000);
        order.push_back("early");
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST_F(SchedFixture, ThreadExceptionIsCaptured)
{
    Thread *t = sched.spawn("boom", [] {
        throw std::runtime_error("exploded");
    });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(t->failed());
    EXPECT_NE(t->error().find("exploded"), std::string::npos);
}

TEST_F(SchedFixture, WaitQueueWakeOneFifo)
{
    WaitQueue q(sched);
    std::vector<int> order;
    sched.spawn("w1", [&] {
        q.wait();
        order.push_back(1);
    });
    sched.spawn("w2", [&] {
        q.wait();
        order.push_back(2);
    });
    sched.spawn("waker", [&] {
        sched.yield(); // let both block
        q.wakeOne();
        q.wakeOne();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SchedFixture, MutexProvidesExclusion)
{
    Mutex mtx(sched);
    int inside = 0;
    int maxInside = 0;
    auto body = [&] {
        for (int i = 0; i < 10; ++i) {
            LockGuard g(mtx);
            ++inside;
            maxInside = std::max(maxInside, inside);
            sched.yield(); // try to interleave within the section
            --inside;
        }
    };
    sched.spawn("m1", body);
    sched.spawn("m2", body);
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(maxInside, 1);
}

TEST_F(SchedFixture, MutexUnlockByNonOwnerPanics)
{
    Mutex mtx(sched);
    Thread *t = sched.spawn("bad", [&] { mtx.unlock(); });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(t->failed());
}

TEST_F(SchedFixture, SemaphoreCountsPermits)
{
    Semaphore sem(sched, 0);
    std::vector<int> order;
    sched.spawn("consumer", [&] {
        sem.wait();
        order.push_back(1);
        sem.wait();
        order.push_back(2);
    });
    sched.spawn("producer", [&] {
        order.push_back(0);
        sem.post();
        sched.yield();
        sem.post();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(SchedFixture, ContextSwitchChargesCycles)
{
    sched.spawn("t", [&] { sched.yield(); });
    Cycles before = mach.cycles();
    sched.run();
    EXPECT_GE(mach.cycles() - before, 2 * mach.timing.contextSwitch);
}

TEST_F(SchedFixture, FreeRunningThreadChargesNothing)
{
    Thread *t = sched.spawn("client", [&] {
        consumeCycles(1'000'000);
        sched.yield();
        consumeCycles(1'000'000);
    });
    t->freeRunning = true;
    sched.run();
    EXPECT_EQ(mach.cycles(), 0u);
}

TEST_F(SchedFixture, ChargedThreadNextToFreeRunningStillCharges)
{
    Thread *c = sched.spawn("client", [&] {
        consumeCycles(500);
        sched.yield();
    });
    c->freeRunning = true;
    sched.spawn("server", [&] {
        consumeCycles(100);
        sched.yield();
    });
    sched.run();
    // Only server work + its context switches are on the clock.
    EXPECT_GE(mach.cycles(), 100u);
    EXPECT_LT(mach.cycles(), 500u);
}

TEST_F(SchedFixture, OnThreadCreateHookRuns)
{
    int created = 0;
    sched.onThreadCreate = [&](Thread &t) {
        ++created;
        t.pkru = Pkru::allowing({2});
    };
    Thread *t = sched.spawn("hooked", [] {});
    EXPECT_EQ(created, 1);
    EXPECT_TRUE(t->pkru.permits(2, AccessType::Read));
    sched.run();
}

TEST_F(SchedFixture, SwitchInstallsThreadPkru)
{
    // The MPK backend behaviour (paper 3.2): the scheduler hook swaps
    // the protection domain on context switch.
    Pkru seen;
    Thread *t = sched.spawn("domain", [&] { seen = mach.pkru; });
    t->pkru = Pkru::allowing({5});
    sched.run();
    EXPECT_TRUE(seen.permits(5, AccessType::Write));
    EXPECT_FALSE(seen.permits(1, AccessType::Read));
    // Back in the scheduler, the TCB runs unrestricted.
    EXPECT_EQ(mach.pkru, Pkru(Pkru::allowAllValue));
}

TEST_F(SchedFixture, OnSwitchHookObservesTarget)
{
    std::vector<std::string> switched;
    sched.onSwitch = [&](Thread *, Thread *next) {
        switched.push_back(next->name());
    };
    sched.spawn("x", [&] { sched.yield(); });
    sched.run();
    EXPECT_EQ(switched.size(), 2u);
    EXPECT_EQ(switched[0], "x");
}

TEST_F(SchedFixture, RunUntilStopsAtPredicate)
{
    int progress = 0;
    sched.spawn("worker", [&] {
        for (int i = 0; i < 100; ++i) {
            ++progress;
            sched.yield();
        }
    });
    EXPECT_TRUE(sched.runUntil([&] { return progress >= 5; }));
    EXPECT_GE(progress, 5);
    EXPECT_LT(progress, 100);
}

TEST_F(SchedFixture, RunUntilReturnsFalseWhenWorkDriesUp)
{
    sched.spawn("short", [] {});
    EXPECT_FALSE(sched.runUntil([] { return false; }, 1000));
}

TEST(SchedCancel, CancelDropsQueuedEntries)
{
    // cancel() finishes threads outside dispatch: an unstarted one in
    // place, a started Ready one by resuming it directly. Neither may
    // leave an entry behind in its run queue.
    Machine mach(TimingModel{}, 2);
    MachineScope scope{mach};
    Scheduler sched{mach};
    int spins = 0, done = 0;
    Thread *started = sched.spawnOn(0, "spinner", [&] {
        for (;;) {
            ++spins;
            sched.yield();
        }
    });
    for (int core = 0; core < 2; ++core) {
        sched.spawnOn(core, "worker", [&] {
            for (int i = 0; i < 3; ++i)
                sched.yield();
            ++done;
        });
    }
    ASSERT_TRUE(sched.runUntil([&] { return spins == 2; }));
    EXPECT_EQ(started->state(), Thread::State::Ready);
    Thread *unstarted = sched.spawnOn(1, "unstarted", [] {
        ADD_FAILURE() << "a cancelled thread ran";
    });
    sched.spawnOn(1, "late", [&] { ++done; });

    sched.cancel(unstarted);
    sched.cancel(started);
    EXPECT_EQ(unstarted->state(), Thread::State::Finished);
    EXPECT_EQ(started->state(), Thread::State::Finished);

    EXPECT_TRUE(sched.run());
    EXPECT_EQ(done, 3);
    EXPECT_EQ(spins, 2);
    // Core 0: spinner x2, its cancel resume, worker x4. Core 1:
    // worker x4, late. The cancelled entries cost no dispatch.
    EXPECT_EQ(sched.switches(), 12u);
    EXPECT_EQ(sched.dispatchesOn(0), 7u);
    EXPECT_EQ(sched.dispatchesOn(1), 5u);
}

// --- The fiber-switch contract -------------------------------------------

TEST_F(SchedFixture, FiberKeepsItsRoundingMode)
{
    volatile double one = 1.0, three = 3.0;
    const double nearest = one / three;
    int upward = 0, toNearest = 0;
    sched.spawn("upward", [&] {
        std::fesetround(FE_UPWARD);
        for (int i = 0; i < 10; ++i) {
            sched.yield();
            // x87 control word (fegetround) and MXCSR (SSE division).
            upward += std::fegetround() == FE_UPWARD && one / three > nearest;
        }
    });
    sched.spawn("nearest", [&] {
        for (int i = 0; i < 10; ++i) {
            sched.yield();
            toNearest +=
                std::fegetround() == FE_TONEAREST && one / three == nearest;
        }
    });
    bool schedNearest = true;
    EXPECT_TRUE(sched.runUntil([&] {
        schedNearest = schedNearest && std::fegetround() == FE_TONEAREST &&
                       one / three == nearest;
        return !sched.hasLiveThreads();
    }));
    EXPECT_EQ(upward, 10);
    EXPECT_EQ(toNearest, 10);
    EXPECT_TRUE(schedNearest);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

bool
localIsAligned16()
{
    alignas(16) char probe[16];
    volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(probe);
    return addr % 16 == 0;
}

TEST_F(SchedFixture, FiberStackIsAligned)
{
    bool firstEntry = false;
    int alignedResumes = 0;
    sched.spawn("aligned", [&] {
        firstEntry = localIsAligned16();
        for (int i = 0; i < 1000; ++i) {
            sched.yield();
            alignedResumes += localIsAligned16();
        }
    });
    sched.spawn("peer", [&] {
        for (int i = 0; i < 1000; ++i)
            sched.yield();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(firstEntry);
    EXPECT_EQ(alignedResumes, 1000);
}

/** A register-hungry running checksum; yields between rounds. */
std::uint64_t
checksum(std::uint64_t seed, int rounds, Scheduler *sched)
{
    std::uint64_t a = seed, b = ~seed, c = seed * 3, d = seed ^ 0x5bd1e995;
    for (int i = 0; i < rounds; ++i) {
        a += b ^ std::uint64_t(i);
        b = (b << 7 | b >> 57) ^ c;
        c += d * 31;
        d ^= a >> 3;
        if (sched)
            sched->yield();
    }
    return a ^ b ^ c ^ d;
}

TEST_F(SchedFixture, FiberLocalsSurviveInterleavedYields)
{
    std::uint64_t x = 0, y = 0;
    sched.spawn("x", [&] { x = checksum(1, 10'000, &sched); });
    sched.spawn("y", [&] { y = checksum(2, 10'000, &sched); });
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(x, checksum(1, 10'000, nullptr));
    EXPECT_EQ(y, checksum(2, 10'000, nullptr));
    EXPECT_NE(x, y);
}

struct FrameGuard
{
    int &unwound;
    ~FrameGuard() { ++unwound; }
};

/**
 * Recurse to depth 64, yielding every 16 frames; there, park on
 * `park` if given, then throw.
 */
int
descend(Scheduler &s, int depth, int &unwound, WaitQueue *park)
{
    FrameGuard guard{unwound};
    if (depth % 16 == 0)
        s.yield();
    if (depth == 64) {
        if (park)
            park->wait();
        throw std::runtime_error("thrown 64 frames deep");
    }
    return descend(s, depth + 1, unwound, park) + 1;
}

TEST_F(SchedFixture, DeepExceptionLandsInThreadError)
{
    int unwound = 0;
    Thread *t = sched.spawn("deep", [&] {
        descend(sched, 1, unwound, nullptr);
    });
    sched.spawn("peer", [&] {
        for (int i = 0; i < 8; ++i)
            sched.yield();
    });
    EXPECT_TRUE(sched.run());
    EXPECT_TRUE(t->failed());
    EXPECT_EQ(t->error(), "thrown 64 frames deep");
    EXPECT_EQ(unwound, 64);
}

TEST_F(SchedFixture, CancelUnwindsDeepFiber)
{
    int unwound = 0;
    WaitQueue never(sched);
    Thread *t = sched.spawn("parked", [&] {
        descend(sched, 1, unwound, &never);
    });
    EXPECT_FALSE(sched.run()); // parked forever: deadlock
    EXPECT_EQ(unwound, 0);
    sched.cancel(t);
    EXPECT_EQ(t->state(), Thread::State::Finished);
    EXPECT_FALSE(t->failed());
    EXPECT_EQ(unwound, 64);
}

} // namespace
} // namespace flexos
