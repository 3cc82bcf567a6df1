/**
 * @file
 * uktime: the time micro-library (virtual clock + timer queue).
 *
 * One of the components compartmentalized in the paper's SQLite
 * experiment (Figure 10, MPK3/PT3 isolate the time subsystem). It shares
 * no data with the outside world (Table 1: 0 shared variables), which is
 * why its port took 10 minutes in the paper.
 */

#ifndef FLEXOS_UKTIME_CLOCK_HH
#define FLEXOS_UKTIME_CLOCK_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "machine/machine.hh"

namespace flexos {

/**
 * Virtual wall clock over the machine cycle counter.
 */
class Clock
{
  public:
    explicit Clock(Machine &m) : mach(m) {}

    /** Monotonic nanoseconds since machine start. */
    std::uint64_t
    monotonicNs() const
    {
        return mach.nanoseconds();
    }

    /** Monotonic microseconds. */
    std::uint64_t monotonicUs() const { return monotonicNs() / 1000; }

    /** Seconds as a double (for reports). */
    double seconds() const { return mach.seconds(); }

  private:
    Machine &mach;
};

/**
 * Deadline-ordered timer queue; polled by whoever owns it (the network
 * stack polls it on every loop iteration for TCP retransmissions).
 *
 * Callbacks live in a slot table; the deadline heap holds only
 * (deadline, slot, generation) entries. A timer id is
 * `generation << 32 | slot`. Cancelling or firing a timer frees its
 * slot at once and moves the slot's generation on, so an entry (or id)
 * whose generation no longer matches is dead: cancel() and the
 * liveness check in poll() are O(1), a stale id can never touch a later
 * occupant, and a warm queue arms and cancels without touching the host
 * heap. A cancelled timer's entry stays in the heap until its deadline
 * pops it: the queue is never searched, and the earliest entry stays
 * visible to nextDeadlineNs().
 */
class TimerQueue
{
  public:
    using Callback = std::function<void()>;

    explicit TimerQueue(Machine &m) : mach(m) {}

    /** Arm a timer; returns a non-zero id usable with cancel(). */
    std::uint64_t
    arm(std::uint64_t delayNs, Callback cb)
    {
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back();
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        Slot &s = slots[slot];
        s.cb = std::move(cb);
        pending.push(Entry{mach.nanoseconds() + delayNs, slot, s.gen});
        return std::uint64_t(s.gen) << 32 | slot;
    }

    /** Cancel a timer by id (no-op if already fired or cancelled). */
    void
    cancel(std::uint64_t id)
    {
        std::uint64_t slot = id & 0xffffffffu;
        if (slot < slots.size() && slots[slot].gen == id >> 32)
            release(static_cast<std::uint32_t>(slot));
    }

    /** Fire every timer whose deadline has passed. @return fired count */
    std::size_t
    poll()
    {
        std::size_t fired = 0;
        while (!pending.empty() &&
               pending.top().deadlineNs <= mach.nanoseconds()) {
            Entry e = pending.top();
            pending.pop();
            if (slots[e.slot].gen != e.gen)
                continue; // cancelled
            // Free the slot before the callback runs: it may re-arm
            // (reusing this slot under a new generation) or cancel its
            // own, now stale, id.
            Callback cb = std::move(slots[e.slot].cb);
            release(e.slot);
            cb();
            ++fired;
        }
        return fired;
    }

    /**
     * Absolute deadline (virtual ns) of the earliest queued entry, or
     * UINT64_MAX when none is queued. Cancelled entries count until
     * their deadline pops them, so this may name a timer that will
     * not fire.
     */
    std::uint64_t
    nextDeadlineNs() const
    {
        return pending.empty() ? UINT64_MAX : pending.top().deadlineNs;
    }

    /** Whether no entry is queued (cancelled ones included). */
    bool empty() const { return pending.empty(); }

  private:
    struct Entry
    {
        std::uint64_t deadlineNs;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Deadline only: equal deadlines pop in the heap's own order. */
    struct Order
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.deadlineNs > b.deadlineNs;
        }
    };

    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
    };

    /** Drop a slot's callback and retire its generation. */
    void
    release(std::uint32_t slot)
    {
        Slot &s = slots[slot];
        s.cb = nullptr;
        if (++s.gen == 0)
            s.gen = 1; // ids stay non-zero
        freeSlots.push_back(slot);
    }

    Machine &mach;
    std::priority_queue<Entry, std::vector<Entry>, Order> pending;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
};

} // namespace flexos

#endif // FLEXOS_UKTIME_CLOCK_HH
