#include "machine/machine.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <tuple>

#include "base/logging.hh"

namespace flexos {

namespace {

/** Active machine; single-host-thread model, so a plain static works. */
Machine *currentMachine = nullptr;

std::string
describeFault(const void *addr, ProtKey key, AccessType at,
              const std::string &region)
{
    std::ostringstream oss;
    oss << "protection fault: "
        << (at == AccessType::Write ? "write"
            : at == AccessType::Read ? "read" : "exec")
        << " to " << addr << " in region '" << region << "' (key "
        << int(key) << ") denied by PKRU";
    return oss.str();
}

} // namespace

ProtectionFault::ProtectionFault(const void *addr, ProtKey key,
                                 AccessType at, const std::string &region)
    : std::runtime_error(describeFault(addr, key, at, region)),
      addr(addr), key(key), access(at), region(region)
{
}

Machine::Machine(TimingModel tm, unsigned cores) : timing(tm)
{
    panic_if(cores == 0, "a machine needs at least one core");
    cores_.resize(cores);
    coreStall.resize(cores);
}

Machine::~Machine() = default;

double
Machine::seconds() const
{
    return static_cast<double>(cycleCount) / (timing.cpuGhz * 1e9);
}

std::uint64_t
Machine::nanoseconds() const
{
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(cycleCount) / timing.cpuGhz));
}

void
Machine::setActiveCore(int core)
{
    panic_if(core < 0 || unsigned(core) >= cores_.size(), "core ", core,
             " out of range (machine has ", cores_.size(), ")");
    if (core == active_)
        return;

    CoreContext &prev = cores_[active_];
    prev.cycleCount = cycleCount;
    prev.pkru = pkru;
    prev.currentVm = currentVm;
    prev.workMultiplier = workMultiplier;
    prev.chargingEnabled = chargingEnabled;
    prev.scratch = scratch;

    const CoreContext &next = cores_[core];
    cycleCount = next.cycleCount;
    pkru = next.pkru;
    currentVm = next.currentVm;
    workMultiplier = next.workMultiplier;
    chargingEnabled = next.chargingEnabled;
    scratch = next.scratch;
    active_ = core;
}

Cycles
Machine::coreCycles(int core) const
{
    panic_if(core < 0 || unsigned(core) >= cores_.size(), "core ", core,
             " out of range (machine has ", cores_.size(), ")");
    return core == active_ ? cycleCount : cores_[core].cycleCount;
}

Cycles
Machine::wallCycles() const
{
    Cycles wall = cycleCount;
    for (int c = 0; c < int(cores_.size()); ++c)
        wall = std::max(wall, coreCycles(c));
    return wall;
}

double
Machine::wallSeconds() const
{
    return static_cast<double>(wallCycles()) / (timing.cpuGhz * 1e9);
}

void
Machine::advanceCoreTo(int core, Cycles target)
{
    Cycles now = coreCycles(core);
    if (target <= now)
        return;
    chargeCore(core, target - now);
    bump(Counter::MachineIdleCycles, target - now);
}

void
Machine::chargeCore(int core, Cycles c)
{
    if (core == active_)
        cycleCount += c;
    else
        cores_[core].cycleCount += c;
}

void
Machine::checkAccess(const void *p, std::size_t size, AccessType at)
{
    if (enforcement == Enforcement::Off)
        return;

    // Every registered region the access touches must be permitted;
    // real paging faults on the first offending page even when the
    // access *starts* in unregistered (or permitted) memory and only
    // extends into a denied region. Unregistered bytes are
    // simulator-internal and pass. VM-private regions (EPT key
    // virtualization) bypass the PKRU entirely: they are mapped only
    // inside their owning VM's second-level page tables.
    const MemRegion *denied = nullptr;
    memMap.forEachOverlap(p, size, [&](const MemRegion &r) {
        if (denied)
            return;
        bool ok = r.vmOwner >= 0 ? currentVm == r.vmOwner
                                 : pkru.permits(r.key, at);
        if (!ok)
            denied = &r;
    });
    if (!denied)
        return;

    ++violations;
    bump(Counter::MmuViolations);
    if (enforcement == Enforcement::Enforcing)
        throw ProtectionFault(p, denied->key, at, denied->name);
}

void
Machine::bump(const std::string &counter, std::uint64_t n)
{
    if (auto c = counterNamed(counter))
        bump(*c, n);
    else
        namedStats[counter] += n;
}

int
Machine::counterCompartment(const std::string &name)
{
    auto it = std::find(counterComps.begin(), counterComps.end(), name);
    if (it != counterComps.end())
        return static_cast<int>(it - counterComps.begin());
    counterComps.push_back(name);
    if (counterComps.size() > edgeStride) {
        // Re-lay the [from][to] arrays out at a doubled stride; this
        // happens only while images register their compartments.
        std::size_t stride = std::max<std::size_t>(8, 2 * edgeStride);
        for (auto &cells : edgeSlots) {
            std::vector<Slot> grown(stride * stride);
            for (std::size_t f = 0; f < edgeStride; ++f)
                for (std::size_t t = 0; t < edgeStride; ++t)
                    grown[f * stride + t] = cells[f * edgeStride + t];
            cells = std::move(grown);
        }
        edgeStride = stride;
    }
    return static_cast<int>(counterComps.size() - 1);
}

std::uint64_t
Machine::counter(const std::string &name) const
{
    if (auto c = counterNamed(name))
        return counter(*c);
    auto all = counters();
    auto it = all.find(name);
    return it == all.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t>
Machine::counters() const
{
    std::map<std::string, std::uint64_t> out = namedStats;
    auto put = [&](std::string name, const Slot &s) {
        if (s.touched)
            out[std::move(name)] += s.value;
    };
    for (std::size_t i = 0; i < counterCount; ++i)
        put(std::string(counterNames[i]), slots[i]);
    static constexpr const char *edgePrefix[] = {
        "gate.denied.", "gate.throttled.", "gate.validate.reject."};
    static_assert(std::size(edgePrefix) ==
                  std::tuple_size_v<decltype(edgeSlots)>);
    std::size_t n = counterComps.size();
    for (std::size_t k = 0; k < edgeSlots.size(); ++k)
        for (std::size_t f = 0; f < n; ++f)
            for (std::size_t t = 0; t < n; ++t)
                put(edgePrefix[k] + counterComps[f] + "->" + counterComps[t],
                    edgeSlots[k][f * edgeStride + t]);
    // gate.throttled.<from>: the caller's throttled edges, summed.
    const auto &throttled =
        edgeSlots[index(CounterEdge::Throttled)];
    for (std::size_t f = 0; f < n; ++f) {
        Slot total;
        for (std::size_t t = 0; t < n; ++t) {
            const Slot &s = throttled[f * edgeStride + t];
            total.value += s.value;
            total.touched = total.touched || s.touched;
        }
        put("gate.throttled." + counterComps[f], total);
    }
    for (std::size_t c = 0; c < coreStall.size(); ++c)
        put("machine.stallCycles.core" + std::to_string(c), coreStall[c]);
    return out;
}

Machine &
Machine::current()
{
    panic_if(!currentMachine, "no MachineScope installed");
    return *currentMachine;
}

bool
Machine::hasCurrent()
{
    return currentMachine != nullptr;
}

MachineScope::MachineScope(Machine &m) : saved(currentMachine)
{
    currentMachine = &m;
}

MachineScope::~MachineScope()
{
    currentMachine = saved;
}

} // namespace flexos
