#include "core/image.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <sstream>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

#include "base/logging.hh"

namespace flexos {

namespace {

/**
 * splitmix64 of a compartment name: the deterministic "ASLR seed" the
 * linker script draws layout slides from. A real loader would use a
 * boot-time random source; the simulation keys off the name so every
 * run of the same config produces the same (reproducible) layout while
 * distinct compartments still land on unrelated slides.
 */
std::uint64_t
layoutSeed(const std::string &name)
{
    std::uint64_t z = 0x9e3779b97f4a7c15ull;
    for (unsigned char ch : name)
        z = (z ^ ch) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

ZeroArena::ZeroArena(std::size_t n) : bytes(n)
{
    // Map the arena rounded up to whole pages plus one guard page, all
    // PROT_NONE, then open the arena part. The arena ends flush against
    // the guard; its base keeps malloc's alignment, so for a size that
    // is a multiple of 16 (every size in use is whole pages) the byte
    // past the end is the guard's first.
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    std::size_t span = (n + page - 1) / page * page;
    mappedBytes = span + page;
    mapping = mmap(nullptr, mappedBytes, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(mapping == MAP_FAILED, "cannot map a ", n, "-byte arena");
    if (mprotect(mapping, span, PROT_READ | PROT_WRITE) != 0) {
        munmap(mapping, mappedBytes);
        fatal("cannot open a ", n, "-byte arena");
    }
    base = static_cast<char *>(mapping) +
           ((span - n) & ~(alignof(std::max_align_t) - 1));
}

ZeroArena::~ZeroArena()
{
    if (mapping)
        munmap(mapping, mappedBytes);
}

ZeroArena::ZeroArena(ZeroArena &&other) noexcept
{
    *this = std::move(other);
}

ZeroArena &
ZeroArena::operator=(ZeroArena &&other) noexcept
{
    // The old mapping leaves with `other`, which unmaps it.
    std::swap(mapping, other.mapping);
    std::swap(mappedBytes, other.mappedBytes);
    std::swap(base, other.base);
    std::swap(bytes, other.bytes);
    return *this;
}

unsigned
layoutEntropyBits(Mechanism m)
{
    switch (m) {
      case Mechanism::None:
        return 0; // one domain, one load address: nothing to slide
      case Mechanism::IntelMpk:
      case Mechanism::CubicleMpk:
        return 12; // shared address space: section-level shuffle only
      case Mechanism::VmEpt:
        return 28; // whole guest-physical map per compartment
      case Mechanism::Cheri:
        return 14; // bounded caps let the loader scatter sections
      case Mechanism::LinuxPt:
        return 22; // per-process mmap ASLR
      case Mechanism::Sel4Ipc:
        return 16; // per-server vspace layout
    }
    return 0;
}

Image::Image(Machine &m, Scheduler &s, SafetyConfig config,
             const LibraryRegistry &registry)
    : mach(m), sched(s), cfg(std::move(config)), reg(registry),
      quiesceWait(s)
{
    // Build compartment objects (memory comes later, at boot()).
    // Key virtualization: only key-consuming compartments take a
    // protection key; EPT compartments are VM-private (their memory is
    // unmapped outside the VM) and stay off the key budget, lifting
    // the 15-compartment cap for mixed images.
    ProtKey nextKey = 0;
    for (std::size_t i = 0; i < cfg.compartments.size(); ++i) {
        auto c = std::make_unique<Compartment>();
        c->id = static_cast<int>(i);
        c->spec = cfg.compartments[i];
        c->hardenMultiplier =
            hardeningMultiplier(c->spec.hardening, mach.timing);
        if (mechanismConsumesProtKey(c->spec.mechanism)) {
            fatal_if(nextKey >= sharedProtKey,
                     "the key-tagged region model supports at most ",
                     numProtKeys - 1,
                     " key-consuming compartments per image (one key "
                     "is reserved for the shared domain)");
            c->key = nextKey++;
            c->domain = Pkru::allowing({c->key, sharedProtKey});
        } else {
            // VM-private: no key; inside the VM only its own memory
            // (via the VM token) and the shared domain are reachable.
            c->vmPrivate = true;
            c->key = sharedProtKey;
            c->domain = Pkru::allowing({sharedProtKey});
        }
        // Page-aligned layout slide, masked to the mechanism's entropy
        // budget (an info leak of any section pointer reveals it all).
        c->layoutEntropyBits = flexos::layoutEntropyBits(c->spec.mechanism);
        c->layoutSlide = c->layoutEntropyBits == 0
                             ? 0
                             : (layoutSeed(c->spec.name) &
                                ((1ull << c->layoutEntropyBits) - 1))
                                   << 12;
        comps.push_back(std::move(c));
    }

    for (const auto &[lib, compName] : cfg.libraries) {
        const CompartmentSpec &spec = cfg.compartment(compName);
        for (std::size_t i = 0; i < cfg.compartments.size(); ++i) {
            if (cfg.compartments[i].name == spec.name) {
                Placement &p = placements[lib];
                p.comp = static_cast<int>(i);
                p.info = reg.contains(lib) ? &reg.get(lib) : nullptr;
                break;
            }
        }
    }

    // Resolve per-library hardening multipliers: compartment set plus
    // the component's own set (Figure 6 hardens per component).
    for (auto &[lib, p] : placements) {
        std::vector<Hardening> set =
            cfg.compartments[static_cast<std::size_t>(p.comp)].hardening;
        auto it = cfg.libHardening.find(lib);
        if (it != cfg.libHardening.end())
            set.insert(set.end(), it->second.begin(), it->second.end());
        p.mult = hardeningMultiplier(set, mach.timing);
    }

    // One backend per distinct mechanism; each boundary's crossing is
    // enforced under the gate matrix's resolved (from, to) policy.
    gates = GateMatrix::build(cfg);
    gateBuckets.resize(comps.size() * comps.size());
    crossings.assign(comps.size() * comps.size(), 0);
    compLastCore.assign(comps.size(), -1);
    for (Mechanism m : cfg.mechanisms())
        backends.push_back(makeBackend(m));
    compBackends.resize(comps.size(), nullptr);
    for (std::size_t i = 0; i < comps.size(); ++i) {
        for (auto &b : backends)
            if (b->mechanism() == comps[i]->spec.mechanism)
                compBackends[i] = b.get();
        panic_if(!compBackends[i], "compartment without a backend");
        replicatesTcb.push_back(compBackends[i]->replicatesTcb());
        cfiHardened.push_back(comps[i]->spec.hardenedWith(Hardening::Cfi));
        counterIds.push_back(mach.counterCompartment(comps[i]->spec.name));
    }
    streakStamp = sched.freshStamp();

    // Least privilege is checked at build for everything the build can
    // see: a `deny:` rule on an edge the static call graph needs is a
    // configuration contradiction, not a runtime surprise.
    rejectDeniedStaticEdges();
}

void
Image::rejectDeniedStaticEdges() const
{
    for (const auto &[lib, compName] : cfg.libraries) {
        int from = compartmentIndexOf(lib);
        for (const std::string &callee : reg.get(lib).callees) {
            if (!reg.contains(callee))
                continue;
            auto it = placements.find(callee);
            if (it == placements.end())
                continue; // unassigned TCB service: local to the caller
            int to = it->second.comp;
            // Mirrors calleeOf: TCB libraries are local to callers
            // whose mechanism replicates the kernel.
            if (from == to ||
                (reg.get(callee).tcb && backendFor(from).replicatesTcb()))
                continue;
            fatal_if(policyFor(from, to).deny, "boundary ",
                     cfg.compartments[static_cast<std::size_t>(from)]
                         .name,
                     " -> ",
                     cfg.compartments[static_cast<std::size_t>(to)].name,
                     " is denied but the static call graph needs it: ",
                     lib, " calls ", callee,
                     " (re-allow the edge with 'deny: false' or move "
                     "the libraries)");
        }
    }
}

void
Image::enforceBoundary(int from, int to, const GatePolicy &pol)
{
    if (pol.deny) {
        const std::string &fromName =
            cfg.compartments[static_cast<std::size_t>(from)].name;
        const std::string &toName =
            cfg.compartments[static_cast<std::size_t>(to)].name;
        mach.bump(Counter::GateDenied);
        // Per-edge witness: the runtime controller's deny-alert rule
        // needs to know WHICH edge is being probed, not just that
        // some denied crossing happened somewhere.
        mach.bump(CounterEdge::Denied,
                  counterIds[static_cast<std::size_t>(from)],
                  counterIds[static_cast<std::size_t>(to)]);
        throw DeniedCrossing(fromName, toName);
    }
    if (!pol.rate)
        return;

    // Token bucket in virtual time: `rate` tokens per `rateWindow`
    // vcycles, starting full. The refill is fractional so a budget of
    // N/window behaves identically to k*N/(k*window). The policy's QoS
    // weight scales the edge's effective budget, so boundaries
    // inheriting one wildcard `rate:` can be biased per caller.
    GateBucket &b =
        gateBuckets[static_cast<std::size_t>(from) * comps.size() +
                    static_cast<std::size_t>(to)];
    Cycles now = mach.cycles();
    double rate = static_cast<double>(pol.rate * pol.weight);
    if (!b.primed) {
        b.tokens = rate;
        b.primed = true;
    } else if (now > b.lastRefill) {
        double refill = static_cast<double>(now - b.lastRefill) * rate /
                        static_cast<double>(pol.rateWindow);
        b.tokens = std::min(rate, b.tokens + refill);
    }
    b.lastRefill = now;

    if (b.tokens < 1.0) {
        mach.bump(Counter::GateThrottled);
        // Per-edge breakdown: the controller's relax rule reads this
        // to see whether a tightened budget still actively constrains.
        // Its per-caller sum, `gate.throttled.<from>`, tells who is
        // being back-pressured (which `weight:` to raise for QoS).
        mach.bump(CounterEdge::Throttled,
                  counterIds[static_cast<std::size_t>(from)],
                  counterIds[static_cast<std::size_t>(to)]);
        if (pol.overflow == RateOverflow::Fail)
            throw ThrottledCrossing(
                cfg.compartments[static_cast<std::size_t>(from)].name,
                cfg.compartments[static_cast<std::size_t>(to)].name);
        // Stall: back-pressure the caller until the next token
        // refills. Waiting is not work, so the virtual clock advances
        // without the hardening multiplier (machine.stallCycles).
        auto wait = static_cast<Cycles>(
            (1.0 - b.tokens) * static_cast<double>(pol.rateWindow) /
                rate +
            1.0);
        mach.stall(wait);
        b.tokens = 1.0;
        b.lastRefill = mach.cycles();
    }
    b.tokens -= 1.0;
}

bool
Image::noteBoundaryStreak(int from, int to)
{
    Thread::CrossingState &st = crossingStateOf(sched.current());
    bool same = st.streakStamp == streakStamp && st.lastFrom == from &&
                st.lastTo == to;
    st.streakStamp = streakStamp;
    st.lastFrom = from;
    st.lastTo = to;
    return same;
}

const GatePolicy &
Image::applyElision(int from, int to, const GatePolicy &pol,
                    GatePolicy &scratch)
{
    bool streak = noteBoundaryStreak(from, to);
    if (pol.validateEntry) {
        if (streak && elidesValidate(pol.elide)) {
            mach.bump(Counter::GateElidedValidate);
        } else {
            // Policy-forced caller-side entry validation: one probe
            // of the callee's export table, whatever the mechanism's
            // own rule (the functional check is in checkEntry).
            mach.consume(mach.timing.entryValidate);
            mach.bump(Counter::GateValidate);
        }
    }
    if (streak && elidesScrub(pol.elide) && pol.scrubReturn) {
        scratch = pol;
        scratch.scrubReturn = false;
        mach.bump(Counter::GateElidedScrub);
        return scratch;
    }
    return pol;
}

void
Image::gateBatch(const GateSite &site,
                 const std::vector<std::function<void()>> &bodies)
{
    if (bodies.empty())
        return;
    int from = currentCompartment();
    int to = calleeOf(site, from);
    const std::size_t width =
        from == to
            ? 1
            : static_cast<std::size_t>(
                  std::max<std::uint64_t>(policyFor(from, to).batch, 1));
    if (width <= 1) {
        // Unbatched boundary (or a same-compartment call): exactly
        // the sequential gate path, vcycle-identical by construction.
        for (const auto &body : bodies)
            gate(site, [&] { body(); });
        return;
    }
    // Pending-swap barrier, mirroring gate(): park here so the chunks
    // below resolve their policy against the post-swap matrix. Once
    // the loop starts no swap can land between chunks — a swap can
    // only proceed while this fiber is suspended, which only happens
    // inside a crossing, where the CrossingScope holds the swap off.
    if (swapWaiters > 0 && sched.current())
        yieldForSwap();
    for (std::size_t i = 0; i < bodies.size(); i += width)
        cross(from, to, site, &bodies[i],
              std::min(width, bodies.size() - i));
}

void
Image::cross(int from, int to, const GateSite &site,
             const std::function<void()> *bodies, std::size_t count)
{
    // Per-boundary dispatch: the (from, to) cell of the gate matrix
    // decides how this crossing is enforced — mechanism, MPK flavour,
    // entry validation, return-side scrubbing, and the least-privilege
    // rules (deny, crossing-rate budget) checked before any gate cost
    // is charged. Enforcement is per LOGICAL call: a chunk of k debits
    // the token bucket k times (and a denied edge rejects the whole
    // chunk before any work).
    const GatePolicy &pol = policyFor(from, to);
    for (std::size_t i = 0; i < count; ++i)
        enforceBoundary(from, to, pol);
    GatePolicy scratch;
    const GatePolicy &eff = applyElision(from, to, pol, scratch);
    checkEntry(site, from, to, pol);
    // SMP crossing accounting: when a compartment was last entered
    // from a different core, its hot state (private stacks, heap
    // metadata, gate scratch) migrates to the entering core's caches.
    int coreNow = mach.activeCore();
    int &lastCore = compLastCore[static_cast<std::size_t>(to)];
    if (lastCore >= 0 && lastCore != coreNow) {
        mach.consume(mach.timing.crossCoreMigration);
        mach.bump(Counter::GateCrossCore);
    }
    lastCore = coreNow;
    if (count > 1) {
        mach.bump(Counter::GateBatched);
        mach.bump(Counter::GateBatchedCalls, count);
    }
    // The ledger counts logical calls, all of a chunk's even when one
    // of its bodies throws.
    crossings[static_cast<std::size_t>(from) * comps.size() +
              static_cast<std::size_t>(to)] += count;
    // `pol`/`eff` reference cells of the live matrix; the scope keeps
    // swapGateMatrix from replacing it while the crossing (which may
    // suspend inside an EPT ring RPC) is in flight.
    CrossingScope xing(*this);
    backendOf(pol.mech).cross(*this, from, to, eff, site, bodies, count);
    // Return-leg policy work: `validate_return` boundaries re-probe
    // the caller's export table on the way back (the symmetric check
    // to `validate`), charged only when the callee returned normally.
    if (pol.validateReturn) {
        mach.consume(mach.timing.entryValidate);
        mach.bump(Counter::GateValidateReturn);
    }
}

void
Image::gateDeferred(const std::string &calleeLib, const char *fnName,
                    std::function<void()> body)
{
    GateSite site = entry(calleeLib, fnName);
    int from = currentCompartment();
    int to = calleeOf(site, from);
    if (from == to || policyFor(from, to).batch <= 1) {
        gate(site, [&] { body(); });
        return;
    }
    Thread *t = sched.current();
    int id = t ? t->id() : -1;
    {
        PendingBatch &pb = pendingBatches[id];
        if (!pb.bodies.empty() &&
            (pb.site.lib != calleeLib ||
             std::strcmp(pb.site.fn, fnName) != 0)) {
            // A deferred call to a different target flushes the
            // pending batch first so the two boundaries stay ordered.
            flushBatchFor(id);
        }
    }
    PendingBatch &pb = pendingBatches[id]; // flush may have erased it
    pb.site = std::move(site);
    pb.bodies.push_back(std::move(body));
    if (pb.bodies.size() >= static_cast<std::size_t>(
                                policyFor(from, to).batch))
        flushBatchFor(id);
}

void
Image::flushBatch()
{
    Thread *t = sched.current();
    flushBatchFor(t ? t->id() : -1);
}

void
Image::flushBatchFor(int threadId)
{
    // The pre-suspension hook lands here on every yield and block;
    // usually nothing at all is pending.
    if (pendingBatches.empty())
        return;
    auto it = pendingBatches.find(threadId);
    if (it == pendingBatches.end() || it->second.bodies.empty())
        return;
    // Move the batch out before crossing: the crossing can suspend
    // (an EPT RPC blocks on its completion) and re-enter this
    // function through the pre-suspension hook, which must then find
    // no pending work.
    PendingBatch pb = std::move(it->second);
    pendingBatches.erase(it);
    gateBatch(pb.site, pb.bodies);
}

IsolationBackend &
Image::backendFor(int comp) const
{
    panic_if(comp < 0 ||
                 static_cast<std::size_t>(comp) >= compBackends.size(),
             "compartment index out of range");
    return *compBackends[static_cast<std::size_t>(comp)];
}

IsolationBackend &
Image::backendOf(Mechanism m) const
{
    for (const auto &b : backends)
        if (b->mechanism() == m)
            return *b;
    fatal("image instantiates no '", mechanismName(m), "' backend");
}

std::string
Image::backendNames() const
{
    std::string out;
    for (const auto &b : backends) {
        if (!out.empty())
            out += "+";
        out += b->name();
    }
    return out;
}

Image::~Image()
{
    shutdown();
}

void
Image::boot()
{
    panic_if(booted, "image booted twice");

    // ukboot: carve out per-compartment memory and the shared heap.
    for (auto &c : comps) {
        c->heapArena = ZeroArena(cfg.heapBytes);
        c->dataSection = ZeroArena(64 * 1024);
        c->rawHeap = std::make_unique<TlsfAllocator>(c->heapArena.data(),
                                                     c->heapArena.size());
        bool wantKasan = c->spec.hardenedWith(Hardening::Kasan) ||
                         c->spec.hardenedWith(Hardening::Asan);
        if (wantKasan) {
            c->kasanHeap = std::make_unique<KasanHeap>(*c->rawHeap);
            c->heap = c->kasanHeap.get();
        } else {
            c->heap = c->rawHeap.get();
        }

        // Functional hardening is active when the compartment, or any
        // component placed in it, enables the mechanism.
        auto anyLibWants = [&](Hardening h) {
            for (const auto &[lib, p] : placements) {
                if (p.comp != c->id)
                    continue;
                auto it = cfg.libHardening.find(lib);
                if (it == cfg.libHardening.end())
                    continue;
                for (Hardening x : it->second)
                    if (x == h)
                        return true;
            }
            return false;
        };
        if (!wantKasan && (anyLibWants(Hardening::Kasan) ||
                           anyLibWants(Hardening::Asan))) {
            wantKasan = true;
            c->kasanHeap = std::make_unique<KasanHeap>(*c->rawHeap);
            c->heap = c->kasanHeap.get();
        }

        c->hardening.kasan = wantKasan;
        c->hardening.ubsan = c->spec.hardenedWith(Hardening::Ubsan) ||
                             anyLibWants(Hardening::Ubsan);
        c->hardening.cfi = c->spec.hardenedWith(Hardening::Cfi) ||
                           anyLibWants(Hardening::Cfi);
        c->hardening.stackProtector =
            c->spec.hardenedWith(Hardening::StackProtector) ||
            anyLibWants(Hardening::StackProtector);
        c->hardening.kasanHeap = c->kasanHeap.get();
        c->hardening.cfiRegistry = &c->cfiRegistry;
    }

    sharedArena = ZeroArena(cfg.sharedHeapBytes);
    sharedHeapAlloc = std::make_unique<TlsfAllocator>(sharedArena.data(),
                                                      sharedArena.size());

    registerRegions();
    for (auto &b : backends)
        b->boot(*this);

    // Reap a thread's simulated compartment stacks the moment it
    // finishes; long-running images would otherwise leak one memMap
    // region pair per (thread, compartment) ever seen.
    threadExitListener = sched.addThreadExitListener(
        [this](Thread &t) { reapSimStacks(t.id()); });

    // Deferred vectored calls must never ride a migration: flush a
    // thread's pending batch at every suspension point, while it is
    // still running on the core that queued the calls (only suspended
    // threads can be stolen or woken cross-core).
    sched.onPreSuspend = [this](Thread &t) { flushBatchFor(t.id()); };
    preSuspendHooked = true;

    // Boot-time cost: section protection, key setup, backend init.
    mach.consume(50'000 + 10'000 * comps.size());
    mach.bump(Counter::ImageBoots);
    booted = true;
}

void
Image::shutdown()
{
    if (!booted)
        return;
    // Tear the backends down in reverse boot order; each only touches
    // the compartments it owns (EPT stops its RPC servers, etc.).
    for (auto it = backends.rbegin(); it != backends.rend(); ++it)
        (*it)->shutdown(*this);
    sched.removeThreadExitListener(threadExitListener);
    threadExitListener = -1;
    if (preSuspendHooked) {
        sched.onPreSuspend = nullptr;
        preSuspendHooked = false;
    }
    pendingBatches.clear();
    streakStamp = sched.freshStamp();
    unregisterRegions();
    booted = false;
}

void
Image::registerRegions()
{
    auto addRegion = [&](const void *base, std::size_t size, ProtKey key,
                         std::string name) {
        mach.memMap.add(base, size, key, std::move(name));
        registeredRegions.push_back(base);
    };

    auto addVmRegion = [&](const void *base, std::size_t size, int vm,
                           std::string name) {
        mach.memMap.addVmPrivate(base, size, vm, std::move(name));
        registeredRegions.push_back(base);
    };

    for (auto &c : comps) {
        if (c->vmPrivate) {
            // EPT: the compartment's memory lives in its VM's
            // second-level page tables, unmapped for everyone else —
            // no protection key consumed.
            addVmRegion(c->heapArena.data(), c->heapArena.size(), c->id,
                        c->spec.name + ".heap");
            addVmRegion(c->dataSection.data(), c->dataSection.size(),
                        c->id, c->spec.name + ".data");
        } else {
            addRegion(c->heapArena.data(), c->heapArena.size(), c->key,
                      c->spec.name + ".heap");
            addRegion(c->dataSection.data(), c->dataSection.size(),
                      c->key, c->spec.name + ".data");
        }
    }
    addRegion(sharedArena.data(), sharedArena.size(), sharedProtKey,
              "shared.heap");
}

void
Image::unregisterRegions()
{
    // Sim stacks were registered lazily; drop those regions too. Each
    // stack's own recorded sharing mode decides whether a separate
    // DSS-half region exists (the mode is per boundary, not global).
    for (auto &[key, stack] : simStacks) {
        mach.memMap.remove(stack.mem.get());
        if (stack.sharing == StackSharing::Dss)
            mach.memMap.remove(stack.mem.get() + SimStack::stackBytes);
    }
    simStacks.clear();
    for (const void *base : registeredRegions)
        mach.memMap.remove(base);
    registeredRegions.clear();
}

Compartment &
Image::compartmentAt(std::size_t idx)
{
    panic_if(idx >= comps.size(), "compartment index out of range");
    return *comps[idx];
}

int
Image::compartmentIndexOf(const std::string &lib) const
{
    auto it = placements.find(lib);
    fatal_if(it == placements.end(), "library '", lib,
             "' not assigned to any compartment");
    return it->second.comp;
}

Compartment &
Image::compartmentOf(const std::string &lib)
{
    return *comps[static_cast<std::size_t>(compartmentIndexOf(lib))];
}

bool
Image::sameCompartment(const std::string &a, const std::string &b) const
{
    return compartmentIndexOf(a) == compartmentIndexOf(b);
}

void
Image::raiseUnresolved(const GateSite &site) const
{
    reg.get(site.lib); // raises for a library the registry lacks
    fatal("library '", site.lib, "' not in the image");
}

GateSite
Image::entry(const std::string &calleeLib, const char *fnName) const
{
    GateSite site;
    site.lib = calleeLib;
    site.fn = fnName;
    auto it = placements.find(calleeLib);
    const LibraryInfo *info = nullptr;
    if (it != placements.end()) {
        info = it->second.info;
        site.mult = it->second.mult;
    } else if (reg.contains(calleeLib)) {
        info = &reg.get(calleeLib);
    }
    // Unknown libraries, and unplaced ones outside the TCB, keep
    // `notInImage`: a call through the site raises (raiseUnresolved).
    if (!info)
        return site;
    site.tcb = info->tcb;
    site.entryValid = info->entryPoints.count(fnName) != 0;
    if (it != placements.end())
        site.home = it->second.comp;
    else if (info->tcb)
        site.home = GateSite::callerLocal;
    return site;
}

int
Image::currentCompartment() const
{
    Thread *t = sched.current();
    if (!t)
        return static_cast<int>(cfg.defaultCompartment());
    return t->currentCompartment;
}

const HardeningContext &
Image::currentHardening() const
{
    return comps[static_cast<std::size_t>(currentCompartment())]
        ->hardening;
}

void
Image::checkEntry(const GateSite &site, int from, int to,
                  const GatePolicy &pol) const
{
    bool enforce = pol.validateEntry ||
                   backendOf(pol.mech).checksEntryPoints() ||
                   cfiHardened[static_cast<std::size_t>(to)];
    if (!enforce)
        return;
    if (!site.entryValid) {
        // Witness the rejection per attacked edge before raising, so
        // the adversary scorecard (and the controller's deny-witness
        // pass) can attribute the forged entry to its boundary.
        mach.bump(Counter::GateValidateReject);
        mach.bump(CounterEdge::ValidateReject,
                  counterIds[static_cast<std::size_t>(from)],
                  counterIds[static_cast<std::size_t>(to)]);
        throw CfiViolation(std::string("gate to non-entry-point ") +
                           site.lib + "." + site.fn);
    }
}

double
Image::libMultiplier(const std::string &lib) const
{
    auto it = placements.find(lib);
    if (it != placements.end())
        return it->second.mult;
    // Unassigned TCB services execute in the caller's compartment and
    // inherit no extra instrumentation.
    return 1.0;
}

Thread *
Image::spawnIn(const std::string &lib, std::string name,
               std::function<void()> entry)
{
    int comp = compartmentIndexOf(lib);
    Compartment &c = *comps[static_cast<std::size_t>(comp)];
    Thread *t = sched.spawn(std::move(name), std::move(entry));
    t->currentCompartment = comp;
    t->pkru = c.domain;
    t->vm = c.vmPrivate ? comp : -1;
    t->workMult = libMultiplier(lib);
    return t;
}

void *
Image::sharedAlloc(std::size_t n)
{
    return sharedHeapAlloc->alloc(n);
}

void
Image::sharedFree(void *p)
{
    sharedHeapAlloc->free(p);
}

Allocator &
Image::heapOf(const std::string &lib)
{
    return *compartmentOf(lib).heap;
}

SimStack &
Image::simStackFor(int threadId, int comp, StackSharing sharing)
{
    auto key = std::make_pair(threadId, comp);
    auto it = simStacks.find(key);
    if (it != simStacks.end())
        return it->second;

    SimStack stack;
    stack.mem = std::make_unique<char[]>(2 * SimStack::stackBytes);
    stack.sharing = sharing;
    char *base = stack.mem.get();
    Compartment &c = *comps[static_cast<std::size_t>(comp)];

    // Private halves of a VM-private (EPT) compartment's stacks live
    // inside the VM, not behind a key.
    auto addPrivate = [&](char *p, std::size_t n, std::string tag) {
        if (c.vmPrivate)
            mach.memMap.addVmPrivate(p, n, comp, std::move(tag));
        else
            mach.memMap.add(p, n, c.key, std::move(tag));
    };

    std::string tag = "stack-t" + std::to_string(threadId) + "-c" +
                      std::to_string(comp);
    switch (sharing) {
      case StackSharing::Dss:
        // Lower half private, upper half (the DSS) in the shared domain.
        addPrivate(base, SimStack::stackBytes, tag);
        mach.memMap.add(base + SimStack::stackBytes, SimStack::stackBytes,
                        sharedProtKey, tag + ".dss");
        break;
      case StackSharing::SharedStack:
        // The whole stack is shared: cheap but weakest isolation.
        mach.memMap.add(base, 2 * SimStack::stackBytes, sharedProtKey,
                        tag + ".shared");
        break;
      case StackSharing::Heap:
        // Stack stays fully private; shared variables go to the heap.
        addPrivate(base, 2 * SimStack::stackBytes, tag);
        break;
    }
    auto [pos, inserted] = simStacks.emplace(key, std::move(stack));
    return pos->second;
}

void
Image::reapSimStacks(int threadId)
{
    // (threadId, comp) keys sort by thread id first, so a thread's
    // stacks are one contiguous map range.
    auto it = simStacks.lower_bound({threadId, 0});
    while (it != simStacks.end() && it->first.first == threadId) {
        mach.memMap.remove(it->second.mem.get());
        if (it->second.sharing == StackSharing::Dss)
            mach.memMap.remove(it->second.mem.get() +
                               SimStack::stackBytes);
        it = simStacks.erase(it);
        mach.bump(Counter::ImageSimStackReaps);
    }
    // A thread that exits with deferred calls still queued never
    // reached a flush point — drop them, visibly (the cancellation
    // unwind legitimately strands batches at teardown).
    auto pit = pendingBatches.find(threadId);
    if (pit != pendingBatches.end()) {
        if (!pit->second.bodies.empty())
            mach.bump(Counter::GateBatchDropped, pit->second.bodies.size());
        pendingBatches.erase(pit);
    }
}

std::string
Image::linkerScript() const
{
    std::ostringstream oss;
    oss << "/* FlexOS generated linker script (backends: "
        << backendNames() << ") */\n";
    oss << "SECTIONS\n{\n";
    oss << "    /* gate-policy matrix (from -> to : policy) */\n";
    for (const auto &f : comps) {
        for (const auto &t : comps) {
            if (f->id == t->id)
                continue;
            oss << "    /*   " << f->spec.name << " -> " << t->spec.name
                << " : " << policyFor(f->id, t->id).name() << " */\n";
        }
    }
    for (const auto &c : comps) {
        const std::string &n = c->spec.name;
        oss << "    /* compartment " << c->id << " '" << n << "' ";
        if (c->vmPrivate)
            oss << "vm-private (no key)";
        else
            oss << "key " << int(c->key);
        oss << " mechanism " << mechanismName(c->spec.mechanism)
            << " gate " << backendFor(c->id).name() << " */\n";
        oss << "    /*   aslr slide 0x" << std::hex << c->layoutSlide
            << std::dec << " (" << c->layoutEntropyBits
            << " bits entropy)"
            << (c->layoutEntropyBits == 0 ? " -- fixed layout" : "")
            << " */\n";
        std::string prot = c->vmPrivate
                               ? "ept vm " + std::to_string(c->id)
                               : "pkey " + std::to_string(int(c->key));
        oss << "    .text." << n << "    : { *(.text." << n << ") }\n";
        oss << "    .rodata." << n << "  : { *(.rodata." << n << ") }\n";
        oss << "    .data." << n << "    : { *(.data." << n
            << ") } /* " << c->dataSection.size() << " bytes, " << prot
            << " */\n";
        oss << "    .bss." << n << "     : { *(.bss." << n << ") }\n";
        oss << "    .heap." << n << "    : { . += " << cfg.heapBytes
            << "; } /* " << prot << " */\n";
    }
    oss << "    /* shared communication domain, pkey "
        << int(sharedProtKey) << " */\n";
    oss << "    .heap.shared   : { . += " << cfg.sharedHeapBytes
        << "; }\n";
    oss << "    .dss           : { /* per-thread doubled stacks, "
        << SimStack::stackBytes << " B halves */ }\n";
    oss << "}\n";
    return oss.str();
}

void
Image::yieldForSwap()
{
    // Kept out of the header's hot path: a plain cooperative yield —
    // the swapper is runnable (or will be woken by the next drained
    // crossing) and flips the matrix before this thread runs again.
    mach.bump(Counter::MatrixSwapYields);
    sched.yield();
}

bool
Image::swapGateMatrix(GateMatrix next)
{
    panic_if(next.size() != gates.size(),
             "swapGateMatrix: matrix shape mismatch (", next.size(),
             " compartments vs ", gates.size(), ")");

    // Policy-identical swap: detected before any quiesce machinery
    // engages, so it is charge-free and counter-free — the regression
    // pin that a no-op swap is bit-identical to no swap at all.
    if (next == gates)
        return false;

    Thread *self = sched.current();
    panic_if(crossingStateOf(self).depth > 0,
             "swapGateMatrix called from inside a gated crossing");

    // The swapper's own pending batch would otherwise be flushed by a
    // later suspension and cross under whichever matrix is live then;
    // flush it now so its calls are charged under the epoch that
    // queued them.
    flushBatch();

    // Quiesce: wait until no thread holds references into the live
    // matrix (a crossing blocked in an EPT ring RPC does). New
    // crossings park at the gate()-side barrier while swapWaiters > 0.
    ++swapWaiters;
    if (activeCrossings_ > 0)
        mach.bump(Counter::MatrixQuiesceWaits);
    while (activeCrossings_ > 0) {
        if (self) {
            quiesceWait.wait(); // woken by the last CrossingScope
        } else {
            // Driver context: run the scheduler until the in-flight
            // crossings drain on their own.
            sched.runUntil([&] { return activeCrossings_ == 0; });
            panic_if(activeCrossings_ > 0,
                     "swapGateMatrix could not quiesce: a crossing is "
                     "blocked forever (execution dried up with ",
                     activeCrossings_, " crossings in flight)");
        }
    }
    --swapWaiters;

    GateMatrix old = std::move(gates);
    gates = std::move(next);
    gates.setEpoch(old.epoch() + 1);

    // Re-prime only the buckets whose budget actually changed: an
    // untouched boundary keeps its token level and refill timestamp
    // across the epoch, so a swap elsewhere cannot hand it a free
    // burst of freshly-primed tokens.
    std::size_t n = comps.size();
    for (std::size_t f = 0; f < n; ++f) {
        for (std::size_t t = 0; t < n; ++t) {
            const GatePolicy &np =
                gates.at(static_cast<int>(f), static_cast<int>(t));
            const GatePolicy &op =
                old.at(static_cast<int>(f), static_cast<int>(t));
            if (np.rate != op.rate || np.rateWindow != op.rateWindow ||
                np.weight != op.weight)
                gateBuckets[f * n + t] = GateBucket{};
        }
    }

    // Elision streaks are a same-policy-run optimisation; they do not
    // survive an epoch whose policies may differ.
    streakStamp = sched.freshStamp();

    ackCoresAfterSwap();

    for (auto &b : backends)
        b->policyChanged(*this);

    mach.bump(Counter::MatrixSwaps);
    mach.bump(Counter::MatrixEpoch);
    return true;
}

void
Image::ackCoresAfterSwap()
{
    // A core acknowledges the new epoch by dispatching a thread after
    // the flip (every dispatch is a policy-safe point: the thread it
    // resumes is outside any crossing, by quiescence). Cores with no
    // runnable work are idle — trivially at a safe point. So is, for a
    // swapper on a fiber, a core whose queued threads are all ready
    // only in its future: the swapper's own yields are always due
    // first, so that core would never get to dispatch them.
    Thread *self = sched.current();
    int selfCore = self ? mach.activeCore() : -1;
    std::size_t cores = mach.coreCount();
    std::vector<std::uint64_t> mark(cores);
    for (std::size_t c = 0; c < cores; ++c)
        mark[c] = sched.dispatchesOn(static_cast<int>(c));
    for (std::size_t c = 0; c < cores; ++c) {
        int core = static_cast<int>(c);
        if (core == selfCore) {
            // The swapper's own core acks by running this code.
            mach.bump(Counter::MatrixCoreAcks);
            continue;
        }
        if (self) {
            while (sched.coreHasDueWork(core) &&
                   sched.dispatchesOn(core) == mark[c])
                sched.yield();
        } else if (sched.coreHasRunnable(core)) {
            sched.runUntil([&] {
                return !sched.coreHasRunnable(core) ||
                       sched.dispatchesOn(core) != mark[c];
            });
        }
        mach.bump(Counter::MatrixCoreAcks);
    }
}

Image::StatsSnapshot
Image::snapshotStats() const
{
    return mach.counters();
}

Image::StatsSnapshot
Image::statsDelta(const StatsSnapshot &before, const StatsSnapshot &now)
{
    StatsSnapshot out;
    for (const auto &[key, value] : now) {
        auto it = before.find(key);
        std::uint64_t prev = it == before.end() ? 0 : it->second;
        if (value > prev)
            out[key] = value - prev;
    }
    return out;
}

std::map<std::pair<int, int>, std::uint64_t>
Image::gateCrossings() const
{
    std::map<std::pair<int, int>, std::uint64_t> out;
    std::size_t n = comps.size();
    for (std::size_t i = 0; i < crossings.size(); ++i)
        if (crossings[i])
            out.emplace(std::make_pair(static_cast<int>(i / n),
                                       static_cast<int>(i % n)),
                        crossings[i]);
    return out;
}

std::map<std::pair<int, int>, Image::BoundaryStat>
Image::boundaryStats() const
{
    std::map<std::pair<int, int>, BoundaryStat> out;
    for (const auto &[pair, count] : gateCrossings()) {
        BoundaryStat s;
        s.from = comps[static_cast<std::size_t>(pair.first)]->spec.name;
        s.to = comps[static_cast<std::size_t>(pair.second)]->spec.name;
        s.policy = policyFor(pair.first, pair.second).name();
        s.count = count;
        out.emplace(pair, std::move(s));
    }
    return out;
}

} // namespace flexos
