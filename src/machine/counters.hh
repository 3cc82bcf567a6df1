/**
 * @file
 * The machine's event counters as dense slots.
 *
 * Every counter name the simulator bumps literally has one slot in a
 * fixed enum, so a bump on the crossing path is an array add, not a
 * string build and a map walk. The table is compile-time constant:
 * there is no registry to intern into at run time, so nothing here is
 * shared mutable state.
 *
 * Five name families carry compartment or core names in the key; the
 * machine keeps them in dense [from][to] and [core] arrays and spells
 * the names only when counters are dumped (see CounterEdge and
 * Machine::stall). The per-caller `gate.throttled.<from>` is the sum
 * of its `gate.throttled.<from>-><to>` edges, which every throttle
 * bumps, so it is derived at dump time rather than stored.
 *
 * Adding a counter: add one X(Id, "dotted.name") row below (rows are
 * kept sorted by name) and bump it with `mach.bump(Counter::Id)`; the
 * by-name lookup picks it up through a compile-time hash index.
 */

#ifndef FLEXOS_MACHINE_COUNTERS_HH
#define FLEXOS_MACHINE_COUNTERS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace flexos {

// clang-format off
#define FLEXOS_COUNTERS(X) \
    X(ControllerAlerts, "controller.alerts") \
    X(ControllerEpochs, "controller.epochs") \
    X(ControllerRelaxes, "controller.relaxes") \
    X(ControllerTightens, "controller.tightens") \
    X(ControllerTrace, "controller.trace") \
    X(DssStackAllocs, "dss.stackAllocs") \
    X(GateBatchDropped, "gate.batchDropped") \
    X(GateBatchWidthChanges, "gate.batchWidthChanges") \
    X(GateBatched, "gate.batched") \
    X(GateBatchedCalls, "gate.batchedCalls") \
    X(GateCheri, "gate.cheri") \
    X(GateCoalesced, "gate.coalesced") \
    X(GateCrossCore, "gate.crossCore") \
    X(GateCubicle, "gate.cubicle") \
    X(GateDenied, "gate.denied") \
    X(GateDirect, "gate.direct") \
    X(GateElidedScrub, "gate.elided.scrub") \
    X(GateElidedValidate, "gate.elided.validate") \
    X(GateEpt, "gate.ept") \
    X(GateEptElasticRetires, "gate.ept.elasticRetires") \
    X(GateEptElasticSpawns, "gate.ept.elasticSpawns") \
    X(GateEptForgedRejected, "gate.ept.forgedRejected") \
    X(GateEptForgedRpcs, "gate.ept.forgedRpcs") \
    X(GateEptNoscrub, "gate.ept.noscrub") \
    X(GateEptPolicyResizes, "gate.ept.policyResizes") \
    X(GateEptRingDepth, "gate.ept.ringDepth") \
    X(GateEptShutdownCancels, "gate.ept.shutdownCancels") \
    X(GateEptShutdownDrained, "gate.ept.shutdownDrained") \
    X(GateEptSpuriousDoorbells, "gate.ept.spuriousDoorbells") \
    X(GateMpkDss, "gate.mpk.dss") \
    X(GateMpkDssNoscrub, "gate.mpk.dss.noscrub") \
    X(GateMpkLight, "gate.mpk.light") \
    X(GateNone, "gate.none") \
    X(GateSel4ipc, "gate.sel4ipc") \
    X(GateSyscall, "gate.syscall") \
    X(GateThrottled, "gate.throttled") \
    X(GateValidate, "gate.validate") \
    X(GateValidateReject, "gate.validate.reject") \
    X(GateValidateReturn, "gate.validate.return") \
    X(HardeningCanarySmashed, "hardening.canarySmashed") \
    X(ImageBoots, "image.boots") \
    X(ImageSimStackReaps, "image.simStackReaps") \
    X(IpBadHeader, "ip.badHeader") \
    X(IpNotMine, "ip.notMine") \
    X(IpTruncated, "ip.truncated") \
    X(MachineIdleCycles, "machine.idleCycles") \
    X(MachineStallCycles, "machine.stallCycles") \
    X(MatrixCoreAcks, "matrix.coreAcks") \
    X(MatrixEpoch, "matrix.epoch") \
    X(MatrixQuiesceWaits, "matrix.quiesceWaits") \
    X(MatrixSwapYields, "matrix.swapYields") \
    X(MatrixSwaps, "matrix.swaps") \
    X(MmuViolations, "mmu.violations") \
    X(NicDropped, "nic.dropped") \
    X(NicRx, "nic.rx") \
    X(NicSteered, "nic.steered") \
    X(NicTx, "nic.tx") \
    X(RamfsOps, "ramfs.ops") \
    X(SchedIdleJumps, "sched.idleJumps") \
    X(SchedIpis, "sched.ipis") \
    X(SchedSteals, "sched.steals") \
    X(TcpBacklogDrops, "tcp.backlogDrops") \
    X(TcpBadChecksum, "tcp.badChecksum") \
    X(TcpDuplicates, "tcp.duplicates") \
    X(TcpNoMatch, "tcp.noMatch") \
    X(TcpOooBytes, "tcp.oooBytes") \
    X(TcpOooEvicted, "tcp.oooEvicted") \
    X(TcpOutOfOrder, "tcp.outOfOrder") \
    X(TcpPartialOverlaps, "tcp.partialOverlaps") \
    X(TcpRetransmits, "tcp.retransmits") \
    X(TcpSegmentsOut, "tcp.segmentsOut") \
    X(VfsOps, "vfs.ops") \
// clang-format on

/** One literal counter name's slot. */
enum class Counter : std::uint8_t
{
#define FLEXOS_COUNTER_ID(id, name) id,
    FLEXOS_COUNTERS(FLEXOS_COUNTER_ID)
#undef FLEXOS_COUNTER_ID
};

/** The names, indexed by Counter. */
inline constexpr std::array counterNames = {
#define FLEXOS_COUNTER_NAME(id, name) std::string_view(name),
    FLEXOS_COUNTERS(FLEXOS_COUNTER_NAME)
#undef FLEXOS_COUNTER_NAME
};

inline constexpr std::size_t counterCount = counterNames.size();

namespace detail {

/** FNV-1a: the hash of the by-name counter index. */
constexpr std::uint32_t
counterHash(std::string_view s)
{
    std::uint32_t h = 0x811c9dc5u;
    for (char ch : s)
        h = (h ^ static_cast<unsigned char>(ch)) * 0x01000193u;
    return h;
}

/** Open-addressed index from name hash to Counter + 1 (0 = empty),
 *  built at compile time; at most a third full. */
inline constexpr auto counterIndex = [] {
    std::array<std::uint8_t, 256> index{};
    static_assert(counterCount * 3 <= index.size());
    for (std::size_t i = 0; i < counterCount; ++i) {
        std::size_t h = counterHash(counterNames[i]) % index.size();
        while (index[h])
            h = (h + 1) % index.size();
        index[h] = static_cast<std::uint8_t>(i + 1);
    }
    return index;
}();

} // namespace detail

/** The slot of a literal counter name, if it has one. */
constexpr std::optional<Counter>
counterNamed(std::string_view name)
{
    const auto &index = detail::counterIndex;
    for (std::size_t h = detail::counterHash(name) % index.size(); index[h];
         h = (h + 1) % index.size())
        if (counterNames[index[h] - 1u] == name)
            return static_cast<Counter>(index[h] - 1u);
    return std::nullopt;
}

/** Per-(from, to) counter families, named `<prefix><from>-><to>`. */
enum class CounterEdge : std::uint8_t
{
    Denied,         ///< gate.denied.<from>-><to>
    Throttled,      ///< gate.throttled.<from>-><to>
    ValidateReject, ///< gate.validate.reject.<from>-><to>
};

} // namespace flexos

#endif // FLEXOS_MACHINE_COUNTERS_HH
