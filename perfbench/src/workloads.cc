#include "workloads.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>

#include "apps/deploy.hh"
#include "apps/minisql.hh"
#include "apps/redis.hh"
#include "base/rng.hh"
#include "base/strutil.hh"
#include "explore/poset.hh"
#include "explore/wayfinder.hh"

namespace perfbench {

using namespace flexos;

namespace {

// Closed loop, one simulated core, at most four client connections:
// the simulator is single-threaded, so the load fits a small host.
constexpr unsigned connections = 4;
constexpr std::uint16_t redisPort = 6379;
constexpr std::uint16_t iperfPort = 5201;

/** Redis over TCP: libredis+newlib / uksched / lwip, MPK gates, DSS. */
const char *const redisMpk3Cfg = R"(compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
- comp3:
    mechanism: intel-mpk
libraries:
- libredis: comp1
- newlib: comp1
- uksched: comp2
- lwip: comp3
- uktime: comp1
)";

/** libiperf in its own VM, EPT-isolated from newlib+uksched+lwip. */
const char *const iperfEpt2Cfg = R"(compartments:
- comp1:
    mechanism: vm-ept
    default: True
- comp2:
    mechanism: vm-ept
libraries:
- libiperf: comp1
- newlib: comp2
- uksched: comp2
- lwip: comp2
)";

/** The Figure 10 MPK3 split: app+libc+sched / vfscore / uktime. */
const char *const sqliteMpk3Cfg = R"(compartments:
- c1:
    mechanism: intel-mpk
    default: True
- c2:
    mechanism: intel-mpk
- c3:
    mechanism: intel-mpk
libraries:
- libsqlite: c1
- newlib: c1
- uksched: c1
- vfscore: c2
- uktime: c3
)";

/** @name Workload sizes at scale 1. @{ */
// Request/transaction/recv counts stay above 10000 so the p999 of
// every workload has at least ten samples beyond it.
constexpr std::uint64_t redisKeysPerConn = 2500;
constexpr std::uint64_t redisRequests = 20000;
constexpr std::uint64_t iperfBytes = 12 * 1024 * 1024;
constexpr std::size_t iperfRecvBuf = 1024;
constexpr std::uint64_t sqlitePreloadRows = 2000;
constexpr std::uint64_t sqliteInserts = 12000;
constexpr unsigned sqliteSampleRows = 16;
constexpr std::uint64_t sweepKeysPerConn = 32;
constexpr std::uint64_t sweepRequests = 160;
/** redis-sweep80 budget: safestWithin(budgetShare x best req/s). */
constexpr double sweepBudgetShare = 0.8;
/** @} */

std::uint64_t
scaled(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               static_cast<double>(n) * scale)));
}

void
fail(Rep &rep, const std::string &msg)
{
    rep.errors.push_back(msg);
}

/** Seeded printable payload of a length in [lo, hi]. */
std::string
payload(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    std::string s(rng.range(lo, hi), ' ');
    for (char &ch : s)
        ch = static_cast<char>("abcdefghijklmnopqrstuvwxyz0123456789"
                                   [rng.below(36)]);
    return s;
}

// ------------------------------------------------------------ counters

/** Counter state of a deployment at one instant. */
struct Snapshot
{
    Image::StatsSnapshot stats;
    std::map<std::pair<int, int>, std::uint64_t> crossings;
    std::uint64_t dispatches = 0;
    std::uint64_t allocs = 0, allocSteps = 0, allocFailed = 0;
    Cycles wall = 0;
};

Snapshot
snapshot(Deployment &dep)
{
    Image &img = dep.image();
    Snapshot s;
    s.stats = img.snapshotStats();
    s.crossings = img.gateCrossings();
    s.dispatches = dep.scheduler().dispatchesOn(0);
    std::set<Allocator *> heaps{&img.sharedHeap()};
    for (const auto &[lib, comp] : img.config().libraries)
        heaps.insert(&img.heapOf(lib));
    for (Allocator *h : heaps) {
        s.allocs += h->stats().allocs;
        s.allocSteps += h->stats().steps;
        s.allocFailed += h->stats().failed;
    }
    s.wall = dep.machine().wallCycles();
    return s;
}

std::uint64_t
counterIn(const Image::StatsSnapshot &s, const char *key)
{
    auto it = s.find(key);
    return it == s.end() ? 0 : it->second;
}

/** Raw timed-phase totals, summed over a repetition's deployments. */
using Totals = std::map<std::string, double>;

void
addDelta(Totals &t, const Snapshot &a, const Snapshot &b)
{
    auto delta = [&](const char *key) {
        return static_cast<double>(counterIn(b.stats, key) -
                                   counterIn(a.stats, key));
    };
    double crossings = 0;
    for (const auto &[edge, n] : b.crossings) {
        auto it = a.crossings.find(edge);
        crossings += static_cast<double>(
            n - (it == a.crossings.end() ? 0 : it->second));
    }
    t["crossings"] += crossings;
    t["dss_stack_allocs"] += delta("dss.stackAllocs");
    t["ept_rpcs"] += delta("gate.ept");
    // A high-water mark since boot, not a delta.
    t["ept_ring_depth_max"] =
        std::max(t["ept_ring_depth_max"],
                 static_cast<double>(
                     counterIn(b.stats, "gate.ept.ringDepth")));
    t["ept_elastic_spawns"] += delta("gate.ept.elasticSpawns");
    t["dispatches"] += static_cast<double>(b.dispatches - a.dispatches);
    t["idle_jumps"] += delta("sched.idleJumps");
    t["idle_cycles"] += delta("machine.idleCycles");
    t["stall_cycles"] += delta("machine.stallCycles");
    t["wall_cycles"] += static_cast<double>(b.wall - a.wall);
    t["frames"] += delta("nic.tx");
    t["segments"] += delta("tcp.segmentsOut");
    t["retransmits"] += delta("tcp.retransmits");
    t["dropped"] += delta("nic.dropped");
    t["allocs"] += static_cast<double>(b.allocs - a.allocs);
    t["alloc_steps"] += static_cast<double>(b.allocSteps - a.allocSteps);
    t["alloc_failed"] += static_cast<double>(b.allocFailed - a.allocFailed);
    t["vfs_ops"] += delta("vfs.ops");
    t["ramfs_ops"] += delta("ramfs.ops");
}

/** The per-layer count metrics of a repetition, from its totals. */
std::map<std::string, double>
layerCounts(Totals &t, std::uint64_t ops)
{
    double n = static_cast<double>(ops);
    auto per = [&](const char *key) { return n > 0 ? t[key] / n : 0; };
    auto ratio = [&](const char *num, const char *den) {
        return t[den] > 0 ? t[num] / t[den] : 0;
    };
    return {
        {"core.crossings_per_op", per("crossings")},
        {"core.dss_stack_allocs_per_op", per("dss_stack_allocs")},
        {"backends.ept_rpcs_per_op", per("ept_rpcs")},
        {"backends.ept_ring_depth_max", t["ept_ring_depth_max"]},
        {"backends.ept_elastic_spawns", t["ept_elastic_spawns"]},
        {"uksched.dispatches_per_op", per("dispatches")},
        {"uksched.idle_jumps_per_op", per("idle_jumps")},
        {"machine.idle_share", ratio("idle_cycles", "wall_cycles")},
        {"machine.stall_cycles_per_op", per("stall_cycles")},
        {"net.frames_per_op", per("frames")},
        {"net.segments_per_op", per("segments")},
        {"net.retransmits_per_op", per("retransmits")},
        // No segment sent wastes none.
        {"net.useful_segment_ratio",
         1 - ratio("retransmits", "segments")},
        {"net.dropped", t["dropped"]},
        {"ukalloc.allocs_per_op", per("allocs")},
        {"ukalloc.steps_per_alloc", ratio("alloc_steps", "allocs")},
        {"ukalloc.failed", t["alloc_failed"]},
        {"vfs.ops_per_op", per("vfs_ops")},
        {"vfs.ramfs_ops_per_op", per("ramfs_ops")},
        {"apps.commands_served", t["commands_served"]},
    };
}

/**
 * Name the timed phase's busiest (from, to) boundary by a library on
 * each side and an entry point of the callee, for the gate probe.
 */
void
noteHotBoundary(Rep &rep, Image &img, const Snapshot &a, const Snapshot &b)
{
    std::pair<int, int> hot{-1, -1};
    std::uint64_t most = 0;
    for (const auto &[edge, n] : b.crossings) {
        auto it = a.crossings.find(edge);
        std::uint64_t d = n - (it == a.crossings.end() ? 0 : it->second);
        if (d > most) {
            most = d;
            hot = edge;
        }
    }
    if (hot.first < 0)
        return;
    const std::string &from =
        img.compartmentAt(static_cast<std::size_t>(hot.first)).spec.name;
    const std::string &to =
        img.compartmentAt(static_cast<std::size_t>(hot.second)).spec.name;
    rep.hotCaller.clear();
    rep.hotCallee.clear();
    for (const auto &[lib, comp] : img.config().libraries) {
        if (comp == from && rep.hotCaller.empty())
            rep.hotCaller = lib;
        const auto &entries = img.registry().get(lib).entryPoints;
        if (comp == to && rep.hotCallee.empty() && !entries.empty()) {
            rep.hotCallee = lib;
            rep.hotEntry = *entries.begin();
        }
    }
}

/** Modelled seconds between two snapshots of one deployment. */
double
simSecondsBetween(const Machine &mach, const Snapshot &a, const Snapshot &b)
{
    return static_cast<double>(b.wall - a.wall) / (mach.timing.cpuGhz * 1e9);
}

/**
 * Record a single-deployment timed phase: modelled time and op rate,
 * per-layer counts per op, and the busiest boundary.
 */
void
recordTimed(Rep &rep, Deployment &dep, const Snapshot &before,
            const Snapshot &after, std::uint64_t ops, std::uint64_t served)
{
    rep.cpuGhz = dep.machine().timing.cpuGhz;
    rep.simSeconds = simSecondsBetween(dep.machine(), before, after);
    rep.simOpsPerS =
        rep.simSeconds > 0 ? static_cast<double>(ops) / rep.simSeconds : 0;
    Totals totals;
    addDelta(totals, before, after);
    totals["commands_served"] = static_cast<double>(served);
    rep.layer = layerCounts(totals, ops);
    noteHotBoundary(rep, dep.image(), before, after);
}

/** Span helpers that cost one branch when tracing is off. */
std::uint32_t
spanBegin(Tracer *tr, std::string_view name, std::uint32_t parent,
          std::uint64_t vc)
{
    return tr ? tr->begin(name, parent, vc) : 0;
}

void
spanEnd(Tracer *tr, std::uint32_t id, std::uint64_t vc)
{
    if (tr)
        tr->end(id, vc);
}

/**
 * Build and boot a deployment from config text, recording the
 * `build` span and the host time it took.
 */
std::unique_ptr<Deployment>
build(const std::string &cfgText, const DeployOptions &opts, Rep &rep,
      Tracer *tr, std::uint32_t parent)
{
    double c0 = cpuSeconds();
    std::uint32_t span = spanBegin(tr, "build", parent, 0);
    auto dep = std::make_unique<Deployment>(cfgText, opts);
    if (opts.withNet)
        dep->start();
    spanEnd(tr, span, dep->machine().wallCycles());
    rep.buildS += cpuSeconds() - c0;
    return dep;
}

/** Enough scheduler switches for any healthy run of `ops` ops. */
std::uint64_t
switchBudget(std::uint64_t ops)
{
    return 1'000'000 + 2'000 * ops;
}

// ---------------------------------------------------------------- redis

struct RedisOp
{
    bool set = false;
    std::uint32_t key = 0;
    std::string value; ///< SET only
};

/**
 * Seeded Redis inputs. Each connection reads and writes only its own
 * key slice, so a per-connection shadow map predicts every GET reply
 * exactly whatever the server's interleaving.
 */
struct RedisInputs
{
    std::vector<std::vector<std::string>> preload; ///< [conn][key]
    std::vector<std::vector<RedisOp>> ops;         ///< [conn]
};

RedisInputs
makeRedisInputs(std::uint64_t seed, std::uint64_t keysPerConn,
                std::uint64_t requests)
{
    Rng rng(seed);
    RedisInputs in;
    in.preload.resize(connections);
    in.ops.resize(connections);
    for (auto &slice : in.preload)
        for (std::uint64_t k = 0; k < keysPerConn; ++k)
            slice.push_back(payload(rng, 8, 64));
    for (unsigned c = 0; c < connections; ++c) {
        std::uint64_t share =
            requests / connections + (c < requests % connections ? 1 : 0);
        for (std::uint64_t i = 0; i < share; ++i) {
            RedisOp op;
            op.set = rng.chance(1, 10); // 90% GET / 10% SET
            op.key = static_cast<std::uint32_t>(rng.below(keysPerConn));
            if (op.set)
                op.value = payload(rng, 8, 64);
            in.ops[c].push_back(std::move(op));
        }
    }
    return in;
}

std::string
keyName(unsigned conn, std::uint32_t key)
{
    return "key:" + std::to_string(conn) + ":" + std::to_string(key);
}

/** Length of the first complete RESP reply in buf; 0 if incomplete. */
std::size_t
replyLength(const std::string &buf)
{
    std::size_t eol = buf.find("\r\n");
    if (eol == std::string::npos)
        return 0;
    long len = -1;
    if (buf[0] != '$' || !parseInt(std::string_view(buf).substr(1, eol - 1),
                                   len) ||
        len < 0)
        return eol + 2;
    std::size_t total = eol + 2 + static_cast<std::size_t>(len) + 2;
    return buf.size() >= total ? total : 0;
}

/** Read one reply off a client socket; empty on EOF or error. */
std::string
readReply(TcpSocket *s, std::string &rx)
{
    char buf[4096];
    std::size_t len;
    while ((len = replyLength(rx)) == 0) {
        long n = s->recv(buf, sizeof(buf));
        if (n <= 0)
            return {};
        rx.append(buf, static_cast<std::size_t>(n));
    }
    std::string reply = rx.substr(0, len);
    rx.erase(0, len);
    return reply;
}

/** What one Redis deployment's timed phase measured. */
struct RedisOutcome
{
    std::uint64_t ops = 0;
    double simSeconds = 0;
};

/**
 * One Redis deployment: build, preload every key slice over one
 * pipelined connection, then a closed loop of pipeline-1 requests
 * over `connections` connections, every reply checked against the
 * connection's shadow map; finally teardown. Accumulates into rep.
 */
RedisOutcome
runRedis(const std::string &cfgText, const RedisInputs &in, Rep &rep,
         Totals &totals, Tracer *tr, std::uint32_t parent)
{
    RedisOutcome out;
    double c0 = cpuSeconds();
    std::uint32_t setupSpan = spanBegin(tr, "setup", parent, 0);
    DeployOptions opts;
    opts.withFs = false;
    opts.heapBytes = 2 * 1024 * 1024;
    opts.sharedHeapBytes = 1 * 1024 * 1024;
    std::optional<RedisServer> server;
    std::unique_ptr<Deployment> dep = build(cfgText, opts, rep, tr, setupSpan);
    Machine &mach = dep->machine();
    Scheduler &sched = dep->scheduler();
    NetStack &client = dep->clientStack();
    std::uint32_t ip = dep->serverStack().ip();
    server.emplace(dep->libc(), redisPort);
    server->start();

    std::uint32_t preloadSpan =
        spanBegin(tr, "preload", setupSpan, mach.wallCycles());
    std::uint64_t preloadKeys = 0;
    for (const auto &slice : in.preload)
        preloadKeys += slice.size();
    bool preloaded = false;
    std::uint64_t preloadOk = 0;
    Thread *loader = sched.spawn("bench-preload", [&] {
        TcpSocket *s = client.connect(ip, redisPort);
        if (!s)
            return;
        for (unsigned c = 0; c < connections; ++c) {
            for (std::uint32_t k = 0; k < in.preload[c].size(); ++k) {
                std::string cmd = RespParser::command(
                    {"SET", keyName(c, k), in.preload[c][k]});
                s->send(cmd.data(), cmd.size());
            }
        }
        std::string rx;
        for (std::uint64_t i = 0; i < preloadKeys; ++i) {
            std::string reply = readReply(s, rx);
            if (reply != "+OK\r\n")
                break;
            ++preloadOk;
        }
        s->close();
        preloaded = true;
    });
    loader->freeRunning = true; // client cycles are not charged
    sched.runUntil([&] { return preloaded; }, switchBudget(preloadKeys));
    if (preloadOk != preloadKeys)
        fail(rep, "redis preload: " + std::to_string(preloadOk) + " of " +
                      std::to_string(preloadKeys) + " SETs acknowledged");
    spanEnd(tr, preloadSpan, mach.wallCycles());
    spanEnd(tr, setupSpan, mach.wallCycles());
    rep.setupS += cpuSeconds() - c0;

    // ---- timed phase
    std::uint32_t measureSpan =
        spanBegin(tr, "measure", parent, mach.wallCycles());
    std::uint64_t served0 = server->commandsServed();
    Snapshot before = snapshot(*dep);
    double m0 = cpuSeconds();
    std::uint64_t answered = 0, wrong = 0;
    unsigned done = 0;
    for (unsigned c = 0; c < connections; ++c) {
        Thread *t = sched.spawn("bench-redis-" + std::to_string(c), [&, c] {
            std::vector<std::string> shadow = in.preload[c];
            TcpSocket *s = client.connect(ip, redisPort);
            std::string rx;
            for (const RedisOp &op : in.ops[c]) {
                if (!s)
                    break;
                std::string key = keyName(c, op.key);
                std::string cmd =
                    op.set ? RespParser::command({"SET", key, op.value})
                           : RespParser::command({"GET", key});
                Cycles v0 = mach.wallCycles();
                std::uint32_t span = spanBegin(tr, "op", measureSpan, v0);
                s->send(cmd.data(), cmd.size());
                std::string reply = readReply(s, rx);
                Cycles v1 = mach.wallCycles();
                spanEnd(tr, span, v1);
                if (reply.empty())
                    break;
                ++answered;
                rep.latencyVcycles.push_back(v1 - v0);
                rep.payloadBytes += cmd.size() + reply.size();
                std::string want;
                if (op.set) {
                    shadow[op.key] = op.value;
                    want = RespParser::simpleString("OK");
                } else {
                    want = RespParser::bulkString(shadow[op.key]);
                }
                if (reply != want) {
                    ++wrong;
                    fail(rep, "redis " + cmd.substr(0, 40) +
                                  ": unexpected reply " +
                                  reply.substr(0, 40));
                }
            }
            if (s)
                s->close();
            else
                fail(rep, "redis connect refused");
            ++done;
        });
        t->freeRunning = true;
    }
    std::uint64_t requests = 0;
    for (const auto &ops : in.ops)
        requests += ops.size();
    sched.runUntil([&] { return done == connections; },
                   switchBudget(requests));
    double m1 = cpuSeconds();
    Snapshot after = snapshot(*dep);
    spanEnd(tr, measureSpan, after.wall);
    rep.measureS += m1 - m0;

    std::uint64_t served = server->commandsServed() - served0;
    if (answered != requests)
        fail(rep, "redis: " + std::to_string(answered) + " replies to " +
                      std::to_string(requests) + " requests");
    if (served != requests)
        fail(rep, "redis: server executed " + std::to_string(served) +
                      " of " + std::to_string(requests) + " requests");
    rep.attempted += requests;
    rep.failed += requests - answered + wrong;
    addDelta(totals, before, after);
    totals["commands_served"] += static_cast<double>(served);
    noteHotBoundary(rep, dep->image(), before, after);
    out.ops = requests;
    out.simSeconds = simSecondsBetween(mach, before, after);
    rep.cpuGhz = mach.timing.cpuGhz;

    std::uint32_t downSpan =
        spanBegin(tr, "teardown", parent, mach.wallCycles());
    server->stop();
    // Let the per-connection server fibers observe EOF and unwind.
    sched.runUntil([] { return false; }, 20'000);
    dep->stop();
    spanEnd(tr, downSpan, mach.wallCycles());
    dep.reset();
    return out;
}

void
redisMpk3(Rep &rep, std::uint64_t seed, double scale, Tracer *tr,
          std::uint32_t parent)
{
    RedisInputs in = makeRedisInputs(seed, scaled(redisKeysPerConn, scale),
                                     scaled(redisRequests, scale));
    Totals totals;
    RedisOutcome o = runRedis(redisMpk3Cfg, in, rep, totals, tr, parent);
    rep.simSeconds = o.simSeconds;
    rep.simOpsPerS = o.simSeconds > 0 ? o.ops / o.simSeconds : 0;
    rep.layer = layerCounts(totals, rep.attempted);
}

/**
 * The exploration use case: every Figure 6 point under a short
 * redis-mpk3-style load, then the safety poset and its safest points
 * within a budget. The whole sweep is the timed phase.
 */
void
redisSweep80(Rep &rep, std::uint64_t seed, double scale, Tracer *tr,
             std::uint32_t parent)
{
    double c0 = cpuSeconds();
    std::uint32_t enumSpan = spanBegin(tr, "explore.enumerate", parent, 0);
    std::vector<ConfigPoint> space = wayfinder::fig6Space();
    spanEnd(tr, enumSpan, 0);
    rep.enumerateS = cpuSeconds() - c0;

    Totals totals;
    double logSum = 0;
    std::uint64_t measured = 0;
    for (std::size_t i = 0; i < space.size(); ++i) {
        ConfigPoint &p = space[i];
        std::uint32_t pointSpan = spanBegin(tr, "point", parent, 0);
        RedisInputs in = makeRedisInputs(
            seed * 0x100000001b3ull + i, scaled(sweepKeysPerConn, scale),
            scaled(sweepRequests, scale));
        std::size_t errorsBefore = rep.errors.size();
        std::uint64_t failedBefore = rep.failed;
        RedisOutcome o =
            runRedis(wayfinder::toSafetyConfig(p, "libredis").toText(), in,
                     rep, totals, tr, pointSpan);
        spanEnd(tr, pointSpan, 0);
        p.perf = o.simSeconds > 0 ? o.ops / o.simSeconds : 0;
        rep.simSeconds += o.simSeconds;
        if (p.perf > 0 && rep.failed == failedBefore &&
            rep.errors.size() == errorsBefore) {
            logSum += std::log(p.perf);
            ++measured;
        }
    }
    if (measured != space.size())
        fail(rep, "sweep: measured " + std::to_string(measured) + " of " +
                      std::to_string(space.size()) + " points");
    rep.simOpsPerS =
        measured ? std::exp(logSum / static_cast<double>(measured)) : 0;

    double p0 = cpuSeconds();
    std::uint32_t posetSpan = spanBegin(tr, "explore.poset", parent, 0);
    SafetyPoset poset;
    double best = 0;
    for (const ConfigPoint &p : space) {
        poset.add(p);
        best = std::max(best, p.perf);
    }
    poset.buildEdges();
    double budget = sweepBudgetShare * best;
    std::vector<std::size_t> picks = poset.safestWithin(budget);
    spanEnd(tr, posetSpan, 0);
    rep.posetS = cpuSeconds() - p0;
    rep.measureS = cpuSeconds() - c0;

    if (picks.empty())
        fail(rep, "sweep: no configuration within budget");
    for (std::size_t a : picks) {
        if (poset.at(a).perf < budget)
            fail(rep, "sweep: pick " + std::to_string(a) + " misses budget");
        for (std::size_t b : picks) {
            SafetyOrder o = compareSafety(poset.at(a), poset.at(b));
            if (o == SafetyOrder::Less || o == SafetyOrder::Greater)
                fail(rep, "sweep: pick " + std::to_string(a) +
                              " and pick " + std::to_string(b) +
                              " are ordered");
        }
    }
    rep.layer = layerCounts(totals, rep.attempted);
}

// ---------------------------------------------------------------- iperf

void
iperfEpt2(Rep &rep, std::uint64_t seed, double scale, Tracer *tr,
          std::uint32_t parent)
{
    // Seeded stream: payload bytes from a 64 KiB pattern, written in
    // seeded chunk sizes (the segmentation the server sees).
    constexpr std::size_t patternBytes = 64 * 1024;
    Rng rng(seed);
    std::vector<char> pattern(2 * patternBytes);
    for (std::size_t i = 0; i < patternBytes; ++i)
        pattern[i] = pattern[i + patternBytes] =
            static_cast<char>(rng.next());
    std::uint64_t total = scaled(iperfBytes, scale);
    std::vector<std::size_t> chunks;
    for (std::uint64_t sent = 0; sent < total;) {
        std::size_t n = std::min<std::uint64_t>(rng.range(512, 16384),
                                                total - sent);
        chunks.push_back(n);
        sent += n;
    }
    // FNV-1a over the stream, the reference for what arrives.
    auto fnv = [](std::uint64_t h, const char *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ static_cast<unsigned char>(p[i])) * 0x100000001b3ull;
        return h;
    };
    constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ull;
    std::uint64_t want = fnvBasis;
    for (std::uint64_t off = 0; off < total;) {
        std::size_t n = std::min<std::uint64_t>(patternBytes, total - off);
        want = fnv(want, pattern.data(), n);
        off += n;
    }

    double c0 = cpuSeconds();
    std::uint32_t setupSpan = spanBegin(tr, "setup", parent, 0);
    DeployOptions opts;
    opts.withFs = false;
    std::unique_ptr<Deployment> dep =
        build(iperfEpt2Cfg, opts, rep, tr, setupSpan);
    Machine &mach = dep->machine();
    Scheduler &sched = dep->scheduler();
    LibcApi &libc = dep->libc();
    Image &img = dep->image();

    // Preload: the flow's connection is established before timing.
    std::uint32_t preloadSpan =
        spanBegin(tr, "preload", setupSpan, mach.wallCycles());
    TcpSocket *conn = nullptr;
    TcpSocket *peer = nullptr;
    bool connected = false;
    img.spawnIn("libiperf", "bench-iperf-accept", [&] {
        conn = libc.accept(libc.listen(iperfPort));
    });
    Thread *dialer = sched.spawn("bench-iperf-connect", [&] {
        peer = dep->clientStack().connect(dep->serverStack().ip(),
                                          iperfPort);
        connected = true;
    });
    dialer->freeRunning = true;
    sched.runUntil([&] { return connected && conn; }, switchBudget(1));
    spanEnd(tr, preloadSpan, mach.wallCycles());
    spanEnd(tr, setupSpan, mach.wallCycles());
    rep.setupS += cpuSeconds() - c0;
    if (!conn || !peer) {
        fail(rep, "iperf: connection refused");
        rep.attempted = rep.failed = 1;
        return;
    }

    // ---- timed phase
    std::uint32_t measureSpan =
        spanBegin(tr, "measure", parent, mach.wallCycles());
    Snapshot before = snapshot(*dep);
    double m0 = cpuSeconds();
    std::uint64_t received = 0, recvs = 0;
    std::uint64_t got = fnvBasis;
    bool done = false;
    img.spawnIn("libiperf", "bench-iperf-server", [&] {
        std::vector<char> buf(iperfRecvBuf);
        for (;;) {
            Cycles v0 = mach.wallCycles();
            std::uint32_t span = spanBegin(tr, "op", measureSpan, v0);
            long n = libc.recv(conn, buf.data(), buf.size());
            Cycles v1 = mach.wallCycles();
            spanEnd(tr, span, v1);
            if (n <= 0)
                break;
            ++recvs;
            rep.latencyVcycles.push_back(v1 - v0);
            received += static_cast<std::uint64_t>(n);
            got = fnv(got, buf.data(), static_cast<std::size_t>(n));
        }
        libc.closeSocket(conn);
        done = true;
    });
    Thread *pump = sched.spawn("bench-iperf-client", [&] {
        std::uint64_t off = 0;
        for (std::size_t n : chunks) {
            if (peer->send(pattern.data() + off % patternBytes, n) < 0)
                break;
            off += n;
        }
        peer->close();
    });
    pump->freeRunning = true;
    sched.runUntil([&] { return done; }, switchBudget(total / 256));
    double m1 = cpuSeconds();
    Snapshot after = snapshot(*dep);
    spanEnd(tr, measureSpan, after.wall);
    rep.measureS += m1 - m0;

    rep.attempted = std::max<std::uint64_t>(recvs, 1);
    if (!done || received != total || got != want) {
        fail(rep, "iperf: delivered " + std::to_string(received) + " of " +
                      std::to_string(total) + " bytes" +
                      (got != want ? ", content differs" : ""));
        rep.failed = 1;
    }
    rep.payloadBytes = received;
    recordTimed(rep, *dep, before, after, recvs, recvs);

    std::uint32_t downSpan =
        spanBegin(tr, "teardown", parent, mach.wallCycles());
    dep->stop();
    spanEnd(tr, downSpan, mach.wallCycles());
}

// --------------------------------------------------------------- sqlite

std::string
insertSql(std::uint64_t id, const std::string &text)
{
    return "INSERT INTO t VALUES (" + std::to_string(id) + ", '" + text +
           "')";
}

void
sqliteMpk3(Rep &rep, std::uint64_t seed, double scale, Tracer *tr,
           std::uint32_t parent)
{
    Rng rng(seed);
    std::uint64_t preloadRows = scaled(sqlitePreloadRows, scale);
    std::uint64_t inserts = scaled(sqliteInserts, scale);
    std::vector<std::string> rows; // id i+1 -> payload
    for (std::uint64_t i = 0; i < preloadRows + inserts; ++i)
        rows.push_back(payload(rng, 16, 96));

    double c0 = cpuSeconds();
    std::uint32_t setupSpan = spanBegin(tr, "setup", parent, 0);
    DeployOptions opts;
    opts.withNet = false;
    opts.heapBytes = 8 * 1024 * 1024;
    std::unique_ptr<Deployment> dep =
        build(sqliteMpk3Cfg, opts, rep, tr, setupSpan);
    Machine &mach = dep->machine();
    Scheduler &sched = dep->scheduler();
    Image &img = dep->image();
    minisql::Database db(dep->libc(), "/bench.db");

    // Runs body in libsqlite's compartment to completion.
    auto inApp = [&](const char *name, std::uint64_t ops,
                     const std::function<void()> &body) {
        bool finished = false;
        img.spawnIn("libsqlite", name, [&] {
            body();
            finished = true;
        });
        sched.runUntil([&] { return finished; }, switchBudget(ops));
        return finished;
    };

    std::uint32_t preloadSpan =
        spanBegin(tr, "preload", setupSpan, mach.wallCycles());
    bool preloadOk = inApp("bench-sqlite-preload", preloadRows, [&] {
        db.open();
        bool ok = db.exec("CREATE TABLE t (id INTEGER, payload TEXT)").ok &&
                  db.exec("BEGIN").ok;
        for (std::uint64_t i = 0; ok && i < preloadRows; ++i)
            ok = db.exec(insertSql(i + 1, rows[i])).ok;
        if (!ok || !db.exec("COMMIT").ok)
            fail(rep, "sqlite: preload failed");
    });
    if (!preloadOk)
        fail(rep, "sqlite: preload stalled");
    spanEnd(tr, preloadSpan, mach.wallCycles());
    spanEnd(tr, setupSpan, mach.wallCycles());
    rep.setupS += cpuSeconds() - c0;

    // ---- timed phase: one transaction per INSERT
    std::uint32_t measureSpan =
        spanBegin(tr, "measure", parent, mach.wallCycles());
    Snapshot before = snapshot(*dep);
    double m0 = cpuSeconds();
    std::uint64_t committed = 0;
    inApp("bench-sqlite-insert", inserts, [&] {
        for (std::uint64_t i = preloadRows; i < rows.size(); ++i) {
            const std::string &text = rows[i];
            std::string sql = insertSql(i + 1, text);
            Cycles v0 = mach.wallCycles();
            std::uint32_t span = spanBegin(tr, "op", measureSpan, v0);
            minisql::Result r = db.exec(sql);
            Cycles v1 = mach.wallCycles();
            spanEnd(tr, span, v1);
            rep.latencyVcycles.push_back(v1 - v0);
            if (!r.ok) {
                fail(rep, "sqlite: " + r.error);
                continue;
            }
            ++committed;
            rep.payloadBytes += text.size();
        }
    });
    double m1 = cpuSeconds();
    Snapshot after = snapshot(*dep);
    spanEnd(tr, measureSpan, after.wall);
    rep.measureS += m1 - m0;

    // Read back the row count and a seeded sample of rows.
    std::uint32_t downSpan =
        spanBegin(tr, "teardown", parent, mach.wallCycles());
    inApp("bench-sqlite-verify", sqliteSampleRows, [&] {
        minisql::Result r = db.exec("SELECT COUNT(*) FROM t");
        auto count = static_cast<std::int64_t>(rows.size());
        if (!r.ok || r.rows.size() != 1 ||
            r.rows[0] != minisql::Row{minisql::Value(count)})
            fail(rep, "sqlite: row count differs from " +
                          std::to_string(count));
        for (unsigned k = 0; k < sqliteSampleRows; ++k) {
            std::uint64_t id = rng.range(1, rows.size());
            r = db.exec("SELECT * FROM t WHERE id = " + std::to_string(id));
            minisql::Row want{minisql::Value(static_cast<std::int64_t>(id)),
                              minisql::Value(rows[id - 1])};
            if (!r.ok || r.rows.size() != 1 || r.rows[0] != want)
                fail(rep, "sqlite: row " + std::to_string(id) +
                              " reads back wrong");
        }
        db.close();
    });
    spanEnd(tr, downSpan, mach.wallCycles());

    rep.attempted = inserts;
    rep.failed = inserts - committed;
    recordTimed(rep, *dep, before, after, inserts, committed);
}

const char *
configOf(const std::string &workload)
{
    if (workload == "iperf-ept2")
        return iperfEpt2Cfg;
    if (workload == "sqlite-mpk3")
        return sqliteMpk3Cfg;
    // redis-sweep80's probes use its safest partition, redis-mpk3's.
    return redisMpk3Cfg;
}

const char *
appLibOf(const std::string &workload)
{
    if (workload == "iperf-ept2")
        return "libiperf";
    if (workload == "sqlite-mpk3")
        return "libsqlite";
    return "libredis";
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "redis-mpk3", "iperf-ept2", "sqlite-mpk3", "redis-sweep80"};
    return names;
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool
sameModel(const Rep &a, const Rep &b)
{
    return a.attempted == b.attempted && a.failed == b.failed &&
           a.simSeconds == b.simSeconds && a.simOpsPerS == b.simOpsPerS &&
           a.payloadBytes == b.payloadBytes &&
           a.latencyVcycles == b.latencyVcycles && a.layer == b.layer &&
           a.errors == b.errors;
}

Rep
runRep(const std::string &workload, std::uint64_t seed, double scale,
       Tracer *tr, std::uint32_t parent)
{
    Rep rep;
    if (workload == "redis-mpk3")
        redisMpk3(rep, seed, scale, tr, parent);
    else if (workload == "iperf-ept2")
        iperfEpt2(rep, seed, scale, tr, parent);
    else if (workload == "sqlite-mpk3")
        sqliteMpk3(rep, seed, scale, tr, parent);
    else if (workload == "redis-sweep80")
        redisSweep80(rep, seed, scale, tr, parent);
    else
        fail(rep, "unknown workload " + workload);
    return rep;
}

std::map<std::string, double>
runProbes(const std::string &workload, const Rep &rep, Tracer &tr,
          std::uint32_t parent)
{
    constexpr int calls = 20000;
    constexpr int fsCalls = 2000;
    std::map<std::string, double> out;
    bool fs = workload == "sqlite-mpk3";
    DeployOptions opts;
    opts.withNet = !fs;
    opts.withFs = fs;
    Deployment dep(configOf(workload), opts);
    Machine &mach = dep.machine();
    Scheduler &sched = dep.scheduler();
    Image &img = dep.image();

    // Runs body as a fiber starting in lib's compartment and returns
    // its mean host ns and vcycles per call.
    auto timed = [&](std::string_view name, const std::string &lib,
                     int n, const std::function<void()> &body) {
        std::uint32_t span = 0;
        std::int64_t h0 = 0, h1 = 0;
        Cycles v0 = 0, v1 = 0;
        bool finished = false;
        img.spawnIn(lib, "bench-probe", [&] {
            v0 = mach.wallCycles();
            span = tr.begin(name, parent, v0);
            h0 = hostNs();
            for (int i = 0; i < n; ++i)
                body();
            h1 = hostNs();
            v1 = mach.wallCycles();
            tr.end(span, v1);
            finished = true;
        });
        sched.runUntil([&] { return finished; });
        return std::pair{static_cast<double>(h1 - h0) / n,
                         static_cast<double>(v1 - v0) / n};
    };

    if (!rep.hotCallee.empty()) {
        auto [ns, vc] = timed("probe.gate", rep.hotCaller, calls, [&] {
            img.gate(rep.hotCallee, rep.hotEntry.c_str(), [] {});
        });
        out["core.gate_host_ns"] = ns;
        out["core.gate_vcycles"] = vc;
    }

    // Two fibers yielding to each other: every yield is one switch.
    {
        std::uint64_t s0 = sched.switches();
        std::uint32_t span =
            tr.begin("probe.switch", parent, mach.wallCycles());
        std::int64_t h0 = hostNs();
        for (int f = 0; f < 2; ++f)
            sched.spawn("bench-pingpong", [&] {
                for (int i = 0; i < calls / 2; ++i)
                    sched.yield();
            });
        sched.run();
        std::int64_t h1 = hostNs();
        tr.end(span, mach.wallCycles());
        out["uksched.switch_host_ns"] =
            static_cast<double>(h1 - h0) /
            static_cast<double>(std::max<std::uint64_t>(
                sched.switches() - s0, 1));
    }

    const std::string appLib = appLibOf(workload);
    out["machine.bump_host_ns"] =
        timed("probe.bump", appLib, calls,
              [&] { mach.bump("gate.direct"); })
            .first;
    Allocator &heap = img.heapOf(appLib);
    out["ukalloc.alloc_free_host_ns"] =
        timed("probe.alloc_free", appLib, calls,
              [&] { heap.free(heap.alloc(64)); })
            .first;

    out["vfs.pwrite_fsync_host_ns"] = 0;
    if (fs) {
        LibcApi &libc = dep.libc();
        std::vector<char> block(4096, 'p');
        int fd = -1;
        timed("probe.open", "libsqlite", 1,
              [&] { fd = libc.open("/probe.dat", oRdWr | oCreat); });
        std::uint64_t off = 0;
        out["vfs.pwrite_fsync_host_ns"] =
            timed("probe.pwrite_fsync", "libsqlite", fsCalls, [&] {
                libc.pwrite(fd, block.data(), block.size(),
                            off % (64 * block.size()));
                off += block.size();
                libc.fsync(fd);
            }).first;
    }
    return out;
}

} // namespace perfbench
