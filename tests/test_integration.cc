/**
 * @file
 * Whole-image integration tests: complete deployments (machine + image
 * + network + filesystem + workloads) under every backend, checking
 * the paper's cross-cutting invariants — zero-cost flexibility, actual
 * isolation enforcement end-to-end, backend interchangeability, and
 * the exploration machinery over real measurements.
 */

#include <gtest/gtest.h>

#include "apps/deploy.hh"
#include "apps/http.hh"
#include "apps/iperf.hh"
#include "apps/minisql.hh"
#include "apps/redis.hh"
#include "explore/wayfinder.hh"

namespace flexos {
namespace {

std::string
redisConfig(const char *mech)
{
    return std::string(R"(
compartments:
- c1:
    mechanism: )") + mech + R"(
    default: True
- c2:
    mechanism: )" + mech + R"(
libraries:
- libredis: c1
- newlib: c1
- uksched: c1
- uktime: c1
- lwip: c2
)";
}

/** Run one Redis GET benchmark on a config; returns req/s. */
double
redisThroughput(const std::string &cfg, std::uint64_t requests = 300)
{
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(cfg, opts);
    dep.start();
    double out = runRedisGetBenchmark(dep.image(), dep.libc(),
                                      dep.clientStack(), requests, 1, 32)
                     .requestsPerSec;
    dep.stop();
    return out;
}

// -------------------------------------------------- flexibility claims

TEST(Integration, OnlyPayForWhatYouGet)
{
    // P4: FlexOS with the NONE backend performs as the rigid baseline —
    // the flexibility machinery itself adds nothing at runtime.
    double none1 = redisThroughput(R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libredis: all
- newlib: all
- uksched: all
- uktime: all
- lwip: all
)");
    double none2 = redisThroughput(R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libredis: all
- newlib: all
- uksched: all
- uktime: all
- lwip: all
)");
    EXPECT_DOUBLE_EQ(none1, none2); // deterministic simulation
}

TEST(Integration, MechanismStrengthOrdersThroughput)
{
    // Same compartmentalization, stronger mechanisms, lower throughput.
    double none = redisThroughput(redisConfig("none"));
    double mpk = redisThroughput(redisConfig("intel-mpk"));
    double ept = redisThroughput(redisConfig("vm-ept"));
    EXPECT_GT(none, mpk);
    EXPECT_GT(mpk, ept);
    // And the overheads stay in a sane band (not orders of magnitude).
    EXPECT_GT(ept, none / 10);
}

TEST(Integration, RedisWorksIdenticallyUnderEveryBackend)
{
    // Backend interchangeability (P2): the same workload produces the
    // same *answers* regardless of the isolation mechanism.
    for (const char *mech : {"none", "intel-mpk", "vm-ept", "cheri"}) {
        DeployOptions opts;
        opts.withFs = false;
        Deployment dep(redisConfig(mech), opts);
        dep.start();
        RedisServer server(dep.libc(), 6379);
        server.start();

        std::string reply;
        Thread *cli = dep.scheduler().spawn("cli", [&] {
            TcpSocket *s =
                dep.clientStack().connect(makeIp(10, 0, 0, 1), 6379);
            std::string wire =
                RespParser::command({"SET", "k", mech}) +
                RespParser::command({"INCR", "ctr"}) +
                RespParser::command({"GET", "k"});
            s->send(wire.data(), wire.size());
            char buf[256];
            while (reply.find(mech) == std::string::npos ||
                   reply.find(":1") == std::string::npos) {
                long n = s->recv(buf, sizeof(buf));
                if (n <= 0)
                    break;
                reply.append(buf, static_cast<std::size_t>(n));
            }
            s->close();
        });
        cli->freeRunning = true;
        ASSERT_TRUE(dep.scheduler().runUntil(
            [&] {
                return reply.find(mech) != std::string::npos &&
                       reply.find(":1") != std::string::npos;
            },
            50'000'000))
            << mech;
        server.stop();
        dep.stop();
    }
}

// ----------------------------------------------- end-to-end enforcement

TEST(Integration, CrossCompartmentSnoopingFaultsUnderMpkAndEpt)
{
    for (const char *mech : {"intel-mpk", "vm-ept"}) {
        DeployOptions opts;
        opts.withNet = false;
        opts.withFs = false;
        Deployment dep(redisConfig(mech), opts);

        bool faulted = false;
        bool done = false;
        dep.image().spawnIn("libredis", "attacker", [&] {
            int *lwipSecret = nullptr;
            dep.image().gate("lwip", "recv", [&] {
                lwipSecret = static_cast<int *>(
                    dep.image().heapOf("lwip").alloc(8));
                dep.image().store(lwipSecret, 7);
            });
            try {
                dep.image().load(lwipSecret);
            } catch (const ProtectionFault &) {
                faulted = true;
            }
            done = true;
        });
        dep.scheduler().runUntil([&] { return done; });
        EXPECT_TRUE(faulted) << mech;
        dep.image().shutdown();
    }
}

TEST(Integration, NoneBackendDoesNotFault)
{
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    Deployment dep(redisConfig("none"), opts);
    bool done = false;
    int seen = 0;
    dep.image().spawnIn("libredis", "reader", [&] {
        auto *p =
            static_cast<int *>(dep.image().heapOf("lwip").alloc(8));
        dep.image().store(p, 9);
        seen = dep.image().load(p);
        done = true;
    });
    dep.scheduler().runUntil([&] { return done; });
    EXPECT_EQ(seen, 9);
}

// ------------------------------------------------ SQLite across backends

TEST(Integration, SqliteMpk3ProducesSameRowsAsNone)
{
    auto runSql = [](const char *mech, int comps) {
        std::string cfg = "compartments:\n- c1:\n    mechanism: " +
                          std::string(mech) +
                          "\n    default: True\n";
        if (comps >= 2)
            cfg += "- c2:\n    mechanism: " + std::string(mech) + "\n";
        if (comps >= 3)
            cfg += "- c3:\n    mechanism: " + std::string(mech) + "\n";
        cfg += "libraries:\n- libsqlite: c1\n- newlib: c1\n"
               "- uksched: c1\n";
        cfg += std::string("- vfscore: ") + (comps >= 2 ? "c2" : "c1") +
               "\n";
        cfg += std::string("- uktime: ") + (comps >= 3 ? "c3" : "c1") +
               "\n";

        DeployOptions opts;
        opts.withNet = false;
        Deployment dep(cfg, opts);
        std::int64_t sum = -1;
        bool done = false;
        dep.image().spawnIn("libsqlite", "sql", [&] {
            minisql::Database db(dep.libc(), "/t.db");
            db.open();
            db.exec("CREATE TABLE t (v INTEGER)");
            for (int i = 1; i <= 40; ++i)
                db.exec("INSERT INTO t VALUES (" + std::to_string(i) +
                        ")");
            auto r = db.exec("SELECT * FROM t");
            sum = 0;
            for (const auto &row : r.rows)
                sum += std::get<std::int64_t>(row[0]);
            db.close();
            done = true;
        });
        dep.scheduler().runUntil([&] { return done; }, 50'000'000);
        return sum;
    };

    std::int64_t expect = 40 * 41 / 2;
    EXPECT_EQ(runSql("none", 1), expect);
    EXPECT_EQ(runSql("intel-mpk", 3), expect);
    EXPECT_EQ(runSql("vm-ept", 2), expect);
    EXPECT_EQ(runSql("sel4-ipc", 3), expect);
}

// ------------------------------------------------- hardening end-to-end

TEST(Integration, HardeningMonotonicallyCostsThroughput)
{
    // Poset axiom the exploration relies on: along a safety-increasing
    // path, measured performance does not increase.
    auto space = wayfinder::fig6Space();
    // Fixed partition C (lwip split), increasing hardening chain:
    // none -> app -> app+lwip -> app+lwip+sched -> all.
    std::vector<unsigned> masks = {0x0, 0x1, 0x9, 0xd, 0xf};
    double prev = 1e18;
    for (unsigned mask : masks) {
        ConfigPoint p = wayfinder::basePoint({0, 0, 0, 1});
        for (unsigned c = 0; c < 4; ++c)
            p.hardening[c] =
                (mask >> c) & 1 ? wayfinder::fig6Hardening : 0;
        double perf = wayfinder::measureRedis(p, 250);
        EXPECT_LT(perf, prev) << "mask " << mask;
        prev = perf;
    }
}

TEST(Integration, GateCountersMatchCommunicationPattern)
{
    DeployOptions opts;
    opts.withFs = false;
    Deployment dep(redisConfig("intel-mpk"), opts);
    dep.start();
    runRedisGetBenchmark(dep.image(), dep.libc(), dep.clientStack(),
                         100, 1, 16);
    // app->lwip crossings: at least one per request (recv), and the
    // reverse direction (returns are part of the same gate, so no
    // separate (1,0) record unless lwip calls out).
    auto crossings = dep.image().gateCrossings();
    auto it = crossings.find({0, 1});
    ASSERT_NE(it, crossings.end());
    EXPECT_GE(it->second, 100u);
    dep.stop();
}

TEST(Integration, LinkerScriptCoversEveryCompartment)
{
    DeployOptions opts;
    opts.withNet = false;
    opts.withFs = false;
    Deployment dep(redisConfig("intel-mpk"), opts);
    std::string script = dep.image().linkerScript();
    EXPECT_NE(script.find(".text.c1"), std::string::npos);
    EXPECT_NE(script.find(".heap.c2"), std::string::npos);
    EXPECT_NE(script.find("shared"), std::string::npos);
    EXPECT_NE(script.find("pkey"), std::string::npos);
}

TEST(Integration, HttpAndRedisCoexistInOneImage)
{
    // Two applications, three compartments, one image.
    Deployment dep(R"(
compartments:
- apps:
    mechanism: intel-mpk
    default: True
- net:
    mechanism: intel-mpk
- fs:
    mechanism: intel-mpk
libraries:
- libredis: apps
- libnginx: apps
- newlib: apps
- uksched: apps
- uktime: apps
- lwip: net
- vfscore: fs
)");
    dep.writeFile("/www/index.html", "coexistence");
    dep.start();
    RedisServer redis(dep.libc(), 6379);
    redis.start();
    HttpServer http(dep.libc(), "/www", 80);
    http.start();

    std::string redisReply, httpReply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *r =
            dep.clientStack().connect(makeIp(10, 0, 0, 1), 6379);
        std::string wire = RespParser::command({"PING"});
        r->send(wire.data(), wire.size());
        char buf[512];
        long n = r->recv(buf, sizeof(buf));
        redisReply.assign(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
        r->close();

        TcpSocket *h = dep.clientStack().connect(makeIp(10, 0, 0, 1), 80);
        std::string req = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        h->send(req.data(), req.size());
        while (httpReply.find("coexistence") == std::string::npos) {
            n = h->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            httpReply.append(buf, static_cast<std::size_t>(n));
        }
        h->close();
    });
    cli->freeRunning = true;
    ASSERT_TRUE(dep.scheduler().runUntil(
        [&] {
            return !redisReply.empty() &&
                   httpReply.find("coexistence") != std::string::npos;
        },
        100'000'000));
    EXPECT_NE(redisReply.find("PONG"), std::string::npos);
    EXPECT_NE(httpReply.find("200 OK"), std::string::npos);
    redis.stop();
    http.stop();
    dep.stop();
}

TEST(Integration, DeterministicAcrossRuns)
{
    // The whole stack is deterministic: identical configs produce
    // identical cycle counts — the property the exploration relies on
    // for comparable measurements.
    double a = redisThroughput(redisConfig("intel-mpk"), 150);
    double b = redisThroughput(redisConfig("intel-mpk"), 150);
    EXPECT_DOUBLE_EQ(a, b);
}

} // namespace
} // namespace flexos
