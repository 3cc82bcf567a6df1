/**
 * @file
 * Application-level and integration tests: RESP/Redis, HTTP/Nginx,
 * minisql (SQL, B+tree, transactions, crash recovery), iPerf — each
 * running end-to-end inside FlexOS images under different isolation
 * configurations.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>

#include "apps/deploy.hh"
#include "apps/http.hh"
#include "apps/iperf.hh"
#include "apps/minisql.hh"
#include "apps/redis.hh"
#include "base/rng.hh"

namespace flexos {
namespace {

const char *redisMpk2 = R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libredis: comp1
- newlib: comp1
- uksched: comp1
- uktime: comp1
- lwip: comp2
)";

const char *noneConfigAllApps = R"(
compartments:
- all:
    mechanism: none
    default: True
libraries:
- libredis: all
- libnginx: all
- libsqlite: all
- libiperf: all
- newlib: all
- uksched: all
- uktime: all
- lwip: all
- vfscore: all
)";

// ----------------------------------------------------------------- RESP

TEST(Resp, ParsesPipelinedCommands)
{
    RespParser p;
    std::string wire = RespParser::command({"SET", "k", "v"}) +
                       RespParser::command({"GET", "k"});
    p.feed(wire.data(), wire.size());
    auto c1 = p.next();
    auto c2 = p.next();
    ASSERT_TRUE(c1 && c2);
    EXPECT_EQ(*c1, (RespCommand{"SET", "k", "v"}));
    EXPECT_EQ(*c2, (RespCommand{"GET", "k"}));
    EXPECT_FALSE(p.next());
}

TEST(Resp, HandlesSplitFeeds)
{
    RespParser p;
    std::string wire = RespParser::command({"GET", "key:42"});
    for (char c : wire)
        p.feed(&c, 1);
    auto cmd = p.next();
    ASSERT_TRUE(cmd);
    EXPECT_EQ((*cmd)[1], "key:42");
}

TEST(Resp, RejectsGarbage)
{
    RespParser p;
    p.feed("HELLO\r\n", 7);
    EXPECT_TRUE(p.errored());
}

TEST(Resp, BinarySafeValues)
{
    RespParser p;
    std::string val("a\0b\r\nc", 6);
    std::string wire = RespParser::command({"SET", "k", val});
    p.feed(wire.data(), wire.size());
    auto cmd = p.next();
    ASSERT_TRUE(cmd);
    EXPECT_EQ((*cmd)[2], val);
}

TEST(RedisDictTest, SetGetDelete)
{
    RedisDict d(8);
    d.set("a", "1");
    d.set("b", "2");
    ASSERT_NE(d.get("a"), nullptr);
    EXPECT_EQ(*d.get("a"), "1");
    EXPECT_EQ(d.get("c"), nullptr);
    EXPECT_TRUE(d.del("a"));
    EXPECT_FALSE(d.del("a"));
    EXPECT_EQ(d.get("a"), nullptr);
    EXPECT_EQ(d.size(), 1u);
}

TEST(RedisDictTest, GrowsPastInitialCapacity)
{
    RedisDict d(8);
    for (int i = 0; i < 1000; ++i)
        d.set("key" + std::to_string(i), std::to_string(i));
    EXPECT_EQ(d.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        const std::string *v = d.get("key" + std::to_string(i));
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, std::to_string(i));
    }
}

TEST(RedisDictTest, OverwriteKeepsSize)
{
    RedisDict d;
    d.set("k", "1");
    d.set("k", "2");
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(*d.get("k"), "2");
}

// ----------------------------------------------------- Redis end-to-end

TEST(RedisServerTest, ServesGetSetOverTcpUnderMpk)
{
    Deployment dep(redisMpk2);
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();

    std::string reply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1),
                                                 6379);
        ASSERT_NE(s, nullptr);
        std::string wire = RespParser::command({"SET", "city", "lausanne"}) +
                           RespParser::command({"GET", "city"}) +
                           RespParser::command({"GET", "nothere"}) +
                           RespParser::command({"PING"});
        s->send(wire.data(), wire.size());
        char buf[512];
        while (reply.find("PONG") == std::string::npos) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        s->close();
    });
    cli->freeRunning = true;

    ASSERT_TRUE(dep.scheduler().runUntil(
        [&] { return reply.find("PONG") != std::string::npos; }));
    EXPECT_NE(reply.find("+OK"), std::string::npos);
    EXPECT_NE(reply.find("$8\r\nlausanne"), std::string::npos);
    EXPECT_NE(reply.find("$-1"), std::string::npos); // nil for missing
    EXPECT_GE(server.commandsServed(), 4u);
    // The isolation actually engaged: MPK gates were crossed.
    EXPECT_GT(dep.machine().counter("gate.mpk.dss"), 0u);
    server.stop();
    dep.stop();
}

TEST(RedisServerTest, IncrIsCheckedUnderUbsanHardening)
{
    std::string cfg = std::string(redisMpk2);
    // Harden the application component with ubsan.
    cfg.replace(cfg.find("- libredis: comp1"), 17,
                "- libredis: comp1 [ubsan]");
    Deployment dep(cfg);
    dep.start();
    RedisServer server(dep.libc(), 6379);
    server.start();

    std::string reply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1),
                                                 6379);
        std::string wire =
            RespParser::command(
                {"SET", "n", std::to_string(INT64_MAX)}) +
            RespParser::command({"INCR", "n"});
        s->send(wire.data(), wire.size());
        char buf[256];
        while (reply.find("\r\n-ERR") == std::string::npos &&
               reply.find("overflow") == std::string::npos) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        s->close();
    });
    cli->freeRunning = true;
    // The overflow must be *detected* (server replies with an error or
    // the worker records the violation), not silently wrap.
    dep.scheduler().runUntil(
        [&] { return reply.find("overflow") != std::string::npos; },
        2'000'000);
    EXPECT_NE(reply.find("overflow"), std::string::npos);
    server.stop();
    dep.stop();
}

TEST(RedisBenchmark, ProducesThroughput)
{
    Deployment dep(noneConfigAllApps);
    dep.start();
    RedisBenchmarkResult res =
        runRedisGetBenchmark(dep.image(), dep.libc(), dep.clientStack(),
                             500, 8, 50);
    EXPECT_EQ(res.requests, 500u);
    EXPECT_GT(res.requestsPerSec, 10'000.0);
    dep.stop();
}

TEST(RedisBenchmark, IsolationCostsThroughput)
{
    double baseline, isolated;
    {
        Deployment dep(noneConfigAllApps);
        dep.start();
        baseline = runRedisGetBenchmark(dep.image(), dep.libc(),
                                        dep.clientStack(), 400, 8, 50)
                       .requestsPerSec;
        dep.stop();
    }
    {
        Deployment dep(redisMpk2);
        dep.start();
        isolated = runRedisGetBenchmark(dep.image(), dep.libc(),
                                        dep.clientStack(), 400, 8, 50)
                       .requestsPerSec;
        dep.stop();
    }
    EXPECT_LT(isolated, baseline);
    EXPECT_GT(isolated, baseline * 0.3); // but not catastrophic
}

// ------------------------------------------------------------------ HTTP

TEST(Http, ParserHandlesKeepAliveAndClose)
{
    HttpParser p;
    std::string wire = "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
                       "GET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
    p.feed(wire.data(), wire.size());
    auto r1 = p.next();
    auto r2 = p.next();
    ASSERT_TRUE(r1 && r2);
    EXPECT_EQ(r1->path, "/a");
    EXPECT_TRUE(r1->keepAlive);
    EXPECT_EQ(r2->path, "/b");
    EXPECT_FALSE(r2->keepAlive);
}

TEST(Http, ParserRejectsMalformedRequestLine)
{
    HttpParser p;
    p.feed("NOT-HTTP\r\n\r\n", 12);
    EXPECT_TRUE(p.errored());
}

TEST(HttpServerTest, ServesFilesFromRamfs)
{
    Deployment dep(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libnginx: comp1
- newlib: comp1
- uksched: comp1
- lwip: comp2
- vfscore: comp2
)");
    dep.writeFile("/www/index.html", "<h1>flexos</h1>");
    dep.start();
    HttpServer server(dep.libc(), "/www", 80);
    server.start();

    std::string reply;
    Thread *cli = dep.scheduler().spawn("cli", [&] {
        TcpSocket *s = dep.clientStack().connect(makeIp(10, 0, 0, 1), 80);
        std::string req = "GET / HTTP/1.1\r\nHost: t\r\n\r\n"
                          "GET /missing HTTP/1.1\r\nHost: t\r\n\r\n"
                          "GET /../etc HTTP/1.1\r\nHost: t\r\n\r\n";
        s->send(req.data(), req.size());
        char buf[1024];
        while (reply.find("403") == std::string::npos) {
            long n = s->recv(buf, sizeof(buf));
            if (n <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
        s->close();
    });
    cli->freeRunning = true;
    ASSERT_TRUE(dep.scheduler().runUntil(
        [&] { return reply.find("403") != std::string::npos; }));
    EXPECT_NE(reply.find("200 OK"), std::string::npos);
    EXPECT_NE(reply.find("<h1>flexos</h1>"), std::string::npos);
    EXPECT_NE(reply.find("404 Not Found"), std::string::npos);
    EXPECT_NE(reply.find("403 Forbidden"), std::string::npos);
    server.stop();
    dep.stop();
}

TEST(HttpBenchmark, ProducesThroughput)
{
    Deployment dep(noneConfigAllApps);
    dep.writeFile("/www/index.html", std::string(512, 'x'));
    dep.start();
    HttpBenchmarkResult res = runHttpBenchmark(
        dep.image(), dep.libc(), dep.clientStack(), 300);
    EXPECT_EQ(res.requests, 300u);
    EXPECT_GT(res.requestsPerSec, 10'000.0);
    dep.stop();
}

// --------------------------------------------------------------- minisql

const char *sqlMpk2 = R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libsqlite: comp1
- newlib: comp1
- uksched: comp1
- uktime: comp1
- vfscore: comp2
)";

struct SqlFixture : ::testing::Test
{
    SqlFixture() : dep(sqlMpk2, DeployOptions{.withNet = false}) {}

    /** Run body inside libsqlite's compartment and wait for it. */
    void
    inApp(std::function<void()> body)
    {
        bool done = false;
        dep.image().spawnIn("libsqlite", "sql", [&] {
            body();
            done = true;
        });
        ASSERT_TRUE(dep.scheduler().runUntil([&] { return done; }));
    }

    Deployment dep;
};

TEST_F(SqlFixture, CreateInsertSelect)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/test.db");
        db.open();
        auto r = db.exec("CREATE TABLE t (id INTEGER, name TEXT)");
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(db.exec("INSERT INTO t VALUES (1, 'ada')").ok);
        ASSERT_TRUE(db.exec("INSERT INTO t VALUES (2, 'grace')").ok);

        r = db.exec("SELECT * FROM t");
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.rows.size(), 2u);
        EXPECT_EQ(minisql::valueToString(r.rows[0][1]), "ada");
        EXPECT_EQ(minisql::valueToString(r.rows[1][1]), "grace");

        r = db.exec("SELECT * FROM t WHERE name = 'grace'");
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.rows.size(), 1u);
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 2);

        r = db.exec("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 2);
        db.close();
    });
}

TEST_F(SqlFixture, ErrorsAreReportedNotFatal)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/e.db");
        db.open();
        EXPECT_FALSE(db.exec("SELECT * FROM missing").ok);
        EXPECT_FALSE(db.exec("DROP TABLE x").ok);
        EXPECT_FALSE(db.exec("INSERT INTO nowhere VALUES (1)").ok);
        db.exec("CREATE TABLE t (a INTEGER)");
        EXPECT_FALSE(db.exec("CREATE TABLE t (a INTEGER)").ok);
        EXPECT_FALSE(db.exec("INSERT INTO t VALUES (1, 2)").ok);
        db.close();
    });
}

TEST_F(SqlFixture, DataPersistsAcrossReopen)
{
    inApp([&] {
        {
            minisql::Database db(dep.libc(), "/p.db");
            db.open();
            db.exec("CREATE TABLE kv (k TEXT, v INTEGER)");
            for (int i = 0; i < 50; ++i)
                db.exec("INSERT INTO kv VALUES ('key" +
                        std::to_string(i) + "', " + std::to_string(i) +
                        ")");
            db.close();
        }
        minisql::Database db(dep.libc(), "/p.db");
        db.open();
        auto r = db.exec("SELECT COUNT(*) FROM kv");
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 50);
        r = db.exec("SELECT * FROM kv WHERE k = 'key7'");
        ASSERT_EQ(r.rows.size(), 1u);
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][1]), 7);
        db.close();
    });
}

TEST_F(SqlFixture, ExplicitTransactionRollback)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/txn.db");
        db.open();
        db.exec("CREATE TABLE t (x INTEGER)");
        db.exec("INSERT INTO t VALUES (1)");

        ASSERT_TRUE(db.exec("BEGIN").ok);
        db.exec("INSERT INTO t VALUES (2)");
        db.exec("INSERT INTO t VALUES (3)");
        ASSERT_TRUE(db.exec("ROLLBACK").ok);

        auto r = db.exec("SELECT COUNT(*) FROM t");
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 1);

        ASSERT_TRUE(db.exec("BEGIN").ok);
        db.exec("INSERT INTO t VALUES (2)");
        ASSERT_TRUE(db.exec("COMMIT").ok);
        r = db.exec("SELECT COUNT(*) FROM t");
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 2);
        db.close();
    });
}

TEST_F(SqlFixture, BtreeSurvivesManyInsertsAndSplits)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/big.db");
        db.open();
        db.exec("CREATE TABLE t (n INTEGER, tag TEXT)");
        const int rows = 500; // forces multiple leaf + inner splits
        for (int i = 0; i < rows; ++i) {
            auto r = db.exec("INSERT INTO t VALUES (" +
                             std::to_string(i) + ", 'row" +
                             std::to_string(i) + "')");
            ASSERT_TRUE(r.ok) << i << ": " << r.error;
        }
        auto r = db.exec("SELECT COUNT(*) FROM t");
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), rows);

        // Scan order must be rowid order.
        r = db.exec("SELECT * FROM t");
        ASSERT_EQ(r.rows.size(), static_cast<std::size_t>(rows));
        for (int i = 0; i < rows; ++i)
            EXPECT_EQ(std::get<std::int64_t>(r.rows[i][0]), i);
        db.close();
    });
}

TEST_F(SqlFixture, HotJournalRecoveryRestoresPreCrashState)
{
    inApp([&] {
        // Simulate a crash mid-transaction: journal the pre-image of a
        // page, scribble on the database, and "crash" without commit.
        {
            minisql::Database db(dep.libc(), "/crash.db");
            db.open();
            db.exec("CREATE TABLE t (x INTEGER)");
            db.exec("INSERT INTO t VALUES (42)");
            db.close();
        }
        {
            // Open a raw pager and leave a hot journal behind.
            minisql::Pager pager(dep.libc(), "/crash.db");
            pager.open();
            pager.begin();
            auto &page = pager.getMutable(0);
            page.fill(0xff); // corrupt the catalog in the cache...
            // ...and push it to disk, as a crashed writer could have.
            pager.commitDirtyForTest();
        }
        // Reopening must roll back from the journal: data intact.
        minisql::Database db(dep.libc(), "/crash.db");
        db.open();
        auto r = db.exec("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 1);
        db.close();
    });
}

TEST_F(SqlFixture, EachAutoCommitInsertWritesAndDropsJournal)
{
    inApp([&] {
        minisql::Database db(dep.libc(), "/j.db");
        db.open();
        db.exec("CREATE TABLE t (x INTEGER)");
        std::uint64_t before =
            dep.machine().counter("vfs.ops");
        db.exec("INSERT INTO t VALUES (1)");
        std::uint64_t after = dep.machine().counter("vfs.ops");
        // journal open+write+fsync+close + page writes + db fsync +
        // journal unlink: a filesystem-intensive transaction.
        EXPECT_GE(after - before, 8u);
        VfsStat st;
        EXPECT_EQ(dep.vfs().stat("/j.db-journal", st), vfsNotFound);
        db.close();
    });
}

// ------------------------------------------------- pager differential

/**
 * The pager as minisql first shipped it: a `std::map` page cache whose
 * every flush walks all cached pages for dirty ones. Kept verbatim in
 * behaviour as the oracle for the production pager, which must leave
 * the same files, vcycles and ramfs counts after every step.
 */
class ReferencePager
{
  public:
    using PageBuf = minisql::Pager::PageBuf;

    ReferencePager(LibcApi &libcApi, std::string dbPath)
        : libc(libcApi), path(std::move(dbPath)),
          journalPath(path + "-journal")
    {
    }

    ~ReferencePager()
    {
        if (fd >= 0)
            close();
    }

    void
    open()
    {
        VfsStat st;
        bool haveJournal = libc.stat(journalPath, st) == vfsOk;
        fd = libc.open(path, oCreat | oRdWr);
        if (haveJournal) {
            int jfd = libc.open(journalPath, oRdOnly);
            if (jfd >= 0) {
                std::uint8_t hdr[8];
                std::uint64_t off = 0;
                while (libc.pread(jfd, hdr, 8, off) == 8) {
                    std::uint32_t id;
                    std::memcpy(&id, hdr, 4);
                    PageBuf buf;
                    if (libc.pread(jfd, buf.data(), minisql::pageSize,
                                   off + 8) !=
                        static_cast<long>(minisql::pageSize))
                        break;
                    libc.pwrite(fd, buf.data(), minisql::pageSize,
                                std::uint64_t{id} * minisql::pageSize);
                    off += 8 + minisql::pageSize;
                }
                libc.close(jfd);
                libc.fsync(fd);
            }
            libc.unlink(journalPath);
        }
        VfsStat dbSt;
        libc.stat(path, dbSt);
        nPages = static_cast<std::uint32_t>(dbSt.size / minisql::pageSize);
    }

    void
    close()
    {
        if (inTxn)
            rollback();
        for (auto &[id, page] : cache)
            if (page->dirty)
                writeBack(id);
        cache.clear();
        libc.close(fd);
        fd = -1;
    }

    PageBuf &
    get(std::uint32_t id)
    {
        auto it = cache.find(id);
        if (it == cache.end()) {
            auto page = std::make_unique<CachedPage>();
            libc.pread(fd, page->data.data(), minisql::pageSize,
                       std::uint64_t{id} * minisql::pageSize);
            it = cache.emplace(id, std::move(page)).first;
        }
        return it->second->data;
    }

    PageBuf &
    getMutable(std::uint32_t id)
    {
        PageBuf &buf = get(id);
        if (inTxn)
            journalPreImage(id);
        cache[id]->dirty = true;
        return buf;
    }

    std::uint32_t
    allocPage()
    {
        std::uint32_t id = nPages++;
        auto page = std::make_unique<CachedPage>();
        page->data.fill(0);
        page->dirty = true;
        cache.emplace(id, std::move(page));
        libc.pwrite(fd, cache[id]->data.data(), minisql::pageSize,
                    std::uint64_t{id} * minisql::pageSize);
        return id;
    }

    std::uint32_t pageCount() const { return nPages; }
    bool inTransaction() const { return inTxn; }

    void
    begin()
    {
        inTxn = true;
        preImages.clear();
    }

    void
    commit()
    {
        for (auto &[id, page] : cache)
            if (page->dirty)
                writeBack(id);
        libc.fsync(fd);
        libc.unlink(journalPath);
        preImages.clear();
        inTxn = false;
    }

    void
    commitDirtyForTest()
    {
        for (auto &[id, page] : cache)
            if (page->dirty)
                writeBack(id);
        preImages.clear();
        inTxn = false;
    }

    void
    rollback()
    {
        for (auto &[id, pre] : preImages) {
            cache[id]->data = pre;
            writeBack(id);
        }
        libc.fsync(fd);
        libc.unlink(journalPath);
        preImages.clear();
        inTxn = false;
    }

  private:
    void
    writeBack(std::uint32_t id)
    {
        libc.pwrite(fd, cache[id]->data.data(), minisql::pageSize,
                    std::uint64_t{id} * minisql::pageSize);
        cache[id]->dirty = false;
    }

    void
    journalPreImage(std::uint32_t id)
    {
        if (preImages.count(id))
            return;
        preImages[id] = get(id);
        int jfd = libc.open(journalPath, oCreat | oWrOnly | oAppend);
        std::uint8_t hdr[8] = {};
        std::memcpy(hdr, &id, 4);
        libc.write(jfd, hdr, 8);
        libc.write(jfd, preImages[id].data(), minisql::pageSize);
        libc.fsync(jfd);
        libc.close(jfd);
    }

    struct CachedPage
    {
        PageBuf data;
        bool dirty = false;
    };

    LibcApi &libc;
    std::string path;
    std::string journalPath;
    int fd = -1;
    std::uint32_t nPages = 0;
    std::map<std::uint32_t, std::unique_ptr<CachedPage>> cache;
    bool inTxn = false;
    std::map<std::uint32_t, PageBuf> preImages;
};

/** What the simulated machine looks like after one pager step. */
struct PagerStep
{
    std::string op;
    std::uint64_t readHash = 0; ///< bytes the step read, if any
    Cycles wall = 0;
    std::uint64_t ramfsOps = 0;
    long dbSize = -1;           ///< -1: file absent
    std::uint64_t dbHash = 0;
    long journalSize = -1;
    std::uint64_t journalHash = 0;

    bool operator==(const PagerStep &) const = default;
};

std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

/** Size and hash of a file, read straight from the VFS. */
void
fileImage(Vfs &vfs, const std::string &path, long &size, std::uint64_t &hash)
{
    VfsStat st;
    if (vfs.stat(path, st) != vfsOk)
        return;
    std::vector<std::uint8_t> bytes(st.size);
    int fd = vfs.open(path, oRdOnly);
    vfs.pread(fd, bytes.data(), bytes.size(), 0);
    vfs.close(fd);
    size = static_cast<long>(st.size);
    hash = fnv1a(bytes.data(), bytes.size());
}

/**
 * Drive pager type P through a seeded random script of begin, get,
 * getMutable, allocPage, commit, rollback, commitDirtyForTest, close
 * and reopen, recording the machine after every step. The script only
 * branches on what the pager reports (page count, transaction state),
 * so two pagers that behave alike see the same script.
 */
template <typename P>
std::vector<PagerStep>
runPagerScript(std::uint64_t seed, int steps)
{
    constexpr std::uint32_t maxPages = 24;
    const std::string dbPath = "/pager.db";
    Deployment dep(sqlMpk2, DeployOptions{.withNet = false});
    std::vector<PagerStep> trace;
    bool done = false;
    dep.image().spawnIn("libsqlite", "pager", [&] {
        Rng rng(seed);
        auto pager = std::make_unique<P>(dep.libc(), dbPath);
        pager->open();
        // Pages handed out since the last open: their addresses must
        // stay put, since the B-tree holds references across calls.
        std::vector<const typename P::PageBuf *> seen;
        auto fetched = [&](std::uint32_t id, auto &buf) -> auto & {
            if (seen.size() <= id)
                seen.resize(id + 1, nullptr);
            EXPECT_TRUE(!seen[id] || seen[id] == &buf)
                << "page " << id << " moved";
            seen[id] = &buf;
            return buf;
        };
        auto scribble = [&](typename P::PageBuf &buf) {
            for (int n = static_cast<int>(rng.range(1, 8)); n > 0; --n)
                buf[rng.below(minisql::pageSize)] =
                    static_cast<std::uint8_t>(rng.next());
        };
        for (int i = 0; i < steps; ++i) {
            PagerStep s;
            std::uint32_t pages = pager ? pager->pageCount() : 0;
            std::uint64_t pick = rng.below(100);
            if (!pager) {
                s.op = "reopen";
                pager = std::make_unique<P>(dep.libc(), dbPath);
                pager->open();
            } else if (pick < 12 && pages < maxPages) {
                s.op = "alloc " + std::to_string(pager->allocPage());
            } else if (pick < 12) {
                s.op = "full";
            } else if (pages == 0) {
                s.op = "empty";
            } else if (pick < 30) {
                std::uint32_t id = static_cast<std::uint32_t>(rng.below(pages));
                auto &buf = fetched(id, pager->get(id));
                s.op = "get " + std::to_string(id);
                s.readHash = fnv1a(buf.data(), buf.size());
            } else if (pick < 55) {
                std::uint32_t id = static_cast<std::uint32_t>(rng.below(pages));
                scribble(fetched(id, pager->getMutable(id)));
                s.op = "mutate " + std::to_string(id);
            } else if (pick < 62 && pages < maxPages) {
                // A B-tree split: hold a page, allocate its sibling,
                // then write through the older reference.
                std::uint32_t id = static_cast<std::uint32_t>(rng.below(pages));
                auto &left = fetched(id, pager->getMutable(id));
                std::uint32_t right = pager->allocPage();
                scribble(fetched(right, pager->getMutable(right)));
                scribble(left);
                s.op = "split " + std::to_string(id) + " " +
                       std::to_string(right);
            } else if (pick < 74) {
                if (pager->inTransaction()) {
                    s.op = "commit";
                    pager->commit();
                } else {
                    s.op = "begin";
                    pager->begin();
                }
            } else if (pick < 84 && pager->inTransaction()) {
                s.op = "rollback";
                pager->rollback();
            } else if (pick < 88 && pager->inTransaction()) {
                s.op = "crash-flush";
                pager->commitDirtyForTest();
            } else if (pick < 92) {
                s.op = "close";
                pager.reset();
                seen.clear();
            } else {
                s.op = "begin-or-nothing";
                if (!pager->inTransaction())
                    pager->begin();
            }
            s.wall = dep.machine().wallCycles();
            s.ramfsOps = dep.machine().counter(Counter::RamfsOps);
            // Reading the files costs vcycles and ramfs ops too, after
            // they are recorded and alike for pagers that behave alike.
            fileImage(dep.vfs(), dbPath, s.dbSize, s.dbHash);
            fileImage(dep.vfs(), dbPath + "-journal", s.journalSize,
                      s.journalHash);
            trace.push_back(std::move(s));
        }
        pager.reset();
        done = true;
    });
    EXPECT_TRUE(dep.scheduler().runUntil([&] { return done; }));
    return trace;
}

TEST(PagerDifferential, MatchesMapBasedReferenceUnderRandomScripts)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        auto want = runPagerScript<ReferencePager>(seed, 300);
        auto got = runPagerScript<minisql::Pager>(seed, 300);
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            const PagerStep &w = want[i], &g = got[i];
            ASSERT_EQ(w, g)
                << "seed " << seed << " step " << i << ": reference '"
                << w.op << "' wall " << w.wall << " ramfs " << w.ramfsOps
                << " db " << w.dbSize << " journal " << w.journalSize
                << "; pager '" << g.op << "' wall " << g.wall << " ramfs "
                << g.ramfsOps << " db " << g.dbSize << " journal "
                << g.journalSize;
        }
    }
}

TEST(SqlTokenizer, HandlesLiteralsAndPunctuation)
{
    auto toks = minisql::tokenize(
        "INSERT INTO t VALUES (1, 'two words', -3);");
    std::vector<std::string> expect{"INSERT", "INTO", "t",
                                    "VALUES", "(",    "1",
                                    ",",      "'two words",
                                    ",",      "-3",   ")",
                                    ";"};
    EXPECT_EQ(toks, expect);
}

// ----------------------------------------------------------------- iperf

TEST(Iperf, TransfersAllBytes)
{
    Deployment dep(noneConfigAllApps);
    dep.start();
    IperfResult res = runIperf(dep.image(), dep.libc(),
                               dep.clientStack(), 256 * 1024, 4096);
    EXPECT_EQ(res.bytes, 256u * 1024);
    EXPECT_GT(res.gbitPerSec, 0.01);
    dep.stop();
}

TEST(Iperf, MultiFlowAggregateHolds)
{
    double single;
    {
        Deployment dep(noneConfigAllApps);
        dep.start();
        single = runIperf(dep.image(), dep.libc(), dep.clientStack(),
                          128 * 1024, 8192)
                     .gbitPerSec;
        dep.stop();
    }
    Deployment dep(noneConfigAllApps);
    dep.start();
    IperfResult res = runIperfMulti(dep.image(), dep.libc(),
                                    dep.clientStack(), 128 * 1024, 8192,
                                    8);
    dep.stop();
    // All eight flows complete in full...
    EXPECT_EQ(res.flows, 8u);
    EXPECT_EQ(res.bytes, 8u * 128 * 1024);
    // ...and on the single simulated core the aggregate goodput holds
    // near the single-flow figure rather than collapsing under the
    // extra demux/accept work.
    EXPECT_GT(res.gbitPerSec, single * 0.7);
}

TEST(RedisBenchmark, MultiConnectionServesAllRequests)
{
    Deployment dep(noneConfigAllApps);
    dep.start();
    RedisBenchmarkResult res =
        runRedisGetBenchmark(dep.image(), dep.libc(), dep.clientStack(),
                             500, 8, 50, 6379, 8);
    EXPECT_EQ(res.requests, 500u);
    EXPECT_EQ(res.connections, 8u);
    EXPECT_GT(res.requestsPerSec, 10'000.0);
    dep.stop();
}

TEST(Iperf, LargerBuffersAreFaster)
{
    auto run = [](std::size_t bufSize) {
        Deployment dep(R"(
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
libraries:
- libiperf: comp1
- newlib: comp2
- uksched: comp2
- lwip: comp2
)");
        dep.start();
        IperfResult r = runIperf(dep.image(), dep.libc(),
                                 dep.clientStack(), 256 * 1024, bufSize);
        dep.stop();
        return r.gbitPerSec;
    };
    double small = run(64);
    double large = run(8192);
    EXPECT_GT(large, small); // batching amortizes the gate crossings
}

} // namespace
} // namespace flexos
