#include "apps/libc.hh"

#include "base/logging.hh"
#include "core/dss.hh"

namespace flexos {

LibcApi::LibcApi(Image &image, NetStack *netstack, Vfs *filesystem)
    : img(image), net(netstack), vfs(filesystem),
      newlibSocket(image.entry("newlib", "socket_call")),
      newlibFs(image.entry("newlib", "fs_call")),
      newlibTime(image.entry("newlib", "time_call")),
      lwipListen(image.entry("lwip", "listen")),
      lwipAccept(image.entry("lwip", "accept")),
      lwipConnect(image.entry("lwip", "connect")),
      lwipRecv(image.entry("lwip", "recv")),
      lwipSend(image.entry("lwip", "send")),
      lwipClose(image.entry("lwip", "close")),
      vfsOpen(image.entry("vfscore", "open")),
      vfsClose(image.entry("vfscore", "close")),
      vfsRead(image.entry("vfscore", "read")),
      vfsWrite(image.entry("vfscore", "write")),
      vfsPread(image.entry("vfscore", "pread")),
      vfsPwrite(image.entry("vfscore", "pwrite")),
      vfsLseek(image.entry("vfscore", "lseek")),
      vfsFsync(image.entry("vfscore", "fsync")),
      vfsFtruncate(image.entry("vfscore", "ftruncate")),
      vfsUnlink(image.entry("vfscore", "unlink")),
      vfsStat(image.entry("vfscore", "stat")),
      clockGettime(image.entry("uktime", "clock_gettime")),
      schedJoin(image.entry("uksched", "thread_join")),
      schedSleep(image.entry("uksched", "sleep")),
      schedYield(image.entry("uksched", "yield")),
      schedLock(image.entry("uksched", "mutex_lock")),
      schedUnlock(image.entry("uksched", "mutex_unlock"))
{
}

void
LibcApi::schedTouch(const GateSite &site)
{
    img.gate(site, [&] {
        consumeCycles(schedWork);
    });
}

TcpSocket *
LibcApi::listen(std::uint16_t port)
{
    panic_if(!net, "no network stack in this image");
    return img.gate(newlibSocket, [&] {
        consumeCycles(newlibWork);
        return img.gate(lwipListen, [&] { return net->listen(port); });
    });
}

TcpSocket *
LibcApi::accept(TcpSocket *listener)
{
    return img.gate(newlibSocket, [&] {
        consumeCycles(newlibWork);
        return img.gate(lwipAccept, [&] {
            if (listener->pendingAccepts() == 0)
                schedTouch(schedJoin); // block until a SYN arrives
            TcpSocket *s = listener->accept();
            schedTouch(schedYield); // wakeup path
            return s;
        });
    });
}

TcpSocket *
LibcApi::connect(std::uint32_t ip, std::uint16_t port)
{
    return img.gate(newlibSocket, [&] {
        consumeCycles(newlibWork);
        return img.gate(lwipConnect,
                        [&] { return net->connect(ip, port); });
    });
}

long
LibcApi::recv(TcpSocket *s, void *buf, std::size_t n)
{
    return img.gate(newlibSocket, [&] {
        consumeCycles(newlibWork);
        // Two stack variables cross the gate by reference (the length
        // and the status word) — `__shared` annotations in the port,
        // materialized per the configured stack-sharing strategy.
        DssFrame frame(img);
        long *sharedLen = frame.var<long>();
        int *sharedStatus = frame.var<int>();
        *frame.shadow(sharedLen) = static_cast<long>(n);
        *frame.shadow(sharedStatus) = 0;
        // Blocking happens at the application/libc level: the calling
        // thread parks in the scheduler until data arrives. (lwip does
        // not talk to the scheduler on this hot path — paper 6.1, the
        // "isolation for free" effect when grouping lwip with uksched.)
        if (s->available() == 0 && !s->peerHasClosed()) {
            schedTouch(schedSleep); // enqueue on the wait queue
            schedTouch(schedYield); // dispatch away
        }
        long got = img.gate(lwipRecv,
                            [&] { return s->recv(buf, n); });
        schedTouch(schedYield); // wakeup bookkeeping
        return got;
    });
}

long
LibcApi::send(TcpSocket *s, const void *buf, std::size_t n)
{
    return img.gate(newlibSocket, [&] {
        consumeCycles(newlibWork);
        DssFrame frame(img);
        long *sharedLen = frame.var<long>();
        *frame.shadow(sharedLen) = static_cast<long>(n);
        return img.gate(lwipSend,
                        [&] { return s->send(buf, n); });
    });
}

void
LibcApi::closeSocket(TcpSocket *s)
{
    img.gate(newlibSocket, [&] {
        consumeCycles(newlibWork);
        img.gate(lwipClose, [&] { s->close(); });
    });
}

int
LibcApi::open(const std::string &path, unsigned flags)
{
    panic_if(!vfs, "no filesystem in this image");
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsOpen,
                        [&] { return vfs->open(path, flags); });
    });
}

int
LibcApi::close(int fd)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsClose, [&] { return vfs->close(fd); });
    });
}

long
LibcApi::read(int fd, void *buf, std::size_t n)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsRead,
                        [&] { return vfs->read(fd, buf, n); });
    });
}

long
LibcApi::write(int fd, const void *buf, std::size_t n)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsWrite,
                        [&] { return vfs->write(fd, buf, n); });
    });
}

long
LibcApi::pread(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsPread,
                        [&] { return vfs->pread(fd, buf, n, off); });
    });
}

long
LibcApi::pwrite(int fd, const void *buf, std::size_t n,
                std::uint64_t off)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsPwrite,
                        [&] { return vfs->pwrite(fd, buf, n, off); });
    });
}

long
LibcApi::lseek(int fd, long off, SeekWhence whence)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsLseek,
                        [&] { return vfs->lseek(fd, off, whence); });
    });
}

int
LibcApi::fsync(int fd)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsFsync, [&] { return vfs->fsync(fd); });
    });
}

int
LibcApi::ftruncate(int fd, std::uint64_t size)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsFtruncate,
                        [&] { return vfs->ftruncate(fd, size); });
    });
}

int
LibcApi::unlink(const std::string &path)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsUnlink,
                        [&] { return vfs->unlink(path); });
    });
}

int
LibcApi::stat(const std::string &path, VfsStat &out)
{
    return img.gate(newlibFs, [&] {
        consumeCycles(newlibWork);
        return img.gate(vfsStat,
                        [&] { return vfs->stat(path, out); });
    });
}

std::uint64_t
LibcApi::clockNs()
{
    return img.gate(newlibTime, [&] {
        consumeCycles(newlibWork / 3);
        return img.gate(clockGettime, [&] {
            consumeCycles(20); // clock read + conversion
            return img.machine().nanoseconds();
        });
    });
}

void
LibcApi::yield()
{
    schedTouch(schedYield);
}

void
LibcApi::lock()
{
    schedTouch(schedLock);
}

void
LibcApi::unlock()
{
    schedTouch(schedUnlock);
}

void *
LibcApi::malloc(std::size_t n)
{
    // Per-compartment allocator (paper 4.5): local fast path, no gate.
    Thread *t = img.scheduler().current();
    int comp = t ? t->currentCompartment : 0;
    return img.compartmentAt(static_cast<std::size_t>(comp)).heap->alloc(n);
}

void
LibcApi::free(void *p)
{
    Thread *t = img.scheduler().current();
    int comp = t ? t->currentCompartment : 0;
    img.compartmentAt(static_cast<std::size_t>(comp)).heap->free(p);
}

const HardeningContext &
LibcApi::hardening() const
{
    return img.currentHardening();
}

} // namespace flexos
