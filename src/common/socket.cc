#include "common/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <system_error>
#include <unistd.h>

#include "common/error.h"

namespace rfv {

namespace {

/**
 * Thread-safe strerror(errno) replacement: std::strerror may format
 * into a shared static buffer (clang-tidy concurrency-mt-unsafe), and
 * sockets are created from the accept thread while connection threads
 * are reporting I/O errors of their own.
 */
std::string
errnoString()
{
    return std::error_code(errno, std::generic_category()).message();
}

/** Remaining poll budget in ms: <0 = infinite, 0 = expired. */
int
pollBudgetMs(const IoDeadline &deadline)
{
    if (!deadline)
        return -1;
    const auto now = std::chrono::steady_clock::now();
    if (now >= *deadline)
        return 0;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        *deadline - now);
    // Round up so a sub-millisecond remainder still polls once.
    return static_cast<int>(left.count()) + 1;
}

/** Poll @p fd for @p events; true when ready, false on timeout. */
IoStatus
pollFd(int fd, short events, const IoDeadline &deadline)
{
    for (;;) {
        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = events;
        const int budget = pollBudgetMs(deadline);
        if (budget == 0)
            return IoStatus::kTimedOut;
        const int rc = ::poll(&pfd, 1, budget);
        if (rc > 0)
            return IoStatus::kOk;
        if (rc == 0)
            return IoStatus::kTimedOut;
        if (errno != EINTR)
            return IoStatus::kError;
    }
}

} // namespace

IoDeadline
deadlineAfterMs(i64 ms)
{
    if (ms < 0)
        return std::nullopt;
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(std::min(ms, kMaxDeadlineMs));
}

Socket::~Socket() { close(); }

Socket::Socket(Socket &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

Socket &
Socket::operator=(Socket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdown(Shut how)
{
    if (fd_ >= 0)
        ::shutdown(fd_, how == Shut::kRead ? SHUT_RD : SHUT_RDWR);
}

IoStatus
Socket::waitReadable(const IoDeadline &deadline)
{
    if (fd_ < 0)
        return IoStatus::kError;
    return pollFd(fd_, POLLIN, deadline);
}

IoStatus
Socket::readAll(void *buf, size_t len, const IoDeadline &deadline)
{
    if (fd_ < 0)
        return IoStatus::kError;
    size_t got = 0;
    while (got < len) {
        const IoStatus ready = pollFd(fd_, POLLIN, deadline);
        if (ready != IoStatus::kOk)
            return ready;
        const ssize_t n = ::recv(fd_, static_cast<char *>(buf) + got,
                                 len - got, 0);
        if (n > 0) {
            got += static_cast<size_t>(n);
            continue;
        }
        if (n == 0)
            // Orderly EOF: clean only between messages, a protocol
            // violation mid-transfer.
            return got == 0 ? IoStatus::kClosed : IoStatus::kError;
        if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
            return IoStatus::kError;
    }
    return IoStatus::kOk;
}

IoStatus
Socket::writeAll(const void *buf, size_t len, const IoDeadline &deadline)
{
    if (fd_ < 0)
        return IoStatus::kError;
    size_t sent = 0;
    while (sent < len) {
        const IoStatus ready = pollFd(fd_, POLLOUT, deadline);
        if (ready != IoStatus::kOk)
            return ready;
        const ssize_t n =
            ::send(fd_, static_cast<const char *>(buf) + sent,
                   len - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno != EINTR && errno != EAGAIN &&
            errno != EWOULDBLOCK)
            return IoStatus::kError;
    }
    return IoStatus::kOk;
}

Listener::Listener(u16 port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    fatalIf(fd < 0, "cannot create listen socket: " + errnoString());
    Socket sock(fd);

    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    fatalIf(::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr)) != 0,
            "cannot bind port " + std::to_string(port) + ": " +
                errnoString());
    fatalIf(::listen(fd, 64) != 0,
            "cannot listen on port " + std::to_string(port) + ": " +
                errnoString());

    socklen_t alen = sizeof(addr);
    fatalIf(::getsockname(fd, reinterpret_cast<struct sockaddr *>(&addr),
                          &alen) != 0,
            "getsockname failed: " + errnoString());
    port_ = ntohs(addr.sin_port);
    sock_ = std::move(sock);
}

std::optional<Socket>
Listener::accept()
{
    if (!sock_.valid())
        return std::nullopt;
    // shutdown() wakes the poll with POLLHUP; accept(2) then fails.
    if (pollFd(sock_.fd(), POLLIN, std::nullopt) != IoStatus::kOk)
        return std::nullopt;
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd < 0)
        return std::nullopt;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(fd);
}

Socket
connectTcp(const std::string &host, u16 port, const IoDeadline &deadline)
{
    struct addrinfo hints = {};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                      &res) != 0 ||
        res == nullptr)
        return Socket();

    Socket sock(::socket(res->ai_family, res->ai_socktype,
                         res->ai_protocol));
    if (!sock.valid()) {
        ::freeaddrinfo(res);
        return Socket();
    }

    // Non-blocking connect so the caller's deadline bounds the attempt.
    const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
    ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(sock.fd(), res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
    if (rc != 0 && errno != EINPROGRESS)
        return Socket();
    if (rc != 0) {
        if (pollFd(sock.fd(), POLLOUT, deadline) != IoStatus::kOk)
            return Socket();
        int err = 0;
        socklen_t elen = sizeof(err);
        if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &elen) !=
                0 ||
            err != 0)
            return Socket();
    }
    ::fcntl(sock.fd(), F_SETFL, flags);

    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return sock;
}

} // namespace rfv
