/**
 * @file
 * Minimal POSIX TCP wrapper for the simulation service: an RAII file
 * descriptor plus the four operations the daemon needs — listen,
 * accept, connect, and deadline-bounded byte I/O.
 *
 * Everything is blocking-with-poll: each read/write first polls the
 * descriptor with a timeout derived from the caller's deadline, so a
 * stalled peer can never wedge a server thread.  Waits with no
 * deadline (accept(), an unbounded waitReadable()) end when another
 * thread calls shutdown() on the socket: poll wakes at once, and the
 * wait reports EOF.  No buffering happens here; framing
 * (length-prefixed messages) lives in common/framing.h.
 */
#ifndef RFV_COMMON_SOCKET_H
#define RFV_COMMON_SOCKET_H

#include <chrono>
#include <optional>
#include <string>

#include "common/types.h"

namespace rfv {

/** Monotonic deadline for one I/O operation ("infinite" = no bound). */
using IoDeadline =
    std::optional<std::chrono::steady_clock::time_point>;

/**
 * Ceiling of deadlineAfterMs (7 days): a peer's `deadline_ms` of up to
 * 2^62 must overflow neither the clock nor a poll budget's int.
 */
constexpr i64 kMaxDeadlineMs = 7ll * 24 * 3600 * 1000;

/** Deadline @p ms from now, saturated at kMaxDeadlineMs; < 0 = none. */
IoDeadline deadlineAfterMs(i64 ms);

/** Outcome of a byte-level I/O step. */
enum class IoStatus {
    kOk,       //!< the full requested transfer completed
    kClosed,   //!< orderly EOF from the peer
    kTimedOut, //!< the deadline expired first
    kError,    //!< socket error (errno-level)
};

/**
 * RAII TCP socket.  Move-only; the destructor closes the descriptor.
 * All methods are safe to call on an invalid (moved-from) socket and
 * report IoStatus::kError.
 */
class Socket {
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();

    Socket(Socket &&other) noexcept;
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Close now (idempotent). */
    void close();

    enum class Shut { kRead, kBoth };

    /**
     * shutdown(2), best effort.  kRead wakes every wait on the socket
     * with EOF while writes still go through; kBoth also sends the peer
     * EOF.  Only reads fd_, so it is safe while another thread waits.
     */
    void shutdown(Shut how);

    /**
     * Wait until at least one byte is readable, EOF is pending or
     * shutdown(kRead) was called.  Lets a server wait for the next
     * frame without ever timing out *inside* one.
     */
    IoStatus waitReadable(const IoDeadline &deadline);

    /**
     * Read exactly @p len bytes into @p buf, polling against
     * @p deadline.  Returns kClosed only on EOF at a byte boundary
     * *before* any byte of this call was consumed; a mid-transfer EOF
     * is kError (a truncated peer is a protocol violation).
     */
    IoStatus readAll(void *buf, size_t len, const IoDeadline &deadline);

    /** Write exactly @p len bytes, polling against @p deadline. */
    IoStatus writeAll(const void *buf, size_t len,
                      const IoDeadline &deadline);

  private:
    int fd_ = -1;
};

/**
 * Listening TCP socket bound to 127.0.0.1:@p port (port 0 = ephemeral;
 * the chosen port is readable via port()).  Throws ConfigError when
 * the bind fails (e.g. the port is taken).
 */
class Listener {
  public:
    explicit Listener(u16 port);

    u16 port() const { return port_; }
    bool valid() const { return sock_.valid(); }

    /** Wake a blocked accept(); later accept() calls return nullopt. */
    void shutdown() { sock_.shutdown(Socket::Shut::kRead); }

    /** Release the descriptor; call only once no accept() is running. */
    void close() { sock_.close(); }

    /** Block until a connection arrives; nullopt when shut down or failed. */
    std::optional<Socket> accept();

  private:
    Socket sock_;
    u16 port_ = 0;
};

/**
 * Connect to 127.0.0.1-or-hostname:@p port within @p deadline.
 * Returns an invalid Socket on failure (refused, timeout, resolve).
 */
Socket connectTcp(const std::string &host, u16 port,
                  const IoDeadline &deadline);

} // namespace rfv

#endif // RFV_COMMON_SOCKET_H
