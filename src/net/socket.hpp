// Thin RAII layer over POSIX TCP sockets — everything src/net/ needs and
// nothing more: bind/listen/accept/connect on IPv4, full-buffer reads and
// writes that survive EINTR and partial transfers, and a file-descriptor
// owner whose shutdown() unblocks a peer thread stuck in a read or write
// (the stop and teardown paths) without freeing the descriptor number
// under it.
//
// Failures throw net::socket_error (a std::system_error carrying errno), so
// transport faults are distinguishable from wire-format faults
// (net::wire_error) and map cleanly onto the service's transient fault
// class — a connection reset is retryable, a malformed frame is not.
#ifndef DEW_NET_SOCKET_HPP
#define DEW_NET_SOCKET_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <system_error>

namespace dew::net {

class socket_error : public std::system_error {
public:
    socket_error(int err, const std::string& what)
        : std::system_error{err, std::generic_category(), what} {}
};

// Owns one file descriptor.  Movable, not copyable.  Any thread may
// shutdown() the socket to wake a peer blocked on it; only the owner
// close()s it, once no other thread can be inside a call on it — so no call
// ever lands on a descriptor number the kernel has reused.
class socket_fd {
public:
    socket_fd() = default;
    explicit socket_fd(int fd) noexcept : fd_{fd} {}
    socket_fd(socket_fd&& other) noexcept : fd_{other.release()} {}
    socket_fd& operator=(socket_fd&& other) noexcept;
    ~socket_fd() { close(); }

    socket_fd(const socket_fd&) = delete;
    socket_fd& operator=(const socket_fd&) = delete;

    [[nodiscard]] int get() const noexcept {
        return fd_.load(std::memory_order_acquire);
    }
    [[nodiscard]] bool valid() const noexcept { return get() >= 0; }
    [[nodiscard]] int release() noexcept {
        return fd_.exchange(-1, std::memory_order_acq_rel);
    }

    // SHUT_RDWR, keeping the descriptor; idempotent.
    void shutdown() const noexcept;

    // Shutdown + close; idempotent, owner only (see above).
    void close() noexcept;

private:
    std::atomic<int> fd_{-1};
};

// Binds and listens on host:port (IPv4 dotted quad or "localhost"); port 0
// picks an ephemeral port.  `bound_port` receives the actual port.
[[nodiscard]] socket_fd listen_on(const std::string& host, std::uint16_t port,
                                  std::uint16_t& bound_port);

// Blocking accept; throws socket_error when the listener was closed.
[[nodiscard]] socket_fd accept_on(const socket_fd& listener);

// Blocking connect, TCP_NODELAY set (request/response frames must not sit
// in Nagle buffers).
[[nodiscard]] socket_fd connect_to(const std::string& host,
                                   std::uint16_t port);

// Reads exactly `size` bytes unless the peer closes first: returns the
// bytes read, which is < size only at a clean or torn EOF.  Throws
// socket_error on a transport error.
std::size_t read_exact(const socket_fd& socket, void* data, std::size_t size);

// Writes the whole buffer or throws socket_error (EPIPE/reset included —
// SIGPIPE is suppressed per send).
void write_all(const socket_fd& socket, const void* data, std::size_t size);

} // namespace dew::net

#endif // DEW_NET_SOCKET_HPP
