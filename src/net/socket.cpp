#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dew::net {

namespace {

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, resolved.c_str(), &address.sin_addr) != 1) {
        throw socket_error{EINVAL, "bad IPv4 host \"" + host + "\""};
    }
    return address;
}

void set_nodelay(int fd) noexcept {
    int one = 1;
    // Best effort: a socket that cannot set NODELAY still works, just with
    // Nagle latency.
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

} // namespace

socket_fd& socket_fd::operator=(socket_fd&& other) noexcept {
    if (this != &other) {
        close();
        fd_.store(other.release(), std::memory_order_release);
    }
    return *this;
}

void socket_fd::shutdown() const noexcept {
    const int fd = get();
    if (fd >= 0) {
        (void)::shutdown(fd, SHUT_RDWR);
    }
}

void socket_fd::close() noexcept {
    const int fd = release();
    if (fd >= 0) {
        (void)::shutdown(fd, SHUT_RDWR);
        (void)::close(fd);
    }
}

socket_fd listen_on(const std::string& host, std::uint16_t port,
                    std::uint16_t& bound_port) {
    socket_fd fd{::socket(AF_INET, SOCK_STREAM, 0)};
    if (!fd.valid()) {
        throw socket_error{errno, "socket() failed"};
    }
    int one = 1;
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in address = make_address(host, port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0) {
        throw socket_error{errno, "cannot bind " + host + ":" +
                                      std::to_string(port)};
    }
    if (::listen(fd.get(), SOMAXCONN) != 0) {
        throw socket_error{errno, "listen() failed"};
    }
    sockaddr_in actual{};
    socklen_t length = sizeof actual;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual),
                      &length) != 0) {
        throw socket_error{errno, "getsockname() failed"};
    }
    bound_port = ntohs(actual.sin_port);
    return fd;
}

socket_fd accept_on(const socket_fd& listener) {
    for (;;) {
        const int fd = ::accept(listener.get(), nullptr, nullptr);
        if (fd >= 0) {
            set_nodelay(fd);
            return socket_fd{fd};
        }
        if (errno == EINTR) {
            continue;
        }
        throw socket_error{errno, "accept() failed"};
    }
}

socket_fd connect_to(const std::string& host, std::uint16_t port) {
    socket_fd fd{::socket(AF_INET, SOCK_STREAM, 0)};
    if (!fd.valid()) {
        throw socket_error{errno, "socket() failed"};
    }
    sockaddr_in address = make_address(host, port);
    for (;;) {
        if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                      sizeof address) == 0) {
            set_nodelay(fd.get());
            return fd;
        }
        if (errno == EINTR) {
            continue;
        }
        throw socket_error{errno, "cannot connect to " + host + ":" +
                                      std::to_string(port)};
    }
}

std::size_t read_exact(const socket_fd& socket, void* data,
                       std::size_t size) {
    char* cursor = static_cast<char*>(data);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t got =
            ::recv(socket.get(), cursor + done, size - done, 0);
        if (got > 0) {
            done += static_cast<std::size_t>(got);
            continue;
        }
        if (got == 0) {
            return done; // peer closed
        }
        if (errno == EINTR) {
            continue;
        }
        throw socket_error{errno, "recv() failed"};
    }
    return done;
}

void write_all(const socket_fd& socket, const void* data, std::size_t size) {
    const char* cursor = static_cast<const char*>(data);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t put =
            ::send(socket.get(), cursor + done, size - done, MSG_NOSIGNAL);
        if (put >= 0) {
            done += static_cast<std::size_t>(put);
            continue;
        }
        if (errno == EINTR) {
            continue;
        }
        throw socket_error{errno, "send() failed"};
    }
}

} // namespace dew::net
