// net::frame_server — the DSNW connection machinery net::server and
// net::router_server share; each supplies only a dispatch handler.
//
// Every accepted connection gets two threads and no more: a reader that
// parses frames and calls the handler, and a writer that drains the
// connection's outbox onto the socket.  A handler answers inline, or later
// from a continuation on whatever thread settles the request; either way
// frame_connection::send only queues, so nothing ever blocks on a slow
// requester.  Failure discipline: a malformed header loses framing, so the
// connection gets an `error` frame (fault_code::protocol, id 0) and is
// closed; anything the handler throws is answered with an `error` frame
// on the request's id and the connection keeps serving.  A connection is
// reaped when its reader exits: writer flushed and joined, socket closed,
// reader thread joined by the next reaper or stop().
#ifndef DEW_NET_FRAME_SERVER_HPP
#define DEW_NET_FRAME_SERVER_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace dew::net {

class frame_connection {
public:
    // Response frames one connection may queue behind its writer.  A send
    // past this closes the connection: its requester stopped reading.
    static constexpr std::size_t outbox_frames = 1024;

    // Queues one response frame; never blocks.  False when the connection
    // is closed, before this call or by it (a full outbox).
    bool send(message_type type, std::uint64_t id, std::string_view payload);
    bool send_fault(std::uint64_t id, const std::exception_ptr& error);

    // Requests answered later, by frame id, for `cancel` frames: cancel()
    // pulls the tracked lever, false when none is tracked under `id`.
    void track(std::uint64_t id, std::function<bool()> cancel);
    void untrack(std::uint64_t id);
    bool cancel(std::uint64_t id);

private:
    friend class frame_server;

    socket_fd fd_;

    std::mutex pending_mutex_; // dewlint: lock-order net-conn-pending 90
    std::unordered_map<std::uint64_t, std::function<bool()>> pending_;

    std::mutex outbox_mutex_; // dewlint: lock-order net-conn-outbox 100
    std::condition_variable outbox_cv_;
    std::deque<std::string> outbox_;
    bool closed_{false};
};

// Runs on the connection's reader for every well-framed request.
using frame_handler =
    std::function<void(const std::shared_ptr<frame_connection>&,
                       const frame_header&, const std::string& payload)>;

class frame_server {
public:
    // Binds, listens and starts accepting; throws socket_error when the
    // address cannot be bound.
    frame_server(const std::string& host, std::uint16_t port,
                 frame_handler handler);
    ~frame_server();

    frame_server(const frame_server&) = delete;
    frame_server& operator=(const frame_server&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept;

    // Stops accepting, shuts every connection down, joins every thread.
    // Idempotent.  Answers not yet sent are dropped with their connection.
    void stop();

private:
    struct state;
    std::unique_ptr<state> state_;
};

} // namespace dew::net

#endif // DEW_NET_FRAME_SERVER_HPP
