#include "net/frame_server.hpp"

#include <atomic>
#include <thread>
#include <utility>

namespace dew::net {

bool frame_connection::send(message_type type, std::uint64_t id,
                            std::string_view payload) {
    std::string bytes = encode_frame(type, id, payload);
    const std::lock_guard lock{outbox_mutex_};
    if (closed_) {
        return false;
    }
    if (outbox_.size() < outbox_frames) {
        outbox_.push_back(std::move(bytes));
        outbox_cv_.notify_one();
        return true;
    }
    // The requester stopped reading.  Fail the writer's blocked send and
    // wake the reader, which reaps; under the lock, so the socket cannot
    // have been closed yet (the reader closes it only after `closed_`).
    closed_ = true;
    outbox_.clear();
    fd_.shutdown();
    outbox_cv_.notify_all();
    return false;
}

bool frame_connection::send_fault(std::uint64_t id,
                                  const std::exception_ptr& error) {
    return send(message_type::error, id, encode_error(describe_fault(error)));
}

void frame_connection::track(std::uint64_t id, std::function<bool()> cancel) {
    const std::lock_guard lock{pending_mutex_};
    pending_.insert_or_assign(id, std::move(cancel));
}

void frame_connection::untrack(std::uint64_t id) {
    const std::lock_guard lock{pending_mutex_};
    pending_.erase(id);
}

bool frame_connection::cancel(std::uint64_t id) {
    std::function<bool()> lever;
    {
        const std::lock_guard lock{pending_mutex_};
        const auto found = pending_.find(id);
        if (found == pending_.end()) {
            return false;
        }
        lever = found->second;
    }
    // Unlocked: cancelling settles, and the continuation untracks.
    return lever();
}

struct frame_server::state {
    frame_handler handler;
    std::uint16_t bound_port{0}; // written by listen_on, so declared first
    socket_fd listener;
    std::thread acceptor;
    std::atomic<bool> stopped{false};

    std::mutex connections_mutex; // dewlint: lock-order net-connections 80
    std::condition_variable reaped_cv;
    // Live connections and their readers; a filed connection is alive,
    // because its reader holds it until reap().
    std::unordered_map<frame_connection*, std::thread> connections;
    std::thread finished; // the last reader to exit

    state(const std::string& host, std::uint16_t port, frame_handler h)
        : handler{std::move(h)},
          listener{listen_on(host, port, bound_port)} {}

    // dewlint: thread-body accept_loop
    void accept_loop() {
        try {
            for (;;) {
                auto conn = std::make_shared<frame_connection>();
                try {
                    conn->fd_ = accept_on(listener);
                } catch (const socket_error&) {
                    return; // listener shut down by stop()
                }
                // Filed before its reader starts, and under the table lock,
                // so the reader cannot reap itself before its thread is in.
                const std::lock_guard lock{connections_mutex};
                const auto filed =
                    connections.emplace(conn.get(), std::thread{}).first;
                try {
                    filed->second = std::thread{[this, conn] {
                        serve_connection(conn);
                    }};
                } catch (...) {
                    connections.erase(filed); // never started, never reaped
                    throw;
                }
            }
        } catch (...) {
            // Out of memory or threads for a new connection: stop
            // accepting; stop() still joins everything started.
        }
    }

    // dewlint: thread-body serve_connection
    void serve_connection(const std::shared_ptr<frame_connection>& conn) {
        try {
            std::thread writer;
            try {
                writer = std::thread{[conn] { write_loop(*conn); }};
                read_loop(conn);
            } catch (...) {
                // No thread for the writer or no memory for a frame:
                // nothing useful is left to say on this connection.
            }
            {
                const std::lock_guard lock{conn->outbox_mutex_};
                conn->closed_ = true; // the writer flushes, then exits
            }
            conn->outbox_cv_.notify_all();
            if (writer.joinable()) {
                writer.join();
            }
            reap(conn.get()); // unfiled: stop() no longer shuts it down
            conn->fd_.close(); // so nothing else touches it any more
        } catch (...) {
            // A failed join or lock; never let it reach std::terminate.
        }
    }

    void read_loop(const std::shared_ptr<frame_connection>& conn) {
        frame request;
        for (;;) {
            try {
                if (!read_frame(conn->fd_, request)) {
                    return;
                }
            } catch (const wire_error&) {
                // Framing is lost and no request id is trustworthy.
                conn->send_fault(0, std::current_exception());
                return;
            } catch (const socket_error&) {
                return; // torn frame, reset, or shut down under us
            }
            try {
                handler(conn, request.header, request.payload);
            } catch (...) {
                if (!conn->send_fault(request.header.id,
                                      std::current_exception())) {
                    return;
                }
            }
        }
    }

    // dewlint: thread-body write_loop
    static void write_loop(frame_connection& conn) {
        try {
            for (;;) {
                std::string bytes;
                {
                    std::unique_lock lock{conn.outbox_mutex_};
                    conn.outbox_cv_.wait(lock, [&] {
                        return conn.closed_ || !conn.outbox_.empty();
                    });
                    if (conn.outbox_.empty()) {
                        return; // closed and flushed
                    }
                    bytes = std::move(conn.outbox_.front());
                    conn.outbox_.pop_front();
                }
                write_all(conn.fd_, bytes.data(), bytes.size());
            }
        } catch (...) {
            // The requester is gone: stop queueing, wake the reader.
            {
                const std::lock_guard lock{conn.outbox_mutex_};
                conn.closed_ = true;
                conn.outbox_.clear();
            }
            conn.fd_.shutdown();
        }
    }

    // Unfiles the connection and joins the reader that exited before it.
    void reap(frame_connection* conn) {
        std::thread predecessor;
        {
            const std::lock_guard lock{connections_mutex};
            const auto self = connections.find(conn);
            predecessor = std::exchange(finished, std::move(self->second));
            connections.erase(self);
        }
        reaped_cv.notify_all();
        if (predecessor.joinable()) {
            predecessor.join();
        }
    }

    void stop() {
        if (stopped.exchange(true)) {
            return;
        }
        listener.shutdown();
        if (acceptor.joinable()) {
            acceptor.join(); // every accepted connection is filed now
        }
        listener.close();
        std::unique_lock lock{connections_mutex};
        for (const auto& filed : connections) {
            filed.first->fd_.shutdown();
        }
        reaped_cv.wait(lock, [this] { return connections.empty(); });
        std::thread last = std::move(finished);
        lock.unlock();
        if (last.joinable()) {
            last.join();
        }
    }
};

frame_server::frame_server(const std::string& host, std::uint16_t port,
                           frame_handler handler)
    : state_{std::make_unique<state>(host, port, std::move(handler))} {
    state_->acceptor = std::thread{[s = state_.get()] { s->accept_loop(); }};
}

frame_server::~frame_server() { state_->stop(); }

std::uint16_t frame_server::port() const noexcept {
    return state_->bound_port;
}

void frame_server::stop() { state_->stop(); }

} // namespace dew::net
