#include "net/client.hpp"

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/bits.hpp"
#include "net/socket.hpp"
#include "obs/recorder.hpp"

namespace dew::net {

// Shared by the client facade and every outstanding submission, so a
// submission (and its cancel lever) stays usable after the client object
// moved on — the same after-the-service-is-gone safety serve::submission
// gives.
class client_core : public std::enable_shared_from_this<client_core> {
public:
    client_core(const std::string& host, std::uint16_t port)
        : fd_{connect_to(host, port)} {}

    ~client_core() { shutdown(); }

    void start_reader() {
        // The lambda delegates to read_loop, whose top-level catch routes
        // every fault into death_ / the pending promises.
        reader_ = std::thread{[self = shared_from_this()] {
            self->read_loop();
        }};
    }

    // Fails every outstanding call.  The socket is only shut down while
    // the reader may be in recv; it is closed after the reader joined and
    // under the write mutex, so no thread is inside recv or send then.
    void shutdown() {
        fd_.shutdown();
        if (reader_.joinable() &&
            reader_.get_id() != std::this_thread::get_id()) {
            reader_.join();
        }
        {
            const std::lock_guard lock{write_mutex_};
            fd_.close();
        }
        fail_pending(std::make_exception_ptr(
            socket_error{ENOTCONN, "connection closed"}));
    }

    // submission::on_settled: files `fn` for frame `id`; false (leaving
    // `fn` alone) once the response has been delivered.
    bool attach(std::uint64_t id, std::function<void(frame)>& fn) {
        const std::lock_guard lock{pending_mutex_};
        const auto found = pending_.find(id);
        if (found == pending_.end()) {
            return false;
        }
        found->second.then = std::move(fn);
        return true;
    }

    // What a continuation gets in place of a transport fault.
    static frame fault_frame(std::uint64_t id,
                             const std::exception_ptr& error) {
        frame out;
        out.payload = encode_error(describe_fault(error));
        out.header = {message_type::error, id, out.payload.size()};
        return out;
    }

    static void run(std::function<void(frame)>& fn, frame response) {
        try {
            fn(std::move(response));
        } catch (...) {
            // A continuation's failure is its own; the reader moves on.
        }
    }

    // Reserves the next frame id without sending anything.  submit() uses
    // this to stamp the id into the payload's trace context *before*
    // encoding it (the parent span id is the frame id, and the frame id
    // must therefore exist before the frame does).
    [[nodiscard]] std::uint64_t allocate_id() {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }

    // Registers a response slot, sends the frame under a reserved id,
    // returns the future the reader thread will settle.  Any number of
    // threads may call this concurrently; frames are serialised by the
    // write mutex.  A non-null span_name asks for an obs span covering
    // send -> response arrival, recorded by the reader thread under this
    // frame's id — the client half of the cross-socket stitch (the server
    // stamps the same id into the request's obs_correlation) — tagged with
    // the request's fleet trace id, so the client hop carries the same
    // 128-bit token as the serve-side spans.
    std::future<frame> send_prepared(message_type type,
                                     std::string_view payload,
                                     std::uint64_t id,
                                     const char* span_name = nullptr,
                                     std::uint64_t trace_hi = 0,
                                     std::uint64_t trace_lo = 0) {
        const std::uint64_t sent_ns =
            span_name != nullptr ? obs::timestamp_if_enabled() : 0;
        std::future<frame> response;
        {
            const std::lock_guard lock{pending_mutex_};
            if (dead_) {
                std::rethrow_exception(death_);
            }
            // The span is filed atomically with the promise, so the
            // reader's settle() cannot observe the response first and miss
            // it.
            slot& entry = pending_[id];
            entry.span = {sent_ns != 0 ? span_name : nullptr, sent_ns,
                          trace_hi, trace_lo};
            response = entry.promise.get_future();
        }
        const std::string bytes = encode_frame(type, id, payload);
        try {
            const std::lock_guard lock{write_mutex_};
            write_all(fd_, bytes.data(), bytes.size());
        } catch (...) {
            const std::lock_guard lock{pending_mutex_};
            pending_.erase(id);
            throw;
        }
        return response;
    }

    // Synchronous round trip: expects exactly `expected` back, rethrows
    // error frames as their fault, rejects anything else as wire_error.
    frame roundtrip(message_type type, std::string_view payload,
                    message_type expected) {
        return expect(send_prepared(type, payload, allocate_id()).get(),
                      expected);
    }

    static frame expect(frame response, message_type expected) {
        if (response.header.type == message_type::error) {
            rethrow_fault(decode_error(response.payload));
        }
        if (response.header.type != expected) {
            throw wire_error{"unexpected response type " +
                             std::string{to_string(response.header.type)} +
                             " (want " + to_string(expected) + ")"};
        }
        return response;
    }

private:
    // dewlint: thread-body read_loop
    void read_loop() {
        std::exception_ptr death;
        try {
            frame response;
            while (read_frame(fd_, response)) {
                settle(response.header.id, std::move(response));
            }
            death = std::make_exception_ptr(
                socket_error{ECONNRESET, "connection closed by server"});
        } catch (...) {
            // wire_error (the server is speaking garbage) or socket_error:
            // either way this conversation is over.
            death = std::current_exception();
        }
        fd_.shutdown(); // writers fail fast; shutdown() closes
        fail_pending(death);
    }

    void settle(std::uint64_t id, frame response) {
        slot entry;
        {
            const std::lock_guard lock{pending_mutex_};
            const auto found = pending_.find(id);
            if (found == pending_.end()) {
                return; // e.g. the server's id-0 protocol report
            }
            entry = std::move(found->second);
            pending_.erase(found);
        }
        const inflight_span& span = entry.span;
        if (span.name != nullptr) {
            obs::recorder::instance().record(
                span.name, span.sent_ns, obs::now_ns() - span.sent_ns, id, 0,
                span.trace_hi, span.trace_lo);
        }
        if (entry.then) {
            run(entry.then, std::move(response));
        } else {
            entry.promise.set_value(std::move(response));
        }
    }

    void fail_pending(std::exception_ptr error) {
        std::unordered_map<std::uint64_t, slot> orphans;
        {
            const std::lock_guard lock{pending_mutex_};
            if (!dead_) {
                dead_ = true;
                death_ = error ? error
                               : std::make_exception_ptr(socket_error{
                                     ENOTCONN, "connection closed"});
            }
            orphans.swap(pending_);
        }
        // Orphaned requests get their fault, not a span — a torn
        // connection's duration measures nothing.
        for (auto& [id, entry] : orphans) {
            if (entry.then) {
                run(entry.then, fault_frame(id, death_));
            } else {
                entry.promise.set_exception(death_);
            }
        }
    }

    socket_fd fd_;
    std::mutex write_mutex_; // dewlint: lock-order net-client-write 120
    std::thread reader_;
    std::atomic<std::uint64_t> next_id_{1};

    // A request the reader should close a span for on arrival (submit
    // only, today).
    struct inflight_span {
        const char* name{nullptr};
        std::uint64_t sent_ns{0};
        std::uint64_t trace_hi{0};
        std::uint64_t trace_lo{0};
    };
    // One outstanding request: its response goes to the promise, or to the
    // continuation when submission::on_settled filed one.
    struct slot {
        std::promise<frame> promise;
        std::function<void(frame)> then;
        inflight_span span;
    };

    std::mutex pending_mutex_; // dewlint: lock-order net-client-pending 110
    std::unordered_map<std::uint64_t, slot> pending_;
    bool dead_{false};
    std::exception_ptr death_;
};

// --- submission --------------------------------------------------------------

submission::submission(std::future<frame> response,
                       std::shared_ptr<client_core> core, std::uint64_t id)
    : frame_{std::move(response)}, core_{std::move(core)}, id_{id} {}

serve::service_result submission::get() {
    const frame response =
        client_core::expect(frame_.get(), message_type::result);
    return decode_result(response.payload);
}

void submission::on_settled(std::function<void(frame)> fn) {
    std::future<frame> response = std::move(frame_);
    if (core_ && core_->attach(id_, fn)) {
        return;
    }
    // Delivered already: the future holds the frame or the transport fault.
    frame settled;
    try {
        settled = response.get();
    } catch (...) {
        settled = client_core::fault_frame(id_, std::current_exception());
    }
    client_core::run(fn, std::move(settled));
}

bool submission::cancel() {
    if (!core_) {
        return false;
    }
    const frame response = core_->roundtrip(message_type::cancel,
                                            encode_cancel_target(id_),
                                            message_type::cancel_ok);
    return decode_flag(response.payload);
}

// --- client ------------------------------------------------------------------

client::client(const std::string& host, std::uint16_t port)
    : core_{std::make_shared<client_core>(host, port)} {
    core_->start_reader();
}

client::~client() {
    if (core_) {
        core_->shutdown();
    }
}

void client::ping() {
    (void)core_->roundtrip(message_type::ping, {}, message_type::pong);
}

trace::trace_digest client::register_trace(const trace::mem_trace& records) {
    const frame response =
        core_->roundtrip(message_type::register_trace,
                         encode_records(records), message_type::register_ok);
    return decode_digest(response.payload);
}

bool client::has_trace(const trace::trace_digest& digest) {
    const frame response = core_->roundtrip(
        message_type::has_trace, encode_digest(digest), message_type::has_ok);
    return decode_flag(response.payload);
}

namespace {

// A fresh 128-bit trace id: two splitmix64 avalanches over the clock, the
// frame id and a per-process counter.  Uniqueness here is statistical, not
// coordinated — good enough to grep one request's spans out of a fleet
// trace, which is all a trace id is for.
std::array<std::uint64_t, 2> generate_trace_id(std::uint64_t frame_id) {
    static std::atomic<std::uint64_t> sequence{0};
    const auto now = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const std::uint64_t seq = sequence.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t hi = mix64(now ^ mix64(frame_id));
    const std::uint64_t lo = mix64(seq ^ mix64(hi) ^ 0x9E3779B97F4A7C15ull);
    return {hi != 0 || lo != 0 ? hi : 1, lo};
}

} // namespace

submission client::submit(const trace::trace_digest& digest,
                          const serve::service_request& request) {
    // The frame id is the parent span id, so reserve it before encoding.
    const std::uint64_t id = core_->allocate_id();
    serve::service_request stamped = request;
    if ((stamped.obs_trace_hi | stamped.obs_trace_lo) == 0) {
        // This client is the trace root.  A request arriving with a trace
        // id already set (the router's backend hop, or a caller continuing
        // an upstream trace) keeps it — forwarding never re-stamps.
        const std::array<std::uint64_t, 2> trace = generate_trace_id(id);
        stamped.obs_trace_hi = trace[0];
        stamped.obs_trace_lo = trace[1];
    }
    if (stamped.obs_parent_span == 0) {
        stamped.obs_parent_span = id;
    }
    std::future<frame> response =
        core_->send_prepared(message_type::submit,
                             encode_submit({digest, stamped}), id,
                             "net.client.submit", stamped.obs_trace_hi,
                             stamped.obs_trace_lo);
    return submission{std::move(response), core_, id};
}

std::vector<obs::metric> client::metrics() {
    const frame response = core_->roundtrip(message_type::get_metrics, {},
                                            message_type::metrics_ok);
    return decode_metrics(response.payload);
}

std::vector<obs::request_event> client::events() {
    const frame response = core_->roundtrip(message_type::get_events, {},
                                            message_type::events_ok);
    return decode_events(response.payload);
}

std::string client::save_cache() {
    frame response = core_->roundtrip(message_type::cache_save, {},
                                      message_type::cache_contents);
    return std::move(response.payload);
}

serve::cache_load_report client::load_cache(serve::load_mode mode,
                                            std::string_view cache_file) {
    const frame response =
        core_->roundtrip(message_type::cache_load,
                         encode_cache_load(mode, cache_file),
                         message_type::cache_loaded);
    return decode_load_report(response.payload);
}

void client::pause() {
    (void)core_->roundtrip(message_type::pause, {}, message_type::ok);
}

void client::resume() {
    (void)core_->roundtrip(message_type::resume, {}, message_type::ok);
}

void client::close() { core_->shutdown(); }

} // namespace dew::net
