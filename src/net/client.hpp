// net::client — the caller's side of the wire, shaped like the in-process
// service.  submit() returns a net::submission with the exact surface of
// serve::submission (get / wait / wait_for / valid / cancel), and get()
// either returns the serve::service_result the server computed or throws
// the same exception a local submit would have — the error-frame fault
// mapping (net/wire.hpp) reproduces exception types across the process
// boundary, so retry logic written against serve::classify_fault works
// unchanged against a remote service.
//
// One client is one connection.  A writer mutex serialises request frames;
// a single reader thread dispatches response frames to their waiting
// callers (or their continuations) by correlation id, so any number of
// threads can submit/ping/query through one client concurrently and
// submissions overlap on the wire.  If
// the transport dies, every outstanding and future call fails with
// socket_error (transient under classify_fault — connection loss is
// retryable, unlike a protocol violation).
#ifndef DEW_NET_CLIENT_HPP
#define DEW_NET_CLIENT_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "serve/cache.hpp"
#include "serve/key.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/record.hpp"

namespace dew::net {

class client;
class client_core; // shared connection state (net/client.cpp)

// The remote analogue of serve::submission.  Movable, not copyable.
class submission {
public:
    submission() = default;

    // Blocks for the response frame; returns the result or rethrows the
    // server-side fault (or socket_error when the connection died first).
    [[nodiscard]] serve::service_result get();
    void wait() const { frame_.wait(); }
    template <class Rep, class Period>
    [[nodiscard]] std::future_status
    wait_for(const std::chrono::duration<Rep, Period>& timeout) const {
        return frame_.wait_for(timeout);
    }
    [[nodiscard]] bool valid() const noexcept { return frame_.valid(); }

    // Sends a cancel frame for this submission and waits for the ack.
    // Returns true iff the server's cancel landed before the flight
    // settled; the submission's own response (the cancellation fault, or
    // the answer if it won the race) still arrives through get() — or
    // through the continuation below.
    bool cancel();

    // Settle-time continuation, for a hop that forwards answers: `fn` gets
    // the response frame itself (`result` or `error`, payload untouched; an
    // `error` frame for the transport fault if the connection died) on the
    // client's reader thread, or now on this thread if it already arrived.
    // It replaces get(): requires valid(), and afterwards valid() is false.
    // `fn` should be quick and must not throw (a throw is dropped).
    void on_settled(std::function<void(frame)> fn);

private:
    friend class client;
    submission(std::future<frame> response, std::shared_ptr<client_core> core,
               std::uint64_t id);

    std::future<frame> frame_;
    std::shared_ptr<client_core> core_;
    std::uint64_t id_{0};
};

class client {
public:
    // Connects (TCP, IPv4) and starts the reader thread.  Throws
    // socket_error when the server is unreachable.
    client(const std::string& host, std::uint16_t port);
    ~client();

    client(const client&) = delete;
    client& operator=(const client&) = delete;

    // Round-trip no-op; proves the conversation works.
    void ping();

    // Ships the records, returns their content digest (computed
    // server-side; also ingested into the server's corpus when it has one).
    trace::trace_digest register_trace(const trace::mem_trace& records);
    [[nodiscard]] bool has_trace(const trace::trace_digest& digest);

    // Asynchronous remote submit.  Throws only on transport failure; a
    // service-side rejection (unknown digest, ill-formed request,
    // overload) surfaces through the submission's get(), matching the
    // in-process API's async fault path.  Requests with a stream filter
    // are rejected here (std::invalid_argument) — a callable cannot
    // travel.
    [[nodiscard]] submission submit(const trace::trace_digest& digest,
                                    const serve::service_request& request);

    // The server's obs::registry snapshot (counters, gauges, stage-latency
    // percentiles), stable name order.
    [[nodiscard]] std::vector<obs::metric> metrics();

    // The server's wide per-request event ring, oldest first
    // (docs/OBSERVABILITY.md, Fleet).  Render with obs::events_jsonl.
    [[nodiscard]] std::vector<obs::request_event> events();

    // Warm-cache handoff: the server's cache as a "DSCF" image, and the
    // inverse (load_mode semantics are the service's — strict faults are
    // rethrown here as the server saw them).
    [[nodiscard]] std::string save_cache();
    serve::cache_load_report load_cache(serve::load_mode mode,
                                        std::string_view cache_file);

    void pause();
    void resume();

    // Closes the connection; outstanding calls fail with socket_error.
    // Idempotent; also run by the destructor.
    void close();

private:
    std::shared_ptr<client_core> core_;
};

} // namespace dew::net

#endif // DEW_NET_CLIENT_HPP
