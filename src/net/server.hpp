// net::server — a TCP front over one serve::service.
//
// One server owns one service (and optionally a trace::corpus_registry it
// hydrates traces from on demand) behind a net::frame_server, which runs
// the connections and their failure discipline (net/frame_server.hpp).  A
// `submit` frame becomes a real serve::service::submit — async,
// coalescing, cached, deadline-bounded — answered by completion: the
// thread that settles it queues the `result` or `error` frame for the
// connection's writer.  Responses carry the request frame's id, so one
// connection multiplexes any number of in-flight submissions; `cancel`
// frames withdraw them by id.  A request that fails in the service
// (unknown digest, ill-formed sweep, overload, timeout, cancellation,
// engine fault) is answered by an `error` frame whose fault_code
// reproduces the exception type client-side — serve::classify_fault
// agrees across the wire.
#ifndef DEW_NET_SERVER_HPP
#define DEW_NET_SERVER_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "serve/service.hpp"

namespace dew::net {

struct server_options {
    std::string host{"127.0.0.1"};
    // 0 picks an ephemeral port; read the actual one back with port().
    std::uint16_t port{0};
    // Options of the serve::service the server owns.
    serve::service_options service{};
    // Optional digest-addressed trace store (trace/corpus.hpp).  When set:
    // registered traces are ingested into it, and a submit for a digest the
    // service has not seen is hydrated from it before rejecting.
    std::string corpus_dir{};
};

class server {
public:
    // Binds, listens and starts accepting.  Throws socket_error when the
    // address cannot be bound, std::runtime_error when corpus_dir cannot be
    // opened.
    explicit server(server_options options = {});
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    // The port actually bound (the ephemeral pick when options.port was 0).
    [[nodiscard]] std::uint16_t port() const noexcept;

    // Closes the listener and all connections, joins every thread.
    // Idempotent.  Returns once every in-flight submission has settled
    // (the service completes its queue; a paused service is resumed).
    void stop();

    // The served service, for in-process observation and staging (tests
    // pause()/resume() it to make coalescing deterministic and read
    // stats() without a round trip).
    [[nodiscard]] serve::service& local_service() noexcept;

private:
    struct state;
    std::unique_ptr<state> state_;
};

} // namespace dew::net

#endif // DEW_NET_SERVER_HPP
