#include "net/server.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "net/frame_server.hpp"
#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "trace/corpus.hpp"
#include "trace/digest.hpp"

namespace dew::net {

struct server::state {
    server_options options;
    serve::service service;
    std::optional<trace::corpus_registry> corpus;
    // Last: it binds on construction and dispatches into the members
    // above, and it is stopped and destroyed first.
    frame_server frames;

    explicit state(server_options opts)
        : options{std::move(opts)}, service{options.service},
          corpus{options.corpus_dir.empty()
                     ? std::nullopt
                     : std::optional<trace::corpus_registry>{
                           std::in_place, options.corpus_dir}},
          frames{options.host, options.port,
                 [this](const std::shared_ptr<frame_connection>& conn,
                        const frame_header& header,
                        const std::string& payload) {
                     dispatch(conn, header, payload);
                 }} {}

    // Registers `records` with the service (and the corpus, if one is
    // configured) and returns the digest.  The service-side trace name IS
    // the digest string: content addressing end to end.
    trace::trace_digest register_records(trace::mem_trace records) {
        const trace::trace_digest digest = trace::compute_digest(records);
        if (corpus) {
            corpus->ingest(records);
        }
        if (!service.has_trace(to_string(digest))) {
            service.add_trace(to_string(digest), std::move(records));
        }
        return digest;
    }

    // True once the digest is submittable: already registered, or hydrated
    // from the corpus just now.
    bool ensure_trace(const trace::trace_digest& digest) {
        if (service.has_trace(to_string(digest))) {
            return true;
        }
        if (corpus && corpus->contains(digest)) {
            service.add_trace(to_string(digest), corpus->load(digest));
            return true;
        }
        return false;
    }

    void dispatch(const std::shared_ptr<frame_connection>& conn,
                  const frame_header& header, const std::string& payload) {
        const std::uint64_t id = header.id;
        switch (header.type) {
        case message_type::ping:
            conn->send(message_type::pong, id, {});
            return;
        case message_type::register_trace: {
            const trace::trace_digest digest =
                register_records(decode_records(payload));
            conn->send(message_type::register_ok, id, encode_digest(digest));
            return;
        }
        case message_type::has_trace: {
            const trace::trace_digest digest = decode_digest(payload);
            const bool present = service.has_trace(to_string(digest)) ||
                                 (corpus && corpus->contains(digest));
            conn->send(message_type::has_ok, id, encode_flag(present));
            return;
        }
        case message_type::submit:
            start_submission(conn, id, decode_submit(payload));
            return;
        case message_type::cancel: {
            // The submit frame is still answered (with the cancellation
            // fault); this only acks the withdrawal.
            const bool cancelled = conn->cancel(decode_cancel_target(payload));
            conn->send(message_type::cancel_ok, id, encode_flag(cancelled));
            return;
        }
        case message_type::get_metrics:
            conn->send(message_type::metrics_ok, id,
                       encode_metrics(obs::registry::instance().snapshot()));
            return;
        case message_type::get_events:
            conn->send(message_type::events_ok, id,
                       encode_events(service.events()));
            return;
        case message_type::cache_save:
            conn->send(message_type::cache_contents, id,
                       service.save_cache());
            return;
        case message_type::cache_load: {
            const cache_load_message message = decode_cache_load(payload);
            const serve::cache_load_report report =
                service.load_cache(message.cache_file, message.mode);
            conn->send(message_type::cache_loaded, id,
                       encode_load_report(report));
            return;
        }
        case message_type::pause:
            service.pause();
            conn->send(message_type::ok, id, {});
            return;
        case message_type::resume:
            service.resume();
            conn->send(message_type::ok, id, {});
            return;
        default:
            // A response type arriving as a request: well-framed nonsense.
            throw wire_error{"unexpected request type " +
                             std::string{to_string(header.type)}};
        }
    }

    void start_submission(const std::shared_ptr<frame_connection>& conn,
                          std::uint64_t id, submit_message message) {
        if (!ensure_trace(message.digest)) {
            throw std::invalid_argument{
                "unknown trace digest " + to_string(message.digest) +
                " (register_trace it, or configure a corpus that holds it)"};
        }
        // Stamp the parent span id as the request's span-correlation tag:
        // for a direct client that is this frame's id (the client recorded
        // its submit span under it, so the two timelines stitch), and on a
        // router's backend hop it is the *original* client's frame id,
        // forwarded in the payload — the whole chain correlates to one
        // requester-side span.
        message.request.obs_correlation =
            message.request.obs_parent_span != 0
                ? message.request.obs_parent_span
                : id;
        auto pending = std::make_shared<serve::submission>(
            service.submit(to_string(message.digest), message.request));
        conn->track(id, [pending] { return pending->cancel(); });
        // Answered by completion: the settling thread encodes the reply
        // and queues it for this connection's writer.
        pending->on_settled([conn, id, pending] {
            conn->untrack(id);
            try {
                conn->send(message_type::result, id,
                           encode_result(pending->get()));
            } catch (...) {
                conn->send_fault(id, std::current_exception());
            }
        });
    }

    void stop() {
        // A paused service would hold back the queue this stop settles.
        service.resume();
        frames.stop();
        try {
            service.drain();
        } catch (...) {
            // A dead worker already failed its flight; every submission
            // is settled either way.
        }
    }
};

server::server(server_options options)
    : state_{std::make_unique<state>(std::move(options))} {}

server::~server() { state_->stop(); }

std::uint16_t server::port() const noexcept { return state_->frames.port(); }

void server::stop() { state_->stop(); }

serve::service& server::local_service() noexcept { return state_->service; }

} // namespace dew::net
