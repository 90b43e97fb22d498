// The DEW serving wire protocol: length-prefixed binary frames carrying
// typed messages between a net::client and a net::server (and between the
// router and its backends).
//
// Frame layout (all integers little-endian):
//   magic         4 bytes  "DSNW"
//   version       u32      currently 2 (a peer of any other version is
//                          refused at the header)
//   type          u8       message_type
//   id            u64      correlation id — echoed by the response frame(s)
//   payload_bytes u64      bytes following this field (<= max_frame_payload)
//   payload       payload_bytes bytes, layout per message type (wire.cpp)
//
// Each payload layout is one field list in wire.cpp that both the encoder
// and the decoder walk, so the two cannot disagree; the `result` payload's
// exact sweep is the "DSWR" record's own field list (dew/result_io.hpp),
// walked in place.  All of them run on the codec the "DSCF" cache file
// uses too (common/codec.hpp): a truncated buffer, a bad magic or version,
// an unknown type, an implausible field, or a payload whose size disagrees
// with its decoded structure — short *or* over-long — throws
// net::wire_error naming the field and the byte offset of the fault
// (payload offsets are frame-relative: payload byte 0 is frame byte 25),
// inside the DSWR record too.  A decoder never returns a partial message.
// The test suite cuts every golden payload (tests/net/golden_frames.hpp)
// at every byte and expects a precise reject at each.
//
// Fault mapping: a request that fails server-side is answered by an `error`
// frame whose fault_code round-trips the exception's type, so
// client.submit(...).get() throws the same exception a local
// serve::service::submit would — and serve::classify_fault() classifies the
// rethrown fault exactly as the server did (the PR-6 transient/permanent
// taxonomy crosses the process boundary intact).
#ifndef DEW_NET_WIRE_HPP
#define DEW_NET_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"
#include "obs/registry.hpp"
#include "serve/cache.hpp"
#include "serve/key.hpp"
#include "serve/service.hpp"
#include "trace/digest.hpp"
#include "trace/record.hpp"

namespace dew::net {

// A malformed frame or payload.  Distinct from socket_error (transport) and
// from the service's domain exceptions (which travel as `error` frames):
// wire_error means the bytes themselves are not a protocol conversation.
class wire_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

inline constexpr char frame_magic[4] = {'D', 'S', 'N', 'W'};
inline constexpr std::uint32_t wire_version = 2;
// magic + version + type + id + payload_bytes.
inline constexpr std::size_t frame_header_bytes = 4 + 4 + 1 + 8 + 8;
// Upper bound a receiver enforces before allocating: a 1 GiB payload holds
// a ~119M-record trace registration, far beyond any sane frame, and a
// declared size above it is certainly garbage framing, not a big message.
inline constexpr std::uint64_t max_frame_payload = std::uint64_t{1} << 30;

enum class message_type : std::uint8_t {
    // Requests (client -> server), interleaved with their responses
    // (server -> client).
    ping = 0,
    pong = 1,
    register_trace = 2,
    register_ok = 3,
    has_trace = 4,
    has_ok = 5,
    submit = 6,
    result = 7,
    cancel = 8,
    cancel_ok = 9,
    // 10 and 11 are retired (a counters request/reply pair; the service's
    // counters travel in metrics_ok): never reused, rejected as unknown.
    cache_save = 12,
    cache_contents = 13,
    cache_load = 14,
    cache_loaded = 15,
    pause = 16,
    resume = 17,
    // Ack of pause/resume.
    ok = 18,
    // Failure response to any request; payload = error_message.
    error = 19,
    // Observability: the server's obs::registry snapshot (counters,
    // gauges, stage-latency percentiles) in stable name order.
    get_metrics = 20,
    metrics_ok = 21,
    // Observability: the server's wide per-request event ring (one
    // structured record per settled request), oldest first.
    get_events = 22,
    events_ok = 23,
};

// "unknown" for every byte that names no entry (parse_header's test).
[[nodiscard]] const char* to_string(message_type type) noexcept;

struct frame_header {
    message_type type{message_type::ping};
    std::uint64_t id{0};
    std::uint64_t payload_bytes{0};
};

struct frame {
    frame_header header{};
    std::string payload;
};

// --- Framing ----------------------------------------------------------------

[[nodiscard]] std::string encode_frame(message_type type, std::uint64_t id,
                                       std::string_view payload);

// Parses exactly the 25 header bytes; rejects short buffers, bad magic /
// version, unknown type and an over-limit payload_bytes with byte-offset-
// naming wire_error.
[[nodiscard]] frame_header parse_header(std::string_view bytes);

// Parses one whole frame from an in-memory buffer: the header plus exactly
// payload_bytes of payload must be present (no more, no less) — the
// all-at-once form the tests and the cache handoff use.
[[nodiscard]] frame parse_frame(std::string_view bytes);

class socket_fd; // net/socket.hpp

// Reads the next frame off a socket into `out` (the socket paths' form).
// False at a clean EOF between frames; throws wire_error on a malformed
// header and socket_error on a transport failure or a torn frame.
bool read_frame(const socket_fd& socket, frame& out);

// --- Fault taxonomy over the wire -------------------------------------------

// Which exception an `error` frame reproduces client-side.  protocol is the
// server rejecting *our* frame (rethrown as wire_error); the rest mirror
// the service's domain exceptions so classify_fault agrees across the wire.
enum class fault_code : std::uint8_t {
    protocol = 0,         // wire_error — malformed frame or payload
    invalid_argument = 1, // std::invalid_argument (permanent)
    overloaded = 2,       // serve::service_overloaded (transient)
    timeout = 3,          // serve::service_timeout
    cancelled = 4,        // serve::service_cancelled
    io = 5,               // trace::io_fault (transient)
    logic = 6,            // other std::logic_error (permanent)
    runtime = 7,          // anything else (permanent by classify_fault)
};

struct error_message {
    fault_code code{fault_code::runtime};
    std::string what;
};

// Maps a caught exception onto the code that reproduces it (by dynamic
// type, most specific first).
[[nodiscard]] error_message describe_fault(const std::exception_ptr& error);

// Throws the exception `message` describes — the client's side of the
// mapping.
[[noreturn]] void rethrow_fault(const error_message& message);

std::string encode_error(const error_message& message);
[[nodiscard]] error_message decode_error(std::string_view payload);

// --- Typed payload codecs ---------------------------------------------------
// Every decode_* consumes the whole payload and throws wire_error (frame-
// relative byte offsets, see above) on truncation, implausible fields, or
// trailing bytes.

// register_trace: the record sequence.
std::string encode_records(const trace::mem_trace& records);
[[nodiscard]] trace::mem_trace decode_records(std::string_view payload);

// register_ok / has_trace / cache-handoff addressing: one trace digest.
std::string encode_digest(const trace::trace_digest& digest);
[[nodiscard]] trace::trace_digest decode_digest(std::string_view payload);

// has_ok / cancel_ok: one boolean.
std::string encode_flag(bool value);
[[nodiscard]] bool decode_flag(std::string_view payload);

// cancel: the id of the submit frame to withdraw.
std::string encode_cancel_target(std::uint64_t submit_id);
[[nodiscard]] std::uint64_t decode_cancel_target(std::string_view payload);

// submit: which trace (by digest), what question.  The request's
// stream_filter must be empty (it cannot travel) and `threads` is not
// carried (the serving side owns parallelism) — both exactly as
// serve::canonical demands.  The trailing trace-context words
// (obs_trace_hi/lo, obs_parent_span) are pure telemetry: identity-exempt
// in serve::key, never folded into the fingerprint, forwarded verbatim by
// the router's backend hop.
struct submit_message {
    trace::trace_digest digest{};
    serve::service_request request{};
};
std::string encode_submit(const submit_message& message);
[[nodiscard]] submit_message decode_submit(std::string_view payload);

// result: the service_result — its flags, retry count and the sweep as a
// self-delimiting "DSWR" record.
std::string encode_result(const serve::service_result& result);
[[nodiscard]] serve::service_result decode_result(std::string_view payload);

// metrics_ok: the obs::registry snapshot (serve::stats_from reads the
// service's books out of it) — per entry the name
// (length-prefixed), kind, counter/gauge value, latency reduction
// (count + p50/p95/p99 ns) and the 65 raw histogram buckets.  The buckets
// make cross-backend aggregation exact: the router re-merges scraped
// snapshots bucket-wise (histogram_snapshot::merge), it never averages
// percentiles.  The stable name-sorted order the registry produces
// travels as-is.
std::string encode_metrics(const std::vector<obs::metric>& metrics);
[[nodiscard]] std::vector<obs::metric>
decode_metrics(std::string_view payload);

// events_ok: the wide per-request event ring, oldest first — per entry the
// trace context, correlation, request key words, node id, disposition,
// retry count and the four stage timestamps/durations
// (start/queue/run/total ns).  JSONL rendering is client-side
// (obs::events_jsonl); the wire carries the structured record.
std::string encode_events(const std::vector<obs::request_event>& events);
[[nodiscard]] std::vector<obs::request_event>
decode_events(std::string_view payload);

// cache_load: load mode + the "DSCF" cache-file image (the image itself is
// validated by serve::result_cache::load, checksums and all; a damaged
// image is a std::runtime_error there, so it comes back as
// fault_code::runtime, never as a protocol fault).
std::string encode_cache_load(serve::load_mode mode,
                              std::string_view cache_file);
struct cache_load_message {
    serve::load_mode mode{serve::load_mode::strict};
    std::string cache_file;
};
[[nodiscard]] cache_load_message decode_cache_load(std::string_view payload);

// cache_loaded: the load report.
std::string encode_load_report(const serve::cache_load_report& report);
[[nodiscard]] serve::cache_load_report
decode_load_report(std::string_view payload);

} // namespace dew::net

#endif // DEW_NET_WIRE_HPP
