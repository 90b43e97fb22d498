#include "net/wire.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/codec.hpp"
#include "dew/result_io.hpp"
#include "net/socket.hpp"
#include "trace/fault.hpp"

namespace dew::net {

namespace {

using codec::encode;
using codec::put_le;
using codec::unbounded;

// --- Field lists --------------------------------------------------------------
// Every payload is one field list (common/codec.hpp) that codec::writer
// walks to encode and codec::cursor<wire_error> to decode.  Decoding offsets
// are frame-relative: payload byte 0 sits at frame byte frame_header_bytes.

// Counts and lengths past these bounds are garbage framing, not big
// messages: the paper's whole Table-1 grid is 7 x 4, a registry snapshot
// holds tens of entries, and the server's event ring holds
// service_options::event_ring_capacity (default 1024).
constexpr std::uint32_t max_grid_values = 4096;
constexpr std::uint32_t max_metric_entries = 1u << 16;
constexpr std::uint32_t max_metric_name_bytes = 1u << 12;
constexpr std::uint32_t max_event_entries = 1u << 20;

// Every decoder consumes its whole payload.
template <class M, class F>
M decode(std::string_view payload, const char* name, F fields) {
    codec::cursor<wire_error> in{payload, name, frame_header_bytes};
    M message{};
    fields(in, message);
    in.finish();
    return message;
}

constexpr auto error_fields = [](auto& v, auto& m) {
    v.enum8("fault code", m.code, fault_code::runtime);
    v.bytes("message length", m.what, unbounded<std::uint32_t>);
};

constexpr auto records_fields = [](auto& v, auto& records) {
    v.list("record count", records, unbounded<std::uint64_t>,
           [](auto& e, auto& record) {
               e.u64("record address", record.address);
               e.enum8("record type", record.type, trace::access_type::ifetch);
           });
};

constexpr auto digest_fields = [](auto& v, auto& digest) {
    v.u64("digest word 0", digest.words[0]);
    v.u64("digest word 1", digest.words[1]);
};

constexpr auto flag_fields = [](auto& v, auto& flag) {
    v.boolean("flag", flag);
};

constexpr auto cancel_fields = [](auto& v, auto& submit_id) {
    v.u64("submit id", submit_id);
};

constexpr auto submit_fields = [](auto& v, auto& m) {
    digest_fields(v, m.digest);
    auto& r = m.request;
    v.u64("deadline", r.deadline);
    v.u32("max_set_exp", r.sweep.max_set_exp);
    v.enum8("sweep engine", r.sweep.engine, core::sweep_engine::cipar);
    v.enum8("instrumentation", r.sweep.instrumentation,
            core::sweep_instrumentation::full_counters);
    v.boolean("use_mra_stop", r.sweep.options.use_mra_stop);
    v.boolean("use_wave", r.sweep.options.use_wave);
    v.boolean("use_mre", r.sweep.options.use_mre);
    v.u32("mre_depth", r.sweep.options.mre_depth);
    v.list("block size count", r.sweep.block_sizes, max_grid_values,
           [](auto& e, auto& block) { e.u32("block size", block); });
    v.list("associativity count", r.sweep.associativities, max_grid_values,
           [](auto& e, auto& assoc) { e.u32("associativity", assoc); });
    // Trace context last: telemetry-only fields extend the payload, they
    // never reshuffle the identity-bearing prefix.
    v.u64("obs_trace_hi", r.obs_trace_hi);
    v.u64("obs_trace_lo", r.obs_trace_lo);
    v.u64("obs_parent_span", r.obs_parent_span);
};

// The sweep travels as its "DSWR" record (dew/result_io.hpp).
constexpr auto result_fields = [](auto& v, auto& m) {
    v.boolean("cache_hit", m.cache_hit);
    v.boolean("coalesced", m.coalesced);
    v.u32("flight_retries", m.flight_retries);
    v.optional("has sweep", m.sweep, core::sweep_fields);
};

constexpr auto metrics_fields = [](auto& v, auto& metrics) {
    v.list("metric count", metrics, max_metric_entries, [](auto& e, auto& m) {
        e.bytes("metric name length", m.name, max_metric_name_bytes);
        e.enum8("metric kind", m.kind, obs::metric_kind::latency);
        // Fixed shape for every kind: value for counters/gauges, the
        // latency reduction for histograms, zeros for the other half.
        e.u64("metric value", m.value);
        e.u64("metric sample count", m.count);
        e.u64("metric p50", m.p50_ns);
        e.u64("metric p95", m.p95_ns);
        e.u64("metric p99", m.p99_ns);
        // The raw buckets travel too (zeros for counters/gauges): the
        // router's aggregated scrape re-merges them bucket-wise, which is
        // exact where re-merging percentiles would not be.
        for (auto& bucket : m.hist.counts) {
            e.u64("metric bucket", bucket);
        }
    });
};

constexpr auto events_fields = [](auto& v, auto& events) {
    v.list("event count", events, max_event_entries, [](auto& e, auto& m) {
        e.u64("event trace_hi", m.trace_hi);
        e.u64("event trace_lo", m.trace_lo);
        e.u64("event correlation", m.correlation);
        e.u64("event key_hi", m.key_hi);
        e.u64("event key_lo", m.key_lo);
        e.u64("event node", m.node);
        e.enum8("event disposition", m.disposition,
                obs::max_event_disposition);
        e.u32("event retries", m.retries);
        e.u64("event start_ns", m.start_ns);
        e.u64("event queue_ns", m.queue_ns);
        e.u64("event run_ns", m.run_ns);
        e.u64("event total_ns", m.total_ns);
    });
};

constexpr auto cache_load_fields = [](auto& v, auto& m) {
    v.enum8("load mode", m.mode, serve::load_mode::salvage);
    // Length-prefixed so a truncated or padded image is rejected here,
    // before the cache's own "DSCF" loader ever sees the bytes.
    v.bytes("cache image length", m.cache_file, unbounded<std::uint64_t>);
};

constexpr auto load_report_fields = [](auto& v, auto& m) {
    v.u64("loaded", m.loaded);
    v.u64("skipped", m.skipped);
    v.boolean("salvaged", m.salvaged);
    v.u64("salvaged_at", m.salvaged_at);
    v.boolean("checksum_ok", m.checksum_ok);
};

} // namespace

const char* to_string(message_type type) noexcept {
    switch (type) {
    case message_type::ping: return "ping";
    case message_type::pong: return "pong";
    case message_type::register_trace: return "register_trace";
    case message_type::register_ok: return "register_ok";
    case message_type::has_trace: return "has_trace";
    case message_type::has_ok: return "has_ok";
    case message_type::submit: return "submit";
    case message_type::result: return "result";
    case message_type::cancel: return "cancel";
    case message_type::cancel_ok: return "cancel_ok";
    case message_type::cache_save: return "cache_save";
    case message_type::cache_contents: return "cache_contents";
    case message_type::cache_load: return "cache_load";
    case message_type::cache_loaded: return "cache_loaded";
    case message_type::pause: return "pause";
    case message_type::resume: return "resume";
    case message_type::ok: return "ok";
    case message_type::error: return "error";
    case message_type::get_metrics: return "get_metrics";
    case message_type::metrics_ok: return "metrics_ok";
    case message_type::get_events: return "get_events";
    case message_type::events_ok: return "events_ok";
    }
    return "unknown";
}

// --- Framing ----------------------------------------------------------------

std::string encode_frame(message_type type, std::uint64_t id,
                         std::string_view payload) {
    std::string out;
    out.reserve(frame_header_bytes + payload.size());
    out.append(frame_magic, sizeof(frame_magic));
    put_le<4>(out, wire_version);
    put_le<1>(out, static_cast<std::uint8_t>(type));
    put_le<8>(out, id);
    put_le<8>(out, payload.size());
    out.append(payload);
    return out;
}

frame_header parse_header(std::string_view bytes) {
    if (bytes.size() < frame_header_bytes) {
        throw wire_error{"truncated frame header: needs " +
                         std::to_string(frame_header_bytes) +
                         " bytes, stream ended at byte offset " +
                         std::to_string(bytes.size())};
    }
    if (std::memcmp(bytes.data(), frame_magic, sizeof(frame_magic)) != 0) {
        throw wire_error{
            "bad frame magic at byte offset 0 (want \"DSNW\")"};
    }
    const std::uint64_t version = codec::load_le<4>(bytes.data() + 4);
    if (version != wire_version) {
        throw wire_error{"unsupported wire version " +
                         std::to_string(version) + " at byte offset 4"};
    }
    const auto raw_type = static_cast<unsigned char>(bytes[8]);
    frame_header header;
    header.type = static_cast<message_type>(raw_type);
    if (std::string_view{to_string(header.type)} == "unknown") {
        throw wire_error{"unknown message type " + std::to_string(raw_type) +
                         " at byte offset 8"};
    }
    header.id = codec::load_le<8>(bytes.data() + 9);
    header.payload_bytes = codec::load_le<8>(bytes.data() + 17);
    if (header.payload_bytes > max_frame_payload) {
        throw wire_error{"implausible payload size " +
                         std::to_string(header.payload_bytes) +
                         " at byte offset 17 (limit " +
                         std::to_string(max_frame_payload) + ")"};
    }
    return header;
}

frame parse_frame(std::string_view bytes) {
    const frame_header header = parse_header(bytes);
    const std::string_view body = bytes.substr(frame_header_bytes);
    if (body.size() < header.payload_bytes) {
        throw wire_error{
            "truncated frame: payload declares " +
            std::to_string(header.payload_bytes) +
            " bytes but the buffer ends at byte offset " +
            std::to_string(bytes.size())};
    }
    if (body.size() > header.payload_bytes) {
        throw wire_error{"over-long frame: trailing bytes at byte offset " +
                         std::to_string(frame_header_bytes +
                                        header.payload_bytes)};
    }
    return {header, std::string{body}};
}

bool read_frame(const socket_fd& socket, frame& out) {
    char header[frame_header_bytes];
    const std::size_t got = read_exact(socket, header, sizeof header);
    if (got == 0) {
        return false;
    }
    if (got == sizeof header) {
        out.header = parse_header({header, sizeof header});
        out.payload =
            std::string(static_cast<std::size_t>(out.header.payload_bytes),
                        '\0');
        if (read_exact(socket, out.payload.data(), out.payload.size()) ==
            out.payload.size()) {
            return true;
        }
    }
    throw socket_error{ECONNRESET, "connection closed mid-frame"};
}

// --- Fault taxonomy ---------------------------------------------------------

error_message describe_fault(const std::exception_ptr& error) {
    // Most specific type first: the service's own exceptions, then the
    // standard hierarchy the classifier keys on.
    try {
        std::rethrow_exception(error);
    } catch (const wire_error& fault) {
        return {fault_code::protocol, fault.what()};
    } catch (const serve::service_overloaded& fault) {
        return {fault_code::overloaded, fault.what()};
    } catch (const serve::service_timeout& fault) {
        return {fault_code::timeout, fault.what()};
    } catch (const serve::service_cancelled& fault) {
        return {fault_code::cancelled, fault.what()};
    } catch (const trace::io_fault& fault) {
        return {fault_code::io, fault.what()};
    } catch (const std::invalid_argument& fault) {
        return {fault_code::invalid_argument, fault.what()};
    } catch (const std::logic_error& fault) {
        return {fault_code::logic, fault.what()};
    } catch (const std::exception& fault) {
        return {fault_code::runtime, fault.what()};
    } catch (...) {
        return {fault_code::runtime, "unknown fault"};
    }
}

void rethrow_fault(const error_message& message) {
    switch (message.code) {
    case fault_code::protocol:
        throw wire_error{message.what};
    case fault_code::invalid_argument:
        throw std::invalid_argument{message.what};
    case fault_code::overloaded:
        throw serve::service_overloaded{message.what};
    case fault_code::timeout:
        throw serve::service_timeout{message.what};
    case fault_code::cancelled:
        throw serve::service_cancelled{message.what};
    case fault_code::io:
        throw trace::io_fault{message.what};
    case fault_code::logic:
        throw std::logic_error{message.what};
    case fault_code::runtime:
        break;
    }
    throw std::runtime_error{message.what};
}

// --- Typed payload codecs -----------------------------------------------------

std::string encode_error(const error_message& message) {
    return encode(message, error_fields);
}
error_message decode_error(std::string_view payload) {
    return decode<error_message>(payload, "error payload", error_fields);
}

std::string encode_records(const trace::mem_trace& records) {
    return encode(records, records_fields);
}
trace::mem_trace decode_records(std::string_view payload) {
    return decode<trace::mem_trace>(payload, "register_trace payload",
                                    records_fields);
}

std::string encode_digest(const trace::trace_digest& digest) {
    return encode(digest, digest_fields);
}
trace::trace_digest decode_digest(std::string_view payload) {
    return decode<trace::trace_digest>(payload, "digest payload",
                                       digest_fields);
}

std::string encode_flag(bool value) { return encode(value, flag_fields); }
bool decode_flag(std::string_view payload) {
    return decode<bool>(payload, "flag payload", flag_fields);
}

std::string encode_cancel_target(std::uint64_t submit_id) {
    return encode(submit_id, cancel_fields);
}
std::uint64_t decode_cancel_target(std::string_view payload) {
    return decode<std::uint64_t>(payload, "cancel payload", cancel_fields);
}

std::string encode_submit(const submit_message& message) {
    if (message.request.sweep.filter) {
        // Same contract as serve::canonical: an opaque callable cannot
        // travel, and pretending it did would serve wrong answers.
        throw std::invalid_argument{
            "a service request with a stream filter cannot be sent over "
            "the wire"};
    }
    return encode(message, submit_fields);
}
submit_message decode_submit(std::string_view payload) {
    return decode<submit_message>(payload, "submit payload", submit_fields);
}

std::string encode_result(const serve::service_result& result) {
    return encode(result, result_fields);
}
serve::service_result decode_result(std::string_view payload) {
    return decode<serve::service_result>(payload, "result payload",
                                         result_fields);
}

std::string encode_metrics(const std::vector<obs::metric>& metrics) {
    return encode(metrics, metrics_fields);
}
std::vector<obs::metric> decode_metrics(std::string_view payload) {
    return decode<std::vector<obs::metric>>(payload, "metrics payload",
                                            metrics_fields);
}

std::string encode_events(const std::vector<obs::request_event>& events) {
    return encode(events, events_fields);
}
std::vector<obs::request_event> decode_events(std::string_view payload) {
    return decode<std::vector<obs::request_event>>(payload, "events payload",
                                                   events_fields);
}

std::string encode_cache_load(serve::load_mode mode,
                              std::string_view cache_file) {
    // A view, so the image is not copied before it is encoded.
    const struct {
        serve::load_mode mode;
        std::string_view cache_file;
    } view{mode, cache_file};
    return encode(view, cache_load_fields);
}
cache_load_message decode_cache_load(std::string_view payload) {
    return decode<cache_load_message>(payload, "cache_load payload",
                                      cache_load_fields);
}

std::string encode_load_report(const serve::cache_load_report& report) {
    return encode(report, load_report_fields);
}
serve::cache_load_report decode_load_report(std::string_view payload) {
    return decode<serve::cache_load_report>(payload, "cache_loaded payload",
                                            load_report_fields);
}

} // namespace dew::net
