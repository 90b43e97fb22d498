#include "net/wire.hpp"

#include <bit>
#include <cerrno>
#include <chrono>
#include <concepts>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "dew/result_io.hpp"
#include "net/socket.hpp"
#include "phase/representative_sweep.hpp"
#include "trace/fault.hpp"

namespace dew::net {

namespace {

void put_le(std::string& out, std::uint64_t value, std::size_t width) {
    char bytes[8];
    for (std::size_t i = 0; i < width; ++i) {
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    out.append(bytes, width);
}

std::uint64_t load_le(const char* bytes, std::size_t width) {
    std::uint64_t value = 0;
    for (std::size_t i = width; i-- > 0;) {
        value = (value << 8) | static_cast<unsigned char>(bytes[i]);
    }
    return value;
}

// --- Field lists --------------------------------------------------------------
// Every payload is one field list: a generic lambda `(v, m)` that names
// each field once, in wire order, with its width and its bound.  `writer`
// walks it to encode (`m` const) and `cursor` to decode.  The kinds:
//   u32 / u64 / f64          little-endian; u64 also carries size_t and the
//                            i64 deadline
//   boolean                  one byte, 0 or 1
//   enum8(label, e, max)     one byte, at most `max`
//   bytes(label, s, limit)   a length as wide as `limit`'s type and at most
//                            `limit`, then that many bytes
//   list(label, c, limit, f) a count as wide as `limit`'s type and at most
//                            `limit`, then each element walked by `f`
//   optional(label, p, f)    a presence byte, then `*p` walked by `f`
//   sweep_record(label, s)   the self-delimiting "DSWR" record

template <class T>
constexpr T unbounded = std::numeric_limits<T>::max();

// Counts and lengths past these bounds are garbage framing, not big
// messages: the paper's whole Table-1 grid is 7 x 4, a registry snapshot
// holds tens of entries, and the server's event ring holds
// service_options::event_ring_capacity (default 1024).
constexpr std::uint32_t max_grid_values = 4096;
constexpr std::uint32_t max_estimate_configs = 1u << 20;
constexpr std::uint32_t max_metric_entries = 1u << 16;
constexpr std::uint32_t max_metric_name_bytes = 1u << 12;
constexpr std::uint32_t max_event_entries = 1u << 20;

template <class T, class F> std::size_t min_wire_bytes(F fields);

struct writer {
    std::string out;

    void u32(const char*, std::uint32_t value) { put_le(out, value, 4); }
    void u64(const char*, std::uint64_t value) { put_le(out, value, 8); }
    void u64(const char*, std::chrono::nanoseconds value) {
        put_le(out, static_cast<std::uint64_t>(value.count()), 8);
    }
    void f64(const char*, double value) {
        put_le(out, std::bit_cast<std::uint64_t>(value), 8);
    }
    void boolean(const char*, bool value) { put_le(out, value ? 1 : 0, 1); }
    template <class E, class Max> void enum8(const char*, E value, Max) {
        put_le(out, static_cast<std::uint8_t>(value), 1);
    }
    template <class Limit>
    void bytes(const char*, std::string_view value, Limit) {
        put_le(out, value.size(), sizeof(Limit));
        out.append(value);
    }
    template <class Limit, class C, class F>
    void list(const char*, const C& values, Limit, F fields) {
        put_le(out, values.size(), sizeof(Limit));
        out.reserve(out.size() + values.size() *
                                     min_wire_bytes<typename C::value_type>(
                                         fields));
        for (const auto& value : values) {
            fields(*this, value);
        }
    }
    template <class T, class F>
    void optional(const char*, const std::shared_ptr<const T>& value,
                  F fields) {
        put_le(out, value ? 1 : 0, 1);
        if (value) {
            fields(*this, *value);
        }
    }
    void sweep_record(const char*, const core::sweep_result& sweep) {
        std::ostringstream record;
        core::write_binary_result(record, sweep);
        out.append(record.str());
    }
};

template <class M, class F> std::string encode(const M& message, F fields) {
    writer w;
    fields(w, message);
    return std::move(w.out);
}

// The least wire size of a list element: the encoding of a default one,
// whose every length, count and presence byte is zero.
template <class T, class F> std::size_t min_wire_bytes(F fields) {
    static const std::size_t least = encode(T{}, fields).size();
    return least;
}

// Bounds-checked decoder.  Offsets are frame-relative: payload byte 0 sits
// at frame byte frame_header_bytes, and every fault names the field and
// the absolute frame offset — the same discipline as dew::result_io's
// payload_reader.
class cursor {
public:
    cursor(std::string_view payload, const char* message_name)
        : bytes_{payload}, name_{message_name} {}

    void u32(const char* field, std::uint32_t& value) {
        value = static_cast<std::uint32_t>(get_le(4, field));
    }
    template <std::unsigned_integral T> void u64(const char* field, T& value) {
        value = static_cast<T>(get_le(8, field));
    }
    void u64(const char* field, std::chrono::nanoseconds& value) {
        value = std::chrono::nanoseconds{
            static_cast<std::int64_t>(get_le(8, field))};
    }
    void f64(const char* field, double& value) {
        value = std::bit_cast<double>(get_le(8, field));
    }
    void boolean(const char* field, bool& value) { enum8(field, value, 1); }
    template <class E, class Max>
    void enum8(const char* field, E& value, Max max) {
        const std::uint64_t raw = get_le(1, field);
        if (raw > static_cast<std::uint64_t>(max)) {
            fail(std::string{field} + " " + std::to_string(raw) +
                 at(offset() - 1) + " is out of range (max " +
                 std::to_string(static_cast<std::uint64_t>(max)) + ")");
        }
        value = static_cast<E>(raw);
    }
    template <class Limit>
    void bytes(const char* field, std::string& value, Limit limit) {
        const std::uint64_t length = get_count(field, limit, 1);
        value.assign(bytes_.substr(position_, length));
        position_ += length;
    }
    template <class Limit, class C, class F>
    void list(const char* field, C& values, Limit limit, F fields) {
        const std::uint64_t count = get_count(
            field, limit, min_wire_bytes<typename C::value_type>(fields));
        values.clear(); // a default service_request carries default grids
        values.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
            fields(*this, values.emplace_back());
        }
    }
    template <class T, class F>
    void optional(const char* field, std::shared_ptr<const T>& value,
                  F fields) {
        bool present = false;
        boolean(field, present);
        if (present) {
            T decoded{};
            fields(*this, decoded);
            value = std::make_shared<const T>(std::move(decoded));
        }
    }
    void sweep_record(const char* field, core::sweep_result& sweep) {
        // The record's own reader reports record-relative offsets, so
        // re-anchor them to the frame.
        const std::uint64_t record_at = offset();
        std::istringstream in{std::string{bytes_.substr(position_)}};
        try {
            sweep = core::read_binary_result(in);
        } catch (const std::runtime_error& fault) {
            fail(std::string{field} + " starting" + at(record_at) + ": " +
                 fault.what());
        }
        position_ += static_cast<std::size_t>(in.tellg());
    }

    // Every decoder's last step: the declared payload and the decoded
    // structure must agree exactly (trailing bytes are corruption, same as
    // the "DSWR" reader).
    void finish() const {
        if (position_ != bytes_.size()) {
            throw wire_error{std::string{name_} + " payload is " +
                             std::to_string(bytes_.size()) +
                             " bytes but its structure decodes " +
                             std::to_string(position_) + ": trailing bytes" +
                             at(offset())};
        }
    }

private:
    [[nodiscard]] std::uint64_t offset() const noexcept {
        return frame_header_bytes + position_;
    }
    [[nodiscard]] std::size_t remaining() const noexcept {
        return bytes_.size() - position_;
    }
    static std::string at(std::uint64_t offset) {
        return " at byte offset " + std::to_string(offset);
    }
    [[noreturn]] void fail(const std::string& what) const {
        throw wire_error{std::string{name_} + " payload: " + what};
    }
    [[noreturn]] void truncated(const std::string& what) const {
        throw wire_error{"truncated " + std::string{name_} + " payload: " +
                         what + " but the payload ends" +
                         at(frame_header_bytes + bytes_.size())};
    }

    std::uint64_t get_le(std::size_t width, const char* field) {
        if (remaining() < width) {
            truncated(std::string{field} + " needs " + std::to_string(width) +
                      " bytes" + at(offset()));
        }
        const std::uint64_t value = load_le(bytes_.data() + position_, width);
        position_ += width;
        return value;
    }
    // A length or count as wide as Limit, at most `limit`, whose entries
    // of at least `least` bytes fit in the rest of the payload.  Checked
    // before anything is reserved, so a forged count can neither wrap a
    // product nor reserve more than the frame carries.
    template <class Limit>
    std::uint64_t get_count(const char* field, Limit limit, std::size_t least) {
        const std::uint64_t count = get_le(sizeof(Limit), field);
        if (count > limit || count > remaining() / least) {
            const std::string what = std::string{field} + " " +
                                     std::to_string(count) +
                                     at(offset() - sizeof(Limit));
            if (count > limit) {
                fail("implausible " + what + " (limit " +
                     std::to_string(limit) + ")");
            }
            truncated(what + " needs " + std::to_string(least) +
                      " bytes per entry");
        }
        return count;
    }

    std::string_view bytes_;
    const char* name_;
    std::size_t position_{0};
};

template <class M, class F>
M decode(std::string_view payload, const char* name, F fields) {
    cursor in{payload, name};
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
    v.enum8("service mode", r.mode, serve::service_mode::representative);
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
    v.u64("interval_records", r.phase.interval_records);
    v.u32("signature_block_size", r.phase.signature_block_size);
    v.u32("signature_width", r.phase.signature_width);
    v.u32("max_phases", r.phase.max_phases);
    v.u32("kmeans_iterations", r.phase.kmeans_iterations);
    v.u64("chunk_records", r.phase.chunk_records);
    v.u64("warmup_records", r.warmup_records);
    v.f64("error_budget_pp", r.error_budget_pp);
    // Trace context last: telemetry-only fields extend the payload, they
    // never reshuffle the identity-bearing prefix.
    v.u64("obs_trace_hi", r.obs_trace_hi);
    v.u64("obs_trace_lo", r.obs_trace_lo);
    v.u64("obs_parent_span", r.obs_parent_span);
};

constexpr auto estimate_fields = [](auto& v, auto& m) {
    v.u64("estimate total_records", m.total_records);
    v.u64("estimate simulated_records", m.simulated_records);
    v.f64("estimate analysis_seconds", m.analysis_seconds);
    v.f64("estimate simulation_seconds", m.simulation_seconds);
    v.f64("estimate calibration_seconds", m.calibration_seconds);
    v.boolean("estimate calibrated", m.calibrated);
    v.f64("estimate max_abs_error_pp", m.max_abs_error_pp);
    v.list("estimate config count", m.configs, max_estimate_configs,
           [](auto& e, auto& c) {
               e.u32("estimate set count", c.config.set_count);
               e.u32("estimate associativity", c.config.associativity);
               e.u32("estimate block size", c.config.block_size);
               e.u64("estimated misses", c.estimated_misses);
               e.f64("estimated miss rate", c.estimated_miss_rate);
               e.u64("exact misses", c.exact_misses);
               e.f64("exact miss rate", c.exact_miss_rate);
               e.f64("abs error", c.abs_error_pp);
           });
};

// The exact sweep travels as its "DSWR" record; the estimate as its
// per-configuration numbers and accuracy statement.
constexpr auto result_fields = [](auto& v, auto& m) {
    v.boolean("cache_hit", m.cache_hit);
    v.boolean("coalesced", m.coalesced);
    v.boolean("estimated", m.estimated);
    v.boolean("fell_back_exact", m.fell_back_exact);
    v.boolean("degraded", m.degraded);
    v.u32("flight_retries", m.flight_retries);
    v.f64("max_abs_error_pp", m.max_abs_error_pp);
    v.optional("has sweep", m.sweep, [](auto& e, auto& sweep) {
        e.sweep_record("sweep record", sweep);
    });
    v.optional("has estimate", m.estimate, estimate_fields);
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
        e.enum8("event tier", m.tier, serve::service_mode::representative);
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
    put_le(out, wire_version, 4);
    put_le(out, static_cast<std::uint8_t>(type), 1);
    put_le(out, id, 8);
    put_le(out, payload.size(), 8);
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
    const std::uint64_t version = load_le(bytes.data() + 4, 4);
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
    header.id = load_le(bytes.data() + 9, 8);
    header.payload_bytes = load_le(bytes.data() + 17, 8);
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
    return decode<error_message>(payload, "error", error_fields);
}

std::string encode_records(const trace::mem_trace& records) {
    return encode(records, records_fields);
}
trace::mem_trace decode_records(std::string_view payload) {
    return decode<trace::mem_trace>(payload, "register_trace", records_fields);
}

std::string encode_digest(const trace::trace_digest& digest) {
    return encode(digest, digest_fields);
}
trace::trace_digest decode_digest(std::string_view payload) {
    return decode<trace::trace_digest>(payload, "digest", digest_fields);
}

std::string encode_flag(bool value) { return encode(value, flag_fields); }
bool decode_flag(std::string_view payload) {
    return decode<bool>(payload, "flag", flag_fields);
}

std::string encode_cancel_target(std::uint64_t submit_id) {
    return encode(submit_id, cancel_fields);
}
std::uint64_t decode_cancel_target(std::string_view payload) {
    return decode<std::uint64_t>(payload, "cancel", cancel_fields);
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
    return decode<submit_message>(payload, "submit", submit_fields);
}

std::string encode_result(const serve::service_result& result) {
    return encode(result, result_fields);
}
serve::service_result decode_result(std::string_view payload) {
    return decode<serve::service_result>(payload, "result", result_fields);
}

std::string encode_metrics(const std::vector<obs::metric>& metrics) {
    return encode(metrics, metrics_fields);
}
std::vector<obs::metric> decode_metrics(std::string_view payload) {
    return decode<std::vector<obs::metric>>(payload, "metrics",
                                            metrics_fields);
}

std::string encode_events(const std::vector<obs::request_event>& events) {
    return encode(events, events_fields);
}
std::vector<obs::request_event> decode_events(std::string_view payload) {
    return decode<std::vector<obs::request_event>>(payload, "events",
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
    return decode<cache_load_message>(payload, "cache_load",
                                      cache_load_fields);
}

std::string encode_load_report(const serve::cache_load_report& report) {
    return encode(report, load_report_fields);
}
serve::cache_load_report decode_load_report(std::string_view payload) {
    return decode<serve::cache_load_report>(payload, "cache_loaded",
                                            load_report_fields);
}

} // namespace dew::net
