// The "DSNW" wire codec: every message type round-trips bit-exactly and
// encodes to its golden frame, and every golden payload — decoded, cut at
// EVERY byte, extended with a trailing byte or corrupted byte by byte — is
// re-encoded byte for byte or rejected with a byte-offset-naming
// wire_error, the same hardened-reader contract as the "DSWR"/"DSCF"
// codecs.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dew/result_io.hpp"
#include "dew/sweep.hpp"
#include "net/golden_frames.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"
#include "support/bytes.hpp"
#include "trace/fault.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;
using test_support::to_hex;

// --- Sample messages ---------------------------------------------------------

trace::mem_trace sample_trace() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 600);
}

trace::trace_digest sample_digest() {
    return trace::compute_digest(sample_trace());
}

serve::service_request sample_request() {
    serve::service_request request;
    request.sweep.max_set_exp = 5;
    request.sweep.block_sizes = {8, 32};
    request.sweep.associativities = {2, 4};
    request.sweep.engine = core::sweep_engine::cipar;
    request.sweep.instrumentation = core::sweep_instrumentation::full_counters;
    request.sweep.options.use_wave = false;
    request.sweep.options.mre_depth = 3;
    request.deadline = std::chrono::nanoseconds{123456789};
    return request;
}

core::sweep_result sample_sweep() {
    core::sweep_request request;
    request.max_set_exp = 3;
    request.block_sizes = {16, 32};
    request.associativities = {2};
    core::sweep_result result = core::run_sweep(sample_trace(), request);
    result.seconds = 0.5; // wall clock, pinned so the frame bytes are golden
    return result;
}

serve::service_result sample_result(bool with_sweep) {
    serve::service_result result;
    result.coalesced = true;
    result.flight_retries = 2;
    if (with_sweep) {
        result.sweep =
            std::make_shared<const core::sweep_result>(sample_sweep());
    }
    return result;
}

std::vector<obs::metric> sample_metrics() {
    obs::metric submitted;
    submitted.name = "serve.submitted";
    submitted.kind = obs::metric_kind::counter;
    submitted.value = 42;
    obs::metric depth;
    depth.name = "serve.queue_depth";
    depth.kind = obs::metric_kind::gauge;
    depth.value = 3;
    obs::metric latency;
    latency.name = "serve.submit_ns";
    latency.kind = obs::metric_kind::latency;
    latency.count = 1000;
    latency.p50_ns = 1024;
    latency.p95_ns = 65536;
    latency.p99_ns = 262144;
    // The raw buckets travel too (the aggregated scrape re-merges them
    // exactly); make them asymmetric so a transposed read cannot pass.
    for (std::size_t i = 0; i < latency.hist.counts.size(); ++i) {
        latency.hist.counts[i] = i * i + 1;
    }
    return {submitted, depth, latency};
}

std::vector<obs::request_event> sample_events() {
    obs::request_event computed;
    computed.trace_hi = 0x0123456789ABCDEFull;
    computed.trace_lo = 0xFEDCBA9876543210ull;
    computed.correlation = 41;
    computed.key_hi = 42;
    computed.key_lo = 43;
    computed.node = 44;
    computed.start_ns = 45;
    computed.queue_ns = 46;
    computed.run_ns = 47;
    computed.total_ns = 48;
    computed.disposition = obs::event_disposition::computed;
    computed.retries = 2;
    obs::request_event rejected; // all-defaults except the terminal state
    rejected.disposition = obs::event_disposition::rejected;
    return {computed, rejected};
}

serve::cache_load_report sample_report() {
    serve::cache_load_report report;
    report.loaded = 7;
    report.skipped = 2;
    report.salvaged = true;
    report.salvaged_at = 12345;
    report.checksum_ok = false;
    return report;
}

// One frame of every live message type, built from the samples above
// under frame id 100 + type: the inputs of the golden frames
// (net/golden_frames.hpp).
std::vector<std::pair<message_type, std::string>> sample_frames() {
    const auto frame = [](message_type type, std::string_view payload) {
        const std::uint64_t id = 100 + static_cast<std::uint64_t>(type);
        return std::pair{type, encode_frame(type, id, payload)};
    };
    const trace::trace_digest digest = sample_digest();
    return {
        frame(message_type::ping, {}),
        frame(message_type::pong, {}),
        frame(message_type::register_trace, encode_records(sample_trace())),
        frame(message_type::register_ok, encode_digest(digest)),
        frame(message_type::has_trace, encode_digest(digest)),
        frame(message_type::has_ok, encode_flag(true)),
        frame(message_type::submit, encode_submit({digest, sample_request()})),
        frame(message_type::result, encode_result(sample_result(true))),
        frame(message_type::cancel, encode_cancel_target(0xDEADBEEFull)),
        frame(message_type::cancel_ok, encode_flag(false)),
        frame(message_type::cache_save, {}),
        frame(message_type::cache_contents, "dscf-image-bytes"),
        frame(message_type::cache_load,
              encode_cache_load(serve::load_mode::salvage,
                                "dscf-image-bytes")),
        frame(message_type::cache_loaded, encode_load_report(sample_report())),
        frame(message_type::pause, {}),
        frame(message_type::resume, {}),
        frame(message_type::ok, {}),
        frame(message_type::error,
              encode_error({fault_code::timeout, "deadline passed"})),
        frame(message_type::get_metrics, {}),
        frame(message_type::metrics_ok, encode_metrics(sample_metrics())),
        frame(message_type::get_events, {}),
        frame(message_type::events_ok, encode_events(sample_events())),
    };
}

// The sample requests whose fingerprints are golden: the wire sample (a
// counted cipar request), the defaults, the paper's grid, and the sample's
// counted-dew and fast-cipar twins.
std::vector<std::pair<std::string, serve::service_request>>
sample_requests() {
    serve::service_request paper;
    paper.sweep = core::sweep_request::paper();
    serve::service_request counted_dew = sample_request();
    counted_dew.sweep.engine = core::sweep_engine::dew;
    serve::service_request fast_cipar = sample_request();
    fast_cipar.sweep.instrumentation = core::sweep_instrumentation::fast;
    return {{"sample_request", sample_request()},
            {"default_request", serve::service_request{}},
            {"paper_request", paper},
            {"counted_dew_request", counted_dew},
            {"fast_cipar_request", fast_cipar}};
}

// --- Round trips -------------------------------------------------------------

TEST(Wire, FrameRoundTrips) {
    const frame parsed = parse_frame(
        encode_frame(message_type::submit, 42, "payload-bytes"));
    EXPECT_EQ(parsed.header.type, message_type::submit);
    EXPECT_EQ(parsed.header.id, 42u);
    EXPECT_EQ(parsed.header.payload_bytes, 13u);
    EXPECT_EQ(parsed.payload, "payload-bytes");

    const frame empty = parse_frame(encode_frame(message_type::ping, 0, {}));
    EXPECT_EQ(empty.header.type, message_type::ping);
    EXPECT_TRUE(empty.payload.empty());
}

TEST(Wire, RecordsRoundTrip) {
    const trace::mem_trace records = sample_trace();
    EXPECT_EQ(decode_records(encode_records(records)), records);
    EXPECT_EQ(decode_records(encode_records({})), trace::mem_trace{});
}

TEST(Wire, DigestFlagAndCancelRoundTrip) {
    const trace::trace_digest digest = sample_digest();
    EXPECT_EQ(decode_digest(encode_digest(digest)), digest);
    EXPECT_TRUE(decode_flag(encode_flag(true)));
    EXPECT_FALSE(decode_flag(encode_flag(false)));
    EXPECT_EQ(decode_cancel_target(encode_cancel_target(0xDEADBEEFull)),
              0xDEADBEEFull);
}

TEST(Wire, SubmitRoundTripsEveryRequestField) {
    const submit_message message{sample_digest(), sample_request()};
    const submit_message back = decode_submit(encode_submit(message));
    EXPECT_EQ(back.digest, message.digest);
    const serve::service_request& a = message.request;
    const serve::service_request& b = back.request;
    EXPECT_EQ(b.deadline, a.deadline);
    EXPECT_EQ(b.sweep.max_set_exp, a.sweep.max_set_exp);
    EXPECT_EQ(b.sweep.engine, a.sweep.engine);
    EXPECT_EQ(b.sweep.instrumentation, a.sweep.instrumentation);
    EXPECT_EQ(b.sweep.options.use_mra_stop, a.sweep.options.use_mra_stop);
    EXPECT_EQ(b.sweep.options.use_wave, a.sweep.options.use_wave);
    EXPECT_EQ(b.sweep.options.use_mre, a.sweep.options.use_mre);
    EXPECT_EQ(b.sweep.options.mre_depth, a.sweep.options.mre_depth);
    EXPECT_EQ(b.sweep.block_sizes, a.sweep.block_sizes);
    EXPECT_EQ(b.sweep.associativities, a.sweep.associativities);
    // The fingerprint is the real equality oracle: the request identity
    // must survive the wire bit-exactly.
    EXPECT_EQ(serve::fingerprint(b), serve::fingerprint(a));
}

TEST(Wire, SubmitRejectsAStreamFilter) {
    submit_message message{sample_digest(), sample_request()};
    message.request.sweep.filter = [](trace::source&) {
        return std::unique_ptr<trace::source>{};
    };
    EXPECT_THROW((void)encode_submit(message), std::invalid_argument);
}

TEST(Wire, ResultRoundTripsBitExactly) {
    for (const bool with_sweep : {false, true}) {
        const serve::service_result result = sample_result(with_sweep);
        const serve::service_result back =
            decode_result(encode_result(result));
        EXPECT_EQ(back.cache_hit, result.cache_hit);
        EXPECT_EQ(back.coalesced, result.coalesced);
        EXPECT_EQ(back.flight_retries, result.flight_retries);
        ASSERT_EQ(back.sweep != nullptr, with_sweep);
        if (with_sweep) {
            // Bit identity, literally: the whole record, seconds too.
            EXPECT_EQ(core::encode_sweep_record(*back.sweep),
                      core::encode_sweep_record(*result.sweep));
        }
    }
}

TEST(Wire, MetricsRoundTripEveryKindAndOrder) {
    const std::vector<obs::metric> metrics = sample_metrics();
    const std::vector<obs::metric> back =
        decode_metrics(encode_metrics(metrics));
    // obs::metric is equality-comparable; the registry's stable name order
    // must travel as-is.
    EXPECT_EQ(back, metrics);
    EXPECT_TRUE(decode_metrics(encode_metrics({})).empty());
}

TEST(Wire, MetricsRejectsImplausibleFields) {
    // An unknown kind byte: corrupt the encoded kind of the first entry
    // (u32 count, u32 name length, name bytes, then the kind).
    std::string bytes = encode_metrics(sample_metrics());
    const std::size_t kind_at =
        4 + 4 + std::string{"serve.submitted"}.size();
    bytes[kind_at] = 7;
    EXPECT_THROW((void)decode_metrics(bytes), wire_error);
}

TEST(Wire, EventsRoundTripEveryField) {
    const std::vector<obs::request_event> events = sample_events();
    EXPECT_EQ(decode_events(encode_events(events)), events);
    EXPECT_TRUE(decode_events(encode_events({})).empty());
}

TEST(Wire, EventsRejectImplausibleDisposition) {
    // Entry layout: u32 count, six u64 identity words, then the
    // disposition u8 (wire.cpp).  Corrupt it in place.
    const std::size_t disposition_at = 4 + 6 * 8;
    std::string bad_disposition = encode_events(sample_events());
    bad_disposition[disposition_at] =
        static_cast<char>(obs::max_event_disposition + 1);
    EXPECT_THROW((void)decode_events(bad_disposition), wire_error);
}

TEST(Wire, CacheLoadAndReportRoundTrip) {
    const cache_load_message message = decode_cache_load(
        encode_cache_load(serve::load_mode::salvage, "dscf-image-bytes"));
    EXPECT_EQ(message.mode, serve::load_mode::salvage);
    EXPECT_EQ(message.cache_file, "dscf-image-bytes");

    const serve::cache_load_report report = sample_report();
    const serve::cache_load_report back =
        decode_load_report(encode_load_report(report));
    EXPECT_EQ(back.loaded, report.loaded);
    EXPECT_EQ(back.skipped, report.skipped);
    EXPECT_EQ(back.salvaged, report.salvaged);
    EXPECT_EQ(back.salvaged_at, report.salvaged_at);
    EXPECT_EQ(back.checksum_ok, report.checksum_ok);
}

// --- Golden frames -----------------------------------------------------------

TEST(Wire, EveryLiveMessageEncodesToItsGoldenFrame) {
    const auto frames = sample_frames();
    ASSERT_EQ(frames.size(), std::size(golden::frames));
    // The samples cover every live type, in id order, and nothing else.
    std::size_t sampled = 0;
    for (unsigned raw = 0; raw <= 0xFF; ++raw) {
        const auto type = static_cast<message_type>(raw);
        if (std::string_view{to_string(type)} == "unknown") {
            continue;
        }
        ASSERT_LT(sampled, frames.size());
        EXPECT_EQ(frames[sampled].first, type);
        ++sampled;
    }
    EXPECT_EQ(sampled, frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto& [type, bytes] = frames[i];
        SCOPED_TRACE(to_string(type));
        EXPECT_EQ(to_string(type), golden::frames[i].type);
        EXPECT_EQ(to_hex(bytes), golden::frames[i].hex);
        EXPECT_EQ(parse_frame(bytes).header.type, type);
    }
}

TEST(Wire, SampleRequestFingerprintsAreGolden) {
    const auto requests = sample_requests();
    ASSERT_EQ(requests.size(), std::size(golden::fingerprints));
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE(requests[i].first);
        EXPECT_EQ(requests[i].first, golden::fingerprints[i].request);
        const auto words = serve::fingerprint(requests[i].second);
        EXPECT_EQ(words[0], golden::fingerprints[i].hi);
        EXPECT_EQ(words[1], golden::fingerprints[i].lo);
    }
}

// --- Fault taxonomy ----------------------------------------------------------

TEST(Wire, FaultMappingRoundTripsExceptionTypes) {
    const auto check = [](const std::exception_ptr& error,
                          fault_code expected_code) {
        const error_message described = describe_fault(error);
        EXPECT_EQ(described.code, expected_code);
        const error_message decoded =
            decode_error(encode_error(described));
        EXPECT_EQ(decoded.code, described.code);
        EXPECT_EQ(decoded.what, described.what);
        std::exception_ptr reproduced;
        try {
            rethrow_fault(decoded);
        } catch (...) {
            reproduced = std::current_exception();
        }
        // classify_fault must agree before and after the wire: the PR-6
        // retry taxonomy crosses the process boundary intact.
        EXPECT_EQ(serve::classify_fault(reproduced),
                  serve::classify_fault(error));
        return reproduced;
    };

    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(wire_error{"bad frame"}),
                     fault_code::protocol)),
                 wire_error);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         std::invalid_argument{"bad grid"}),
                     fault_code::invalid_argument)),
                 std::invalid_argument);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         serve::service_overloaded{"queue full"}),
                     fault_code::overloaded)),
                 serve::service_overloaded);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         serve::service_timeout{"deadline"}),
                     fault_code::timeout)),
                 serve::service_timeout);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(
                         serve::service_cancelled{"withdrawn"}),
                     fault_code::cancelled)),
                 serve::service_cancelled);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(trace::io_fault{"disk"}),
                     fault_code::io)),
                 trace::io_fault);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(std::logic_error{"contract"}),
                     fault_code::logic)),
                 std::logic_error);
    EXPECT_THROW(std::rethrow_exception(check(
                     std::make_exception_ptr(std::runtime_error{"engine"}),
                     fault_code::runtime)),
                 std::runtime_error);
}

// --- Golden payloads through every decoder ----------------------------------

std::string from_hex(std::string_view hex) {
    std::string out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<char>(
            std::stoi(std::string{hex.substr(i, 2)}, nullptr, 16)));
    }
    return out;
}

// Decodes `payload` as a `type` payload and encodes the result again;
// nullopt for a type this table has no typed decoder for.
std::optional<std::string> reencode(message_type type,
                                    std::string_view payload) {
    switch (type) {
    case message_type::register_trace:
        return encode_records(decode_records(payload));
    case message_type::register_ok:
    case message_type::has_trace:
        return encode_digest(decode_digest(payload));
    case message_type::has_ok:
    case message_type::cancel_ok:
        return encode_flag(decode_flag(payload));
    case message_type::submit:
        return encode_submit(decode_submit(payload));
    case message_type::result:
        return encode_result(decode_result(payload));
    case message_type::cancel:
        return encode_cancel_target(decode_cancel_target(payload));
    case message_type::cache_load: {
        const cache_load_message message = decode_cache_load(payload);
        return encode_cache_load(message.mode, message.cache_file);
    }
    case message_type::cache_loaded:
        return encode_load_report(decode_load_report(payload));
    case message_type::error:
        return encode_error(decode_error(payload));
    case message_type::metrics_ok:
        return encode_metrics(decode_metrics(payload));
    case message_type::events_ok:
        return encode_events(decode_events(payload));
    default:
        return std::nullopt;
    }
}

// The payload of every golden frame that carries one, except
// cache_contents: an opaque "DSCF" image, which serve.cache_test checks.
std::vector<std::pair<message_type, std::string>> golden_payloads() {
    std::vector<std::pair<message_type, std::string>> payloads;
    for (const golden::frame_bytes& golden_frame : golden::frames) {
        frame parsed = parse_frame(from_hex(golden_frame.hex));
        if (!parsed.payload.empty() &&
            parsed.header.type != message_type::cache_contents) {
            payloads.emplace_back(parsed.header.type,
                                  std::move(parsed.payload));
        }
    }
    return payloads;
}

TEST(Wire, EveryGoldenPayloadReencodesByteForByte) {
    const auto payloads = golden_payloads();
    ASSERT_FALSE(payloads.empty());
    for (const auto& [type, payload] : payloads) {
        SCOPED_TRACE(to_string(type));
        const std::optional<std::string> again = reencode(type, payload);
        ASSERT_TRUE(again.has_value())
            << "a live type with a payload has no decoder in this test";
        EXPECT_EQ(to_hex(*again), to_hex(payload));
    }
}

// Every cut of every golden payload, and the payload with one trailing
// byte, is rejected with a wire_error naming a byte offset.
TEST(Wire, EveryMessagePayloadRejectsEveryTruncation) {
    const auto expect_rejected = [](message_type type,
                                    std::string_view bytes) {
        try {
            (void)reencode(type, bytes);
            ADD_FAILURE() << "accepted " << bytes.size() << " bytes";
        } catch (const wire_error& fault) {
            EXPECT_NE(std::string{fault.what()}.find("byte offset"),
                      std::string::npos)
                << fault.what();
        }
    };
    for (const auto& [type, payload] : golden_payloads()) {
        SCOPED_TRACE(to_string(type));
        for (std::size_t cut = 0; cut < payload.size(); ++cut) {
            expect_rejected(type, std::string_view{payload}.substr(0, cut));
        }
        expect_rejected(type, payload + '\0');
    }
}

// Setting any byte of a golden payload to 0x00, 0xFF, 0x7F or 0x80 leaves
// a payload the decoder either reads or rejects with wire_error — never
// another exception.
TEST(Wire, EveryGoldenPayloadSurvivesByteCorruption) {
    for (const auto& [type, payload] : golden_payloads()) {
        SCOPED_TRACE(to_string(type));
        for (std::size_t at = 0; at < payload.size(); ++at) {
            for (const unsigned char value : {0x00, 0xFF, 0x7F, 0x80}) {
                std::string corrupt = payload;
                corrupt[at] = static_cast<char>(value);
                try {
                    (void)reencode(type, corrupt);
                } catch (const wire_error&) {
                } catch (const std::exception& fault) {
                    ADD_FAILURE() << "byte " << at << " = " << int{value}
                                  << ": " << fault.what();
                }
            }
        }
    }
}

TEST(Wire, FrameRejectsEveryHeaderTruncationAndOverrun) {
    const std::string bytes =
        encode_frame(message_type::has_trace, 9, encode_digest(sample_digest()));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        SCOPED_TRACE("frame cut at " + std::to_string(cut));
        EXPECT_THROW((void)parse_frame(bytes.substr(0, cut)), wire_error);
    }
    EXPECT_THROW((void)parse_frame(bytes + '\0'), wire_error);
    EXPECT_NO_THROW((void)parse_frame(bytes));
}

TEST(Wire, HeaderRejectsBadMagicVersionTypeAndSize) {
    const std::string good = encode_frame(message_type::ping, 1, {});

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    EXPECT_THROW((void)parse_header(bad_magic), wire_error);

    std::string bad_version = good;
    bad_version[4] = 99;
    EXPECT_THROW((void)parse_header(bad_version), wire_error);

    // A version-1 peer (the protocol before the estimate tier's fields
    // left it) is refused at the header, by name, never misparsed.
    std::string v1 = good;
    v1[4] = 1;
    try {
        (void)parse_header(v1);
        ADD_FAILURE() << "accepted a version-1 header";
    } catch (const wire_error& fault) {
        EXPECT_EQ(std::string{fault.what()},
                  "unsupported wire version 1 at byte offset 4");
    }

    std::string bad_type = good;
    bad_type[8] = 24; // one past message_type::events_ok
    EXPECT_THROW((void)parse_header(bad_type), wire_error);
    bad_type[8] = static_cast<char>(0xFF);
    EXPECT_THROW((void)parse_header(bad_type), wire_error);

    // Retired ids (10 and 11 carried the stats/stats_ok pair) are never
    // reused: they read as unknown types.
    for (const int retired : {10, 11}) {
        bad_type[8] = static_cast<char>(retired);
        try {
            (void)parse_header(bad_type);
            ADD_FAILURE() << "accepted retired type " << retired;
        } catch (const wire_error& fault) {
            EXPECT_EQ(std::string{fault.what()},
                      "unknown message type " + std::to_string(retired) +
                          " at byte offset 8");
        }
    }

    std::string huge = good;
    for (std::size_t i = 17; i < 25; ++i) {
        huge[i] = static_cast<char>(0xFF); // payload_bytes = 2^64 - 1
    }
    EXPECT_THROW((void)parse_header(huge), wire_error);
}

TEST(Wire, PayloadValidationNamesImplausibleFields) {
    // A bad enum value inside an otherwise well-framed payload.
    std::string bad_engine =
        encode_submit({sample_digest(), sample_request()});
    bad_engine[16 + 8 + 4] = 7; // engine byte after digest, deadline, depth
    EXPECT_THROW((void)decode_submit(bad_engine), wire_error);

    std::string bad_type = encode_records(trace::mem_trace{
        {0x1000, trace::access_type::read}});
    bad_type[8 + 8] = 9; // access type after count u64 + address u64
    EXPECT_THROW((void)decode_records(bad_type), wire_error);

    std::string bad_flag = encode_flag(true);
    bad_flag[0] = 2;
    EXPECT_THROW((void)decode_flag(bad_flag), wire_error);

    std::string bad_load = encode_cache_load(serve::load_mode::strict, "x");
    bad_load[0] = 5;
    EXPECT_THROW((void)decode_cache_load(bad_load), wire_error);

    std::string bad_fault = encode_error({fault_code::runtime, "x"});
    bad_fault[0] = 100;
    EXPECT_THROW((void)decode_error(bad_fault), wire_error);

    // A record count whose 9-byte product wraps to the one byte that
    // follows (9 x 0x8E38E38E38E38E39 = 1 mod 2^64): rejected before
    // anything is reserved, naming the count and its offset.
    std::string wrapped;
    for (std::size_t i = 0; i < 8; ++i) {
        wrapped.push_back(static_cast<char>(0x8E38E38E38E38E39ull >> (8 * i)));
    }
    wrapped.push_back('\0');
    try {
        (void)decode_records(wrapped);
        ADD_FAILURE() << "accepted a wrapped record count";
    } catch (const wire_error& fault) {
        const std::string what = fault.what();
        EXPECT_NE(what.find("record count"), std::string::npos) << what;
        EXPECT_NE(what.find("byte offset 25"), std::string::npos) << what;
    }
}

} // namespace
