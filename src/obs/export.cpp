#include "obs/export.hpp"

#include <cstdio>

namespace dew::obs {

namespace {

// Span and metric names are identifier-like literals, but escape anyway —
// a malformed name must corrupt one string, not the document.
void append_json_string(std::string& out, const std::string& text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

// Microseconds with nanosecond residue, the trace_event time unit.
void append_us(std::string& out, std::uint64_t ns) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out += buf;
}

// The 128-bit trace id as 32 lower-case hex digits — one opaque token to
// grep a fleet trace by.
void append_trace_id(std::string& out, std::uint64_t hi, std::uint64_t lo) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    out += buf;
}

} // namespace

std::string chrome_trace_json(const std::vector<span_event>& events,
                              const std::string& process_name,
                              std::uint64_t pid) {
    const std::string pid_str = std::to_string(pid);
    std::string out;
    out.reserve(128 + events.size() * 160);
    out += "{\"traceEvents\":[";
    out += "{\"ph\":\"M\",\"pid\":" + pid_str +
           ",\"name\":\"process_name\",\"args\":{\"name\":";
    append_json_string(out, process_name);
    out += "}}";
    for (const span_event& event : events) {
        if (event.name == nullptr) {
            continue;
        }
        out += ",{\"ph\":\"X\",\"pid\":" + pid_str + ",\"tid\":";
        out += std::to_string(event.tid);
        out += ",\"name\":";
        append_json_string(out, event.name);
        out += ",\"ts\":";
        append_us(out, event.start_ns);
        out += ",\"dur\":";
        append_us(out, event.dur_ns);
        out += ",\"args\":{\"correlation\":";
        out += std::to_string(event.correlation);
        out += ",\"fingerprint\":";
        out += std::to_string(event.fingerprint);
        if ((event.trace_hi | event.trace_lo) != 0) {
            out += ",\"trace\":\"";
            append_trace_id(out, event.trace_hi, event.trace_lo);
            out += '"';
        }
        out += "}}";
    }
    out += "]}";
    return out;
}

std::string events_jsonl(const std::vector<request_event>& events) {
    std::string out;
    out.reserve(events.size() * 256);
    for (const request_event& e : events) {
        out += "{\"trace\":\"";
        append_trace_id(out, e.trace_hi, e.trace_lo);
        out += "\",\"correlation\":" + std::to_string(e.correlation);
        out += ",\"key_hi\":" + std::to_string(e.key_hi);
        out += ",\"key_lo\":" + std::to_string(e.key_lo);
        out += ",\"node\":" + std::to_string(e.node);
        out += ",\"disposition\":\"";
        out += to_string(e.disposition);
        out += "\",\"retries\":" + std::to_string(e.retries);
        out += ",\"start_ns\":" + std::to_string(e.start_ns);
        out += ",\"queue_ns\":" + std::to_string(e.queue_ns);
        out += ",\"run_ns\":" + std::to_string(e.run_ns);
        out += ",\"total_ns\":" + std::to_string(e.total_ns);
        out += "}\n";
    }
    return out;
}

std::string metrics_text(const std::vector<metric>& metrics) {
    std::string out;
    for (const metric& m : metrics) {
        out += m.name;
        out += ' ';
        out += to_string(m.kind);
        if (m.kind == metric_kind::latency) {
            out += " count=" + std::to_string(m.count);
            out += " p50_ns=" + std::to_string(m.p50_ns);
            out += " p95_ns=" + std::to_string(m.p95_ns);
            out += " p99_ns=" + std::to_string(m.p99_ns);
        } else {
            out += ' ';
            out += std::to_string(m.value);
        }
        out += '\n';
    }
    return out;
}

std::string metrics_json(const std::vector<metric>& metrics) {
    std::string out;
    out.reserve(2 + metrics.size() * 96);
    out += '[';
    bool first = true;
    for (const metric& m : metrics) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += "{\"name\":";
        append_json_string(out, m.name);
        out += ",\"kind\":\"";
        out += to_string(m.kind);
        out += '"';
        if (m.kind == metric_kind::latency) {
            out += ",\"count\":" + std::to_string(m.count);
            out += ",\"p50_ns\":" + std::to_string(m.p50_ns);
            out += ",\"p95_ns\":" + std::to_string(m.p95_ns);
            out += ",\"p99_ns\":" + std::to_string(m.p99_ns);
        } else {
            out += ",\"value\":" + std::to_string(m.value);
        }
        out += '}';
    }
    out += ']';
    return out;
}

} // namespace dew::obs
