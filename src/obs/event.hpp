// obs::request_event + obs::event_ring — wide per-request events.
//
// Metrics aggregate and spans time stages, but neither answers "what
// happened to *that* request": a wide event is one structured record per
// settled request — its key, disposition (cache hit, coalesced, timed
// out, ...), retry count, the node that served it, and the stage latencies
// that explain the total.  serve::service appends one to a
// bounded ring at every settle point; `get_events` ships the ring over the
// wire (src/net/wire.hpp) and `events_jsonl` (obs/export.hpp) renders it
// one JSON object per line for offline slicing.
//
// The ring is deliberately bounded and mutex-guarded: events are written
// once per *settled request* (not per stage), so a plain lock is far off
// the hot path, and wraparound drops oldest-first with a drop counter so a
// scrape can tell a quiet service from a lossy window.
#ifndef DEW_OBS_EVENT_HPP
#define DEW_OBS_EVENT_HPP

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dew::obs {

// How the request left the service.  One disposition per settled request;
// `retries` separately counts transient-fault requeues along the way.
enum class event_disposition : std::uint8_t {
    computed = 0,  // settled by a fresh computation
    cache_hit = 1, // answered from the result cache, no flight
    coalesced = 2, // rode an existing in-flight computation
    timeout = 3,   // deadline fired before the flight settled
    cancelled = 4, // caller abandoned the submission
    failed = 5,    // permanent fault; error delivered
    rejected = 6,  // refused at admission (queue full)
};

inline constexpr std::uint8_t max_event_disposition =
    static_cast<std::uint8_t>(event_disposition::rejected);

[[nodiscard]] const char* to_string(event_disposition d) noexcept;

// One settled request, wide: everything needed to explain its latency
// without joining against spans or logs.  All fields are plain values so
// the record survives the wire codec (encode_events) byte-exactly.
struct request_event {
    std::uint64_t trace_hi{0};    // 128-bit trace id (0/0 = untraced)
    std::uint64_t trace_lo{0};
    std::uint64_t correlation{0}; // DSNW frame id the requester is waiting on
    std::uint64_t key_hi{0};      // request fingerprint words (the cache key
    std::uint64_t key_lo{0};      // identity, docs/API.md §5)
    std::uint64_t node{0};        // service_options::node_id of the server
    std::uint64_t start_ns{0};    // steady-clock admission time
    std::uint64_t queue_ns{0};    // admission → worker pickup (0 if no flight)
    std::uint64_t run_ns{0};      // worker pickup → settle (0 if no flight)
    std::uint64_t total_ns{0};    // admission → settle
    event_disposition disposition{event_disposition::computed};
    std::uint32_t retries{0};     // transient-fault requeues this flight took

    friend bool operator==(const request_event&,
                           const request_event&) = default;
};

// Bounded FIFO of the most recent `capacity` events.  Thread-safe; push is
// one short critical section per settled request.
class event_ring {
public:
    explicit event_ring(std::size_t capacity);
    event_ring(const event_ring&) = delete;
    event_ring& operator=(const event_ring&) = delete;

    void push(const request_event& event);

    // Oldest-first copy of the retained window.
    [[nodiscard]] std::vector<request_event> snapshot() const;

    // Lifetime totals: recorded() counts every push, dropped() the pushes
    // that evicted an unread-by-nobody oldest record.  recorded - dropped
    // is the retained count until the ring first wraps.
    [[nodiscard]] std::uint64_t recorded() const;
    [[nodiscard]] std::uint64_t dropped() const;
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    const std::size_t capacity_;
    mutable std::mutex mutex_; // dewlint: lock-order obs-events 70
    std::vector<request_event> slots_;
    std::uint64_t head_{0}; // total pushes; slot = head_ % capacity_
};

} // namespace dew::obs

#endif // DEW_OBS_EVENT_HPP
