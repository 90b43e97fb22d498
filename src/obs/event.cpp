#include "obs/event.hpp"

namespace dew::obs {

const char* to_string(event_disposition d) noexcept {
    switch (d) {
    case event_disposition::computed: return "computed";
    case event_disposition::cache_hit: return "cache_hit";
    case event_disposition::coalesced: return "coalesced";
    case event_disposition::timeout: return "timeout";
    case event_disposition::cancelled: return "cancelled";
    case event_disposition::failed: return "failed";
    case event_disposition::rejected: return "rejected";
    }
    return "unknown";
}

event_ring::event_ring(std::size_t capacity)
    : capacity_{capacity == 0 ? 1 : capacity} {
    slots_.resize(capacity_);
}

void event_ring::push(const request_event& event) {
    const std::lock_guard<std::mutex> lock{mutex_};
    slots_[head_ % capacity_] = event;
    ++head_;
}

std::vector<request_event> event_ring::snapshot() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    const std::uint64_t retained =
        head_ < capacity_ ? head_ : static_cast<std::uint64_t>(capacity_);
    std::vector<request_event> out;
    out.reserve(static_cast<std::size_t>(retained));
    for (std::uint64_t i = 0; i < retained; ++i) {
        out.push_back(slots_[(head_ - retained + i) % capacity_]);
    }
    return out;
}

std::uint64_t event_ring::recorded() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return head_;
}

std::uint64_t event_ring::dropped() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return head_ < capacity_ ? 0 : head_ - capacity_;
}

} // namespace dew::obs
