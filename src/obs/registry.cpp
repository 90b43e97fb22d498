#include "obs/registry.hpp"

#include <algorithm>

namespace dew::obs {

const char* to_string(metric_kind kind) noexcept {
    switch (kind) {
    case metric_kind::counter: return "counter";
    case metric_kind::gauge: return "gauge";
    case metric_kind::latency: return "latency";
    }
    return "unknown";
}

registry& registry::instance() {
    static registry* global = new registry; // leaked, see header
    return *global;
}

std::uint64_t registry::add_provider(provider fn) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const std::uint64_t id = next_id_++;
    providers_.emplace_back(id, std::move(fn));
    return id;
}

void registry::remove_provider(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock{mutex_};
    std::erase_if(providers_,
                  [id](const auto& entry) { return entry.first == id; });
}

std::vector<metric> merge(std::vector<metric> metrics) {
    std::stable_sort(metrics.begin(), metrics.end(),
                     [](const metric& a, const metric& b) {
                         return a.name < b.name;
                     });
    std::vector<metric> out;
    out.reserve(metrics.size());
    for (metric& m : metrics) {
        if (!out.empty() && out.back().name == m.name) {
            out.back().value += m.value;
            out.back().hist.merge(m.hist);
        } else {
            out.push_back(std::move(m));
        }
    }
    for (metric& m : out) {
        if (m.kind == metric_kind::latency) {
            m.count = m.hist.total();
            m.p50_ns = m.hist.p50();
            m.p95_ns = m.hist.p95();
            m.p99_ns = m.hist.p99();
        }
    }
    return out;
}

std::vector<metric> registry::snapshot() const {
    std::vector<metric_sample> samples;
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        for (const auto& [id, fn] : providers_) {
            (void)id;
            fn(samples);
        }
    }
    std::vector<metric> out;
    out.reserve(samples.size());
    for (metric_sample& sample : samples) {
        metric m;
        m.name = std::move(sample.name);
        m.kind = sample.kind;
        m.value = sample.value;
        m.hist = sample.hist;
        out.push_back(std::move(m));
    }
    return merge(std::move(out));
}

} // namespace dew::obs
