// obs::registry — named metrics unified behind one snapshot.
//
// Subsystems that own counters (the service's relaxed atomics, the result
// cache's shard stats, the router's per-backend tallies) register a
// *provider*: a callback that pushes the current value of each metric it
// owns as a metric_sample.  snapshot() runs every provider and hands the
// samples to merge(): duplicate names merge exactly (counters and gauges
// add; latency histograms merge bucket-wise — so two services in one
// process, or a scrape spanning a restart, still read as one coherent
// surface), the p50/p95/p99 of every latency metric are computed, and the
// lot comes back sorted by name — a *stable ordering*, byte-for-byte
// reproducible for a given set of values, which the text/JSON exporters
// (obs/export.hpp) and the get_metrics wire codec rely on.  The router's
// fleet totals and its front's scrape use the same merge().
//
// Metric kinds:
//   counter  — monotone count (serve.submitted, serve.cache.hits, ...)
//   gauge    — instantaneous level (serve.queue_depth, serve.inflight_flights)
//   latency  — an obs::histogram of nanoseconds (serve.shard_ns, ...)
//
// The registry mutex is held across provider calls so remove_provider()
// returning guarantees the provider will never run again — the lifetime
// contract that lets the service register a provider over its internal
// state and revoke it in its destructor.  Providers therefore must not
// call back into the registry.
#ifndef DEW_OBS_REGISTRY_HPP
#define DEW_OBS_REGISTRY_HPP

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace dew::obs {

enum class metric_kind : std::uint8_t {
    counter = 0,
    gauge = 1,
    latency = 2,
};

[[nodiscard]] const char* to_string(metric_kind kind) noexcept;

// What a provider pushes: one named value, histogram populated for
// latency metrics only.
struct metric_sample {
    std::string name;
    metric_kind kind{metric_kind::counter};
    std::uint64_t value{0};
    histogram_snapshot hist{};
};

// What snapshot() returns: the merged, percentile-reduced view.  Latency
// metrics keep the merged histogram alongside the reduced percentiles so a
// scrape can be re-merged exactly downstream (the router's fleet-total
// aggregation sums per-backend buckets, not percentiles).
struct metric {
    std::string name;
    metric_kind kind{metric_kind::counter};
    std::uint64_t value{0};  // counter / gauge
    std::uint64_t count{0};  // latency: samples recorded
    std::uint64_t p50_ns{0}; // latency percentiles (bucket upper bounds)
    std::uint64_t p95_ns{0};
    std::uint64_t p99_ns{0};
    histogram_snapshot hist{}; // latency: the merged buckets themselves

    friend bool operator==(const metric&, const metric&) = default;
};

// The one name-keyed exact merge: entries sharing a name collapse into the
// first one's kind — counter and gauge values add, latency histograms add
// bucket-wise and their count/p50/p95/p99 are recomputed from the merged
// buckets (percentiles are never averaged) — and the result is sorted by
// name.
[[nodiscard]] std::vector<metric> merge(std::vector<metric> metrics);

class registry {
public:
    registry() = default;
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    // The process-wide registry every built-in provider registers with —
    // what dew_serve dumps, the get_metrics wire message serves, and
    // net::client::metrics() fetches.  Leaked like the recorder: providers
    // deregister in their owners' destructors, which may run during static
    // teardown.
    [[nodiscard]] static registry& instance();

    using provider = std::function<void(std::vector<metric_sample>&)>;

    // Registers `fn`; the returned id revokes it.  remove_provider blocks
    // until any in-flight snapshot is done with `fn` (see header comment).
    std::uint64_t add_provider(provider fn);
    void remove_provider(std::uint64_t id);

    // Every provider's current values through merge() (header comment).
    [[nodiscard]] std::vector<metric> snapshot() const;

private:
    // Guards the provider list and is held across provider calls.
    mutable std::mutex mutex_; // dewlint: lock-order obs-registry 140
    std::uint64_t next_id_{1};
    std::vector<std::pair<std::uint64_t, provider>> providers_;
};

} // namespace dew::obs

#endif // DEW_OBS_REGISTRY_HPP
