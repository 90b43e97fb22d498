// Shared pieces of the repository benchmark: the run options, the result
// report, the benchmark-side span tracer, the pass-level answer gate and
// the small process probes (RSS, threads, memory maps).
//
// Every timing here is taken from the benchmark's own files around calls
// into the library's public functions; the library's own obs recording is
// left in its shipped default state.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "dew/result.hpp"
#include "dew/sweep.hpp"
#include "trace/mediabench.hpp"
#include "trace/record.hpp"

namespace perfbench {

struct run_options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool traced{false};
    std::string span_path; // where the traced run writes its spans
};

// --- time and statistics ----------------------------------------------------

using steady = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            steady::now().time_since_epoch())
            .count());
}

[[nodiscard]] inline double seconds_since(steady::time_point start) {
    return std::chrono::duration<double>(steady::now() - start).count();
}

// Nearest-rank percentile (q in [0, 1]) of the samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
    return percentile(std::move(samples), 0.5);
}

// splitmix64: derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// `count` records of the app's Mediabench profile, generated under a
// sub-seed of the workload seed (never the library's default_seed).
[[nodiscard]] dew::trace::mem_trace make_trace(dew::trace::mediabench_app app,
                                               std::size_t count,
                                               std::uint64_t seed);

// --- process probes -----------------------------------------------------------

[[nodiscard]] double peak_rss_mib();
[[nodiscard]] double peak_children_rss_mib(); // largest waited-for child
[[nodiscard]] long thread_count();    // /proc/self/status Threads
[[nodiscard]] long map_count();       // lines of /proc/self/maps
[[nodiscard]] long max_map_count();   // vm.max_map_count (65530 if unknown)

// --- result report ------------------------------------------------------------

class report {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    // Free-form context printed with the result: sample counts, budgets.
    void note(const std::string& key, double value);
    void warn(const std::string& message);
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(std::uint64_t n = 1) { failed_ += n; }

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] const std::vector<std::string>& warnings() const {
        return warnings_;
    }

    // One JSON object on one line.
    [[nodiscard]] std::string json(const run_options& options) const;

private:
    struct entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<entry> metrics_;
    std::vector<std::pair<std::string, double>> notes_;
    std::vector<std::string> warnings_;
    std::uint64_t attempted_{0};
    std::uint64_t failed_{0};
};

// --- benchmark-side spans -------------------------------------------------------

// Spans recorded around calls into the library: name, start, end, parent
// span and request id, kept in memory and written once at the end as a
// Chrome trace_event document (the format obs::chrome_trace_json writes).
// A disabled tracer records nothing, so untraced runs pay one branch.
class tracer {
public:
    explicit tracer(bool enabled) : enabled_{enabled} {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    class scope {
    public:
        scope(tracer& owner, const char* name, std::uint64_t request = 0);
        ~scope();
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer* owner_{nullptr};
        const char* name_{nullptr};
        std::uint64_t id_{0};
        std::uint64_t parent_{0};
        std::uint64_t request_{0};
        std::uint64_t outer_request_{0}; // the enclosing scope's request
        std::uint64_t start_ns_{0};
    };

    [[nodiscard]] std::size_t size() const;
    // Writes the spans to `path`; throws std::runtime_error on I/O failure.
    void write_chrome_trace(const std::string& path) const;

private:
    struct span {
        const char* name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t request;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint32_t tid;
    };
    void record(const span& s);

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<span> spans_; // guarded by mutex_
    std::uint64_t next_id_{1}; // guarded by mutex_
};

// --- the answer gate ------------------------------------------------------------

// Pass-level reference: (trace, block size, associativity) -> the exact
// per-level misses of one fast_dew_simulator pass at `max_set_exp`, built
// by calling simulate_blocks directly on the whole trace.  A pass at depth
// D answers every request of depth <= D (each level is its own cache).
class reference_table {
public:
    void add(int trace_id, const dew::trace::mem_trace& trace,
             const std::vector<std::uint32_t>& block_sizes,
             const std::vector<std::uint32_t>& associativities,
             unsigned max_set_exp);

    // Inserts one pass computed elsewhere (the traced replay).
    void insert(int trace_id, dew::core::dew_result pass);

    // True iff `result` answers `request` over trace `trace_id` exactly:
    // one pass per (block, assoc) of the canonical grid, every level's
    // A-way and direct-mapped misses equal to the reference.
    [[nodiscard]] bool matches(int trace_id,
                               const dew::core::sweep_request& request,
                               const dew::core::sweep_result& result) const;

private:
    std::map<std::tuple<int, std::uint32_t, std::uint32_t>,
             dew::core::dew_result>
        passes_;
};

// --- workloads ------------------------------------------------------------------

// Untraced end-to-end runs: fill `out` with every end-to-end metric.
void paper_grid_e2e(const run_options& options, report& out);
void dse_mix_e2e(const run_options& options, report& out);
void fleet_warm_e2e(const run_options& options, report& out);

// Traced ledgers: every per-layer metric of one path.  `primary` is true
// for the ledger of the workload being run, which also measures
// bench.trace_overhead_pct.
void paper_grid_ledger(const run_options& options, tracer& spans,
                       bool primary, report& out);
void dse_mix_ledger(const run_options& options, tracer& spans, bool primary,
                    report& out);
void fleet_warm_ledger(const run_options& options, tracer& spans,
                       bool primary, report& out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
