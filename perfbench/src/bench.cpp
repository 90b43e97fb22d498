#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/bits.hpp"
#include "dew/simulator.hpp"
#include "trace/generator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(index, samples.size() - 1)];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

dew::trace::mem_trace make_trace(dew::trace::mediabench_app app,
                                 std::size_t count, std::uint64_t seed) {
    dew::trace::workload_generator generator{
        dew::trace::mediabench_profile(app),
        mix_seed(seed, static_cast<std::uint64_t>(app))};
    return generator.make(count);
}

// --- process probes -----------------------------------------------------------

namespace {

double max_rss_mib(int who) {
    rusage usage{};
    getrusage(who, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

double peak_rss_mib() { return max_rss_mib(RUSAGE_SELF); }
double peak_children_rss_mib() { return max_rss_mib(RUSAGE_CHILDREN); }

long thread_count() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return std::stol(line.substr(8));
        }
    }
    return 0;
}

long map_count() {
    std::ifstream maps{"/proc/self/maps"};
    long lines = 0;
    std::string line;
    while (std::getline(maps, line)) {
        ++lines;
    }
    return lines;
}

long max_map_count() {
    std::ifstream limit{"/proc/sys/vm/max_map_count"};
    long value = 0;
    return (limit >> value) ? value : 65530;
}

// --- result report ------------------------------------------------------------

namespace {

std::string number(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (c == '\n' ? ' ' : c);
    }
    return out + "\"";
}

} // namespace

void report::metric(const std::string& name, double value,
                    const std::string& unit) {
    if (!std::isfinite(value)) {
        warn("metric " + name + " is not finite; reported as 0");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
}

void report::note(const std::string& key, double value) {
    notes_.emplace_back(key, value);
}

void report::warn(const std::string& message) {
    warnings_.push_back(message);
}

std::string report::json(const run_options& options) const {
    std::ostringstream out;
    out << "{\"workload\": " << quoted(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"trace\": " << (options.traced ? 1 : 0)
        << ", \"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"build\": {\"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
        << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
        << ", \"compiler\": " << quoted(__VERSION__)
        << ", \"dew_obs\": " << DEW_OBS_ENABLED << "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << quoted(metrics_[i].name)
            << ": {\"value\": " << number(metrics_[i].value)
            << ", \"unit\": " << quoted(metrics_[i].unit) << "}";
    }
    out << "}, \"notes\": {";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << quoted(notes_[i].first) << ": "
            << number(notes_[i].second);
    }
    out << "}, \"warnings\": [";
    for (std::size_t i = 0; i < warnings_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << quoted(warnings_[i]);
    }
    out << "]}";
    return out.str();
}

// --- benchmark-side spans -------------------------------------------------------

namespace {

std::atomic<std::uint32_t> next_tid{0};
thread_local const std::uint32_t this_tid = ++next_tid;
// The innermost open span of this thread and its request id: a new span's
// parent, and the request it inherits when it names none.
thread_local std::uint64_t open_span = 0;
thread_local std::uint64_t open_request = 0;

} // namespace

tracer::scope::scope(tracer& owner, const char* name, std::uint64_t request) {
    if (!owner.enabled()) {
        return;
    }
    owner_ = &owner;
    name_ = name;
    {
        const std::lock_guard<std::mutex> lock{owner.mutex_};
        id_ = owner.next_id_++;
    }
    parent_ = open_span;
    outer_request_ = open_request;
    request_ = request != 0 ? request : open_request;
    open_span = id_;
    open_request = request_;
    start_ns_ = now_ns();
}

tracer::scope::~scope() {
    if (owner_ == nullptr) {
        return;
    }
    const std::uint64_t end = now_ns();
    open_span = parent_;
    open_request = outer_request_;
    owner_->record({name_, id_, parent_, request_, start_ns_, end, this_tid});
}

void tracer::record(const span& s) {
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back(s);
}

std::size_t tracer::size() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return spans_.size();
}

void tracer::write_chrome_trace(const std::string& path) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    std::uint64_t origin = ~std::uint64_t{0};
    for (const span& s : spans_) {
        origin = std::min(origin, s.start_ns);
    }
    std::ofstream out{path};
    if (!out) {
        throw std::runtime_error{"cannot write span file " + path};
    }
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        char line[512];
        std::snprintf(
            line, sizeof line,
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, "
            "\"parent\": %llu, \"request\": %llu}}%s\n",
            s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.request),
            i + 1 == spans_.size() ? "" : ",");
        out << line;
    }
    out << "], \"displayTimeUnit\": \"ns\", \"otherData\": "
           "{\"producer\": \"perfbench\"}}\n";
    if (!out) {
        throw std::runtime_error{"failed writing span file " + path};
    }
}

// --- the answer gate ------------------------------------------------------------

void reference_table::add(int trace_id, const dew::trace::mem_trace& trace,
                          const std::vector<std::uint32_t>& block_sizes,
                          const std::vector<std::uint32_t>& associativities,
                          unsigned max_set_exp) {
    for (const std::uint32_t block : block_sizes) {
        const std::vector<std::uint64_t> blocks =
            dew::trace::block_numbers(trace, dew::log2_exact(block));
        for (const std::uint32_t assoc : associativities) {
            dew::core::fast_dew_simulator sim{max_set_exp, assoc, block};
            sim.simulate_blocks(blocks);
            insert(trace_id, sim.result());
        }
    }
}

void reference_table::insert(int trace_id, dew::core::dew_result pass) {
    const auto key =
        std::make_tuple(trace_id, pass.block_size(), pass.associativity());
    passes_.insert_or_assign(key, std::move(pass));
}

bool reference_table::matches(int trace_id,
                              const dew::core::sweep_request& request,
                              const dew::core::sweep_result& result) const {
    const std::set<std::uint32_t> blocks(request.block_sizes.begin(),
                                         request.block_sizes.end());
    const std::set<std::uint32_t> assocs(request.associativities.begin(),
                                         request.associativities.end());
    if (result.passes.size() != blocks.size() * assocs.size()) {
        return false;
    }
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (const dew::core::dew_result& got : result.passes) {
        const std::uint32_t block = got.block_size();
        const std::uint32_t assoc = got.associativity();
        if (blocks.count(block) == 0 || assocs.count(assoc) == 0 ||
            !seen.emplace(block, assoc).second ||
            got.max_level() != request.max_set_exp) {
            return false;
        }
        const auto found = passes_.find(std::make_tuple(trace_id, block, assoc));
        if (found == passes_.end() ||
            found->second.max_level() < request.max_set_exp ||
            found->second.requests() != got.requests()) {
            return false;
        }
        for (unsigned level = 0; level <= request.max_set_exp; ++level) {
            if (got.misses(level, assoc) != found->second.misses(level, assoc) ||
                got.misses(level, 1) != found->second.misses(level, 1)) {
                return false;
            }
        }
    }
    return true;
}

} // namespace perfbench
