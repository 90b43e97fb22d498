// dse_mix: the design-space-exploration front end the service exists for.
// Two closed-loop clients (each waits for its answer before asking again)
// draw exact sweep requests Zipf-like from a universe of engines {dew,
// cipar}, set depths {8, 11} and overlapping block-size x associativity
// subsets over three registered traces with different working sets, against
// an in-process serve::service with 2 workers and a small result cache.
// The result is a steady mix of cache hits, coalesced duplicates and cold
// computations, about half of them on CIPAR.  Overlapping grids share
// passes but no cached work, which paper_grid bypasses entirely.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "cipar/simulator.hpp"
#include "common/bits.hpp"
#include "dew/simulator.hpp"
#include "serve/key.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

using dew::trace::mediabench_app;

constexpr std::size_t mix_records = 300'000;
constexpr std::array<mediabench_app, 3> mix_apps{
    mediabench_app::cjpeg, mediabench_app::g721_enc, mediabench_app::djpeg};
constexpr unsigned mix_clients = 2;
constexpr int setup_repeats = 5;
// A cache much smaller than the request universe keeps evicting, so the
// hit/coalesce/compute mix is stationary over the run instead of drifting
// to all-hits once the popular keys are in.
constexpr std::size_t cache_capacity = 64;
constexpr double zipf_exponent = 1.4;
constexpr std::uint64_t popularity_seed = 0x5EED;
constexpr unsigned reference_depth = 11;
constexpr std::size_t direct_sweep_sample = 12;
const std::vector<std::uint32_t> all_blocks{8, 16, 32, 64};
const std::vector<std::uint32_t> all_assocs{2, 4, 8};

struct mix_key {
    int trace;
    dew::serve::service_request request;
};

std::vector<mix_key> make_universe() {
    const std::vector<std::vector<std::uint32_t>> block_subsets{
        {8, 16}, {16, 32}, {32, 64}, {8, 16, 32}, {16, 32, 64}, {8, 16, 32, 64}};
    const std::vector<std::vector<std::uint32_t>> assoc_subsets{
        {2, 4}, {4, 8}, {2, 4, 8}};
    std::vector<mix_key> universe;
    for (int trace = 0; trace < static_cast<int>(mix_apps.size()); ++trace) {
        for (const auto engine : {dew::core::sweep_engine::dew,
                                  dew::core::sweep_engine::cipar}) {
            for (const unsigned depth : {8u, 11u}) {
                for (const auto& blocks : block_subsets) {
                    for (const auto& assocs : assoc_subsets) {
                        mix_key key{trace, {}};
                        key.request.sweep.engine = engine;
                        key.request.sweep.max_set_exp = depth;
                        key.request.sweep.block_sizes = blocks;
                        key.request.sweep.associativities = assocs;
                        universe.push_back(key);
                    }
                }
            }
        }
    }
    return universe;
}

// Zipf-like popularity over a fixed shuffled ranking of the universe.  The
// ranking is part of the workload, like the universe: with a skew this
// steep the top few keys carry half the requests, and a seed-chosen
// ranking would make each seed's cost mix (and throughput) a different
// workload.  The seed draws the request sequence and the traces.
class zipf_sampler {
public:
    explicit zipf_sampler(std::size_t n) : key_of_rank_(n) {
        std::iota(key_of_rank_.begin(), key_of_rank_.end(), std::size_t{0});
        std::mt19937_64 rng{popularity_seed};
        std::shuffle(key_of_rank_.begin(), key_of_rank_.end(), rng);
        double total = 0.0;
        for (std::size_t rank = 0; rank < n; ++rank) {
            total += 1.0 / std::pow(static_cast<double>(rank + 1),
                                    zipf_exponent);
            cumulative_.push_back(total);
        }
    }

    [[nodiscard]] std::size_t draw(std::mt19937_64& rng) const {
        const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 *
                         cumulative_.back();
        const auto it =
            std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
        const auto rank = std::min<std::size_t>(
            static_cast<std::size_t>(it - cumulative_.begin()),
            key_of_rank_.size() - 1);
        return key_of_rank_[rank];
    }

private:
    std::vector<std::size_t> key_of_rank_;
    std::vector<double> cumulative_;
};

std::string trace_name(int trace) {
    return dew::trace::short_name(mix_apps[static_cast<std::size_t>(trace)]);
}

std::vector<dew::trace::mem_trace> mix_traces(std::uint64_t seed) {
    std::vector<dew::trace::mem_trace> traces;
    for (const mediabench_app app : mix_apps) {
        traces.push_back(make_trace(app, mix_records, seed));
    }
    return traces;
}

std::unique_ptr<dew::serve::service>
start_service(const std::vector<dew::trace::mem_trace>& traces) {
    dew::serve::service_options options;
    options.workers = 2;
    options.cache.capacity = cache_capacity;
    auto service = std::make_unique<dew::serve::service>(options);
    for (std::size_t t = 0; t < traces.size(); ++t) {
        service->add_trace(trace_name(static_cast<int>(t)), traces[t]);
    }
    return service;
}

enum class answer_kind { hit, coalesced, computed };

struct sample {
    std::size_t key;
    answer_kind kind;
    double latency_us; // submit() call to get() return
    double submit_us;  // inside service::submit
    std::uint64_t start_ns;
};

struct mix_run {
    std::vector<sample> samples;
    std::uint64_t failed{0};
    double wall_s{0.0};
};

// The closed loop: `mix_clients` threads, each drawing its own request
// sequence from the seed, until `seconds` have passed.
mix_run run_mix(dew::serve::service& service,
                const std::vector<mix_key>& universe,
                const zipf_sampler& zipf, const reference_table& reference,
                std::uint64_t seed, double seconds, tracer& spans) {
    std::vector<std::vector<sample>> per_client(mix_clients);
    std::vector<std::string> names;
    for (int t = 0; t < static_cast<int>(mix_apps.size()); ++t) {
        names.push_back(trace_name(t));
    }
    std::atomic<std::uint64_t> failed{0};
    const auto start = steady::now();
    const auto deadline =
        start + std::chrono::duration_cast<steady::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < mix_clients; ++c) {
        clients.emplace_back([&, c] {
            std::mt19937_64 rng{mix_seed(seed, 1000 + c)};
            std::uint64_t sequence = 0;
            while (steady::now() < deadline) {
                const std::size_t key = zipf.draw(rng);
                const mix_key& ask = universe[key];
                const tracer::scope request{
                    spans, "dse.request",
                    (std::uint64_t{c + 1} << 32) | ++sequence};
                try {
                    const std::uint64_t t0 = now_ns();
                    dew::serve::submission handle;
                    {
                        const tracer::scope s{spans, "serve.submit"};
                        handle = service.submit(
                            names[static_cast<std::size_t>(ask.trace)],
                            ask.request);
                    }
                    const std::uint64_t t1 = now_ns();
                    dew::serve::service_result result;
                    {
                        const tracer::scope s{spans, "serve.get"};
                        result = handle.get();
                    }
                    const std::uint64_t t2 = now_ns();
                    if (result.sweep == nullptr ||
                        !reference.matches(ask.trace, ask.request.sweep,
                                           *result.sweep)) {
                        failed.fetch_add(1);
                        continue;
                    }
                    const answer_kind kind =
                        result.cache_hit   ? answer_kind::hit
                        : result.coalesced ? answer_kind::coalesced
                                           : answer_kind::computed;
                    per_client[c].push_back(
                        {key, kind, static_cast<double>(t2 - t0) / 1e3,
                         static_cast<double>(t1 - t0) / 1e3, t0});
                } catch (...) {
                    failed.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }
    mix_run run;
    run.wall_s = seconds_since(start);
    run.failed = failed.load();
    for (auto& samples : per_client) {
        run.samples.insert(run.samples.end(), samples.begin(), samples.end());
    }
    std::sort(run.samples.begin(), run.samples.end(),
              [](const sample& a, const sample& b) {
                  return a.start_ns < b.start_ns;
              });
    return run;
}

// Latencies of the answers of one kind, or of all answers.
std::vector<double> latencies(const mix_run& run,
                              std::optional<answer_kind> only = {}) {
    std::vector<double> out;
    for (const sample& s : run.samples) {
        if (!only || s.kind == *only) {
            out.push_back(s.latency_us);
        }
    }
    return out;
}

void count_answers(const mix_run& run, report& out) {
    out.attempt(run.samples.size() + run.failed);
    out.fail(run.failed);
    if (run.failed != 0) {
        out.warn("dse_mix: " + std::to_string(run.failed) +
                 " requests failed or disagreed with the reference");
    }
}

} // namespace

void dse_mix_e2e(const run_options& options, report& out) {
    std::vector<double> setups;
    std::vector<dew::trace::mem_trace> traces;
    std::unique_ptr<dew::serve::service> service;
    for (int i = 0; i < setup_repeats; ++i) {
        service.reset();
        const auto start = steady::now();
        traces = mix_traces(options.seed);
        service = start_service(traces);
        setups.push_back(seconds_since(start));
    }
    reference_table reference;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        reference.add(static_cast<int>(t), traces[t], all_blocks, all_assocs,
                      reference_depth);
    }

    const std::vector<mix_key> universe = make_universe();
    const zipf_sampler zipf{universe.size()};
    tracer off{false};
    const mix_run run = run_mix(*service, universe, zipf, reference,
                                options.seed, options.seconds, off);
    count_answers(run, out);

    const std::vector<double> all = latencies(run);
    const std::vector<double> cold = latencies(run, answer_kind::computed);
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    // A sweep here is an answer the service had to compute.
    out.metric("sweep_s", median(cold) / 1e6, "s");
    out.metric("latency_p50_us", median(all), "us");
    out.metric("latency_p99_us", percentile(all, 0.99), "us");
    out.metric("throughput_rps", static_cast<double>(all.size()) / run.wall_s,
               "1/s");
    out.note("latency_samples", static_cast<double>(all.size()));
    out.note("computed_samples", static_cast<double>(cold.size()));
}

void dse_mix_ledger(const run_options& options, tracer& spans, bool primary,
                    report& out) {
    const tracer::scope root{spans, "ledger.dse_mix"};
    std::vector<dew::trace::mem_trace> traces;
    {
        const tracer::scope s{spans, "setup.trace"};
        traces = mix_traces(options.seed);
    }

    // Reference passes, and the same passes on the CIPAR engine: its walk
    // cost, and its bit-identity with DEW checked for free.
    reference_table reference;
    std::uint64_t cipar_ns = 0;
    double cipar_accesses = 0.0;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        for (const std::uint32_t block : all_blocks) {
            const std::vector<std::uint64_t> blocks =
                dew::trace::block_numbers(traces[t], dew::log2_exact(block));
            for (const std::uint32_t assoc : all_assocs) {
                dew::core::fast_dew_simulator dew_pass{reference_depth, assoc,
                                                       block};
                {
                    const tracer::scope s{spans, "dew.simulate_blocks"};
                    dew_pass.simulate_blocks(blocks);
                }
                dew::cipar::fast_cipar_simulator cipar_pass{reference_depth,
                                                            assoc, block};
                {
                    const tracer::scope s{spans, "cipar.simulate_blocks"};
                    const std::uint64_t t0 = now_ns();
                    cipar_pass.simulate_blocks(blocks);
                    cipar_ns += now_ns() - t0;
                }
                cipar_accesses += static_cast<double>(blocks.size());
                const dew::core::dew_result want = dew_pass.result();
                const dew::core::dew_result got = cipar_pass.result();
                out.attempt();
                for (unsigned level = 0; level <= reference_depth; ++level) {
                    if (got.misses(level, assoc) != want.misses(level, assoc) ||
                        got.misses(level, 1) != want.misses(level, 1)) {
                        out.fail();
                        out.warn("dse_mix: CIPAR and DEW passes disagree");
                        break;
                    }
                }
                reference.insert(static_cast<int>(t), want);
            }
        }
    }
    out.metric("cipar.walk_ns_per_access",
               static_cast<double>(cipar_ns) / cipar_accesses, "ns");

    const std::vector<mix_key> universe = make_universe();
    const zipf_sampler zipf{universe.size()};
    const double phase_seconds = std::max(2.0, options.seconds / 3.0);
    mix_run untraced;
    if (primary) {
        tracer off{false};
        const auto service = start_service(traces);
        untraced = run_mix(*service, universe, zipf, reference, options.seed,
                           phase_seconds, off);
        count_answers(untraced, out);
    }
    std::unique_ptr<dew::serve::service> service;
    {
        const tracer::scope s{spans, "setup.service"};
        service = start_service(traces);
    }
    const mix_run run = run_mix(*service, universe, zipf, reference,
                                options.seed, phase_seconds, spans);
    count_answers(run, out);
    if (primary) {
        const auto per_request = [](const mix_run& r) {
            return r.wall_s / static_cast<double>(r.samples.size());
        };
        out.metric("bench.trace_overhead_pct",
                   (per_request(run) - per_request(untraced)) /
                       per_request(untraced) * 100.0,
                   "%");
    }

    const std::vector<double> hit = latencies(run, answer_kind::hit);
    const std::vector<double> coalesced =
        latencies(run, answer_kind::coalesced);
    const std::vector<double> computed = latencies(run, answer_kind::computed);
    const double answered = static_cast<double>(run.samples.size());
    std::vector<double> submit_us;
    for (const sample& s : run.samples) {
        submit_us.push_back(s.submit_us);
    }
    out.metric("serve.submit_call_us", median(submit_us), "us");
    out.metric("serve.hit_latency_p50_us", median(hit), "us");
    out.metric("serve.coalesced_latency_p50_ms", median(coalesced) / 1e3,
               "ms");
    out.metric("serve.computed_latency_p99_ms",
               percentile(computed, 0.99) / 1e3, "ms");
    out.metric("serve.hit_frac", static_cast<double>(hit.size()) / answered,
               "ratio");
    out.metric("serve.coalesced_frac",
               static_cast<double>(coalesced.size()) / answered, "ratio");
    out.metric("serve.computed_frac",
               static_cast<double>(computed.size()) / answered, "ratio");
    const dew::serve::service_stats stats = service->stats();
    out.metric("serve.shard_jobs", static_cast<double>(stats.shard_jobs),
               "count");
    out.metric("serve.stream_reuse_frac",
               static_cast<double>(stats.stream_reuses) /
                   static_cast<double>(stats.stream_builds +
                                       stats.stream_reuses),
               "ratio");

    // Passes a computed request shares with an earlier computed one: the
    // work shard-level reuse could save.
    std::set<std::tuple<int, int, unsigned, std::uint32_t, std::uint32_t>>
        simulated;
    std::vector<std::size_t> computed_keys;
    double passes = 0.0;
    double reused = 0.0;
    for (const sample& s : run.samples) {
        if (s.kind != answer_kind::computed) {
            continue;
        }
        if (std::find(computed_keys.begin(), computed_keys.end(), s.key) ==
            computed_keys.end()) {
            computed_keys.push_back(s.key);
        }
        const mix_key& ask = universe[s.key];
        for (const std::uint32_t block : ask.request.sweep.block_sizes) {
            for (const std::uint32_t assoc :
                 ask.request.sweep.associativities) {
                passes += 1.0;
                reused += simulated
                                  .emplace(ask.trace,
                                           static_cast<int>(
                                               ask.request.sweep.engine),
                                           ask.request.sweep.max_set_exp,
                                           block, assoc)
                                  .second
                              ? 0.0
                              : 1.0;
            }
        }
    }
    out.metric("serve.pass_reuse_frac", passes == 0.0 ? 0.0 : reused / passes,
               "ratio");

    // The same computations without the service: serial run_sweep.
    std::vector<double> direct_ms;
    for (std::size_t i = 0;
         i < computed_keys.size() && i < direct_sweep_sample; ++i) {
        const mix_key& ask = universe[computed_keys[i]];
        const tracer::scope s{spans, "core.run_sweep"};
        const auto start = steady::now();
        const dew::core::sweep_result result = dew::core::run_sweep(
            traces[static_cast<std::size_t>(ask.trace)], ask.request.sweep);
        direct_ms.push_back(seconds_since(start) * 1e3);
        out.attempt();
        if (!reference.matches(ask.trace, ask.request.sweep, result)) {
            out.fail();
            out.warn("dse_mix: a direct sweep disagrees with the reference");
        }
    }
    out.metric("serve.direct_sweep_ms", median(direct_ms), "ms");

    // serve::fingerprint over the universe: median per-call time of 20
    // rounds.
    {
        const tracer::scope s{spans, "serve.fingerprint"};
        std::vector<double> per_call_ns;
        std::uint64_t sink = 0;
        for (int round = 0; round < 20; ++round) {
            const std::uint64_t t0 = now_ns();
            for (const mix_key& key : universe) {
                sink ^= dew::serve::fingerprint(key.request)[0];
            }
            per_call_ns.push_back(static_cast<double>(now_ns() - t0) /
                                  static_cast<double>(universe.size()));
        }
        out.metric("serve.key_ns", median(per_call_ns), "ns");
        out.note("serve.key_sink_parity", static_cast<double>(sink & 1));
    }
    out.note("ledger.dse_mix.samples", answered);
}

} // namespace perfbench
