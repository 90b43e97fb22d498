// fleet_warm: warm round trips through the networked fleet.  Two
// closed-loop net::clients, each on one connection for the fleet's whole
// life, send requests through a loopback net::router_server to two backend
// net::servers (1 worker each), all in one process.  Every request was
// computed during set-up, so every answer is a backend cache hit and the
// simulators do no work: the path is wire codec, sockets, thread handoff
// and the router hop.  Half the requests ask for a 1-pass grid (a small
// result frame), half for the paper grid (a ~10 KB frame).
//
// One run measures several such fleets in turn, each in its own child
// process, spread over the run's seconds, and pools their samples: how one
// process's threads and allocations happen to land moves its round trips
// by ~10%, more than anything a run could average away inside a process.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/router_server.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

using dew::trace::mediabench_app;

constexpr std::size_t fleet_records = 32 * 1024;
constexpr std::array<mediabench_app, 2> fleet_apps{mediabench_app::g721_enc,
                                                   mediabench_app::cjpeg};
constexpr std::size_t backend_count = 2;
constexpr unsigned fleet_clients = 2;
// Fleets (child processes) one untraced run measures.
constexpr int fleet_processes = 12;
// Keys of each kind every backend owns, so the two backends carry the same
// mix whatever the seed's trace digests hash to.
constexpr std::size_t paper_keys_per_backend = 2;
constexpr std::size_t small_keys_per_backend = 3;
// Routed submits one fleet may send.  At this revision every routed
// submit leaves an unjoined waiter thread in the router and one in the
// backend (two stacks and two guard pages: 4 memory maps) and allocates a
// 256 KiB span ring for the router's waiter, which is never freed.  The
// budget keeps a fleet far below vm.max_map_count and its RSS near 300
// MiB, and leaves ten samples beyond each fleet's p99; a
// completion-driven server would show as a drop in peak_rss_mib.
constexpr std::uint64_t routed_budget = 1000;
constexpr long maps_per_routed_submit = 4;
constexpr double rss_ceiling_mib = 2048.0;
// Sequential probes of the traced ledger.
constexpr int codec_rounds = 200;
constexpr int inproc_probes = 600;
constexpr int direct_probes = 300;
constexpr int routed_probes = 300;
constexpr std::uint64_t ledger_mix_budget = 400;

struct fleet_key {
    int trace;
    bool paper; // the paper grid; otherwise a 1-pass grid
    dew::serve::service_request request;
};

// Candidate keys: paper grids that differ only in the DEW victim-buffer
// depth (same answers, distinct identities) and 1-pass grids at S = 2^0..2^4.
std::vector<fleet_key> candidate_keys() {
    std::vector<fleet_key> keys;
    for (int trace = 0; trace < static_cast<int>(fleet_apps.size()); ++trace) {
        for (std::uint32_t depth = 1; depth <= 8; ++depth) {
            fleet_key key{trace, true, {}};
            key.request.sweep = dew::core::sweep_request::paper();
            key.request.sweep.options.mre_depth = depth;
            keys.push_back(key);
        }
        for (const std::uint32_t block : {8u, 16u, 32u, 64u}) {
            for (const std::uint32_t assoc : {2u, 4u, 8u}) {
                fleet_key key{trace, false, {}};
                key.request.sweep.max_set_exp = 4;
                key.request.sweep.block_sizes = {block};
                key.request.sweep.associativities = {assoc};
                keys.push_back(key);
            }
        }
    }
    return keys;
}

// Half paper grids, half 1-pass grids; uniform within each half.
class mix_draw {
public:
    explicit mix_draw(const std::vector<fleet_key>& keys) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
            (keys[k].paper ? paper_ : small_).push_back(k);
        }
    }
    [[nodiscard]] std::size_t operator()(std::mt19937_64& rng) const {
        const std::uint64_t bits = rng();
        const std::vector<std::size_t>& half = (bits & 1) ? paper_ : small_;
        return half[(bits >> 1) % half.size()];
    }

private:
    std::vector<std::size_t> paper_;
    std::vector<std::size_t> small_;
};

struct fleet {
    std::vector<dew::trace::mem_trace> traces;
    std::vector<dew::trace::trace_digest> digests;
    std::vector<fleet_key> keys;   // the warm request set
    std::vector<std::size_t> owner; // backend of each key
    // Declared before the router: the router is destroyed (and stops
    // talking to them) first.
    std::vector<std::unique_ptr<dew::net::server>> backends;
    std::unique_ptr<dew::net::router_server> router;

    [[nodiscard]] const dew::trace::trace_digest&
    digest(const fleet_key& key) const {
        return digests[static_cast<std::size_t>(key.trace)];
    }
};

bool answer_ok(const reference_table& reference, const fleet_key& key,
               const dew::serve::service_result& result) {
    return result.sweep != nullptr &&
           reference.matches(key.trace, key.request.sweep, *result.sweep);
}

// Trace generation, two backends, the router, registration through the
// router, the balanced choice of warm keys and one warm-up computation per
// key.
std::unique_ptr<fleet> start_fleet(std::uint64_t seed) {
    auto f = std::make_unique<fleet>();
    for (const mediabench_app app : fleet_apps) {
        f->traces.push_back(make_trace(app, fleet_records, seed));
    }
    dew::net::router_server_options route;
    for (std::size_t b = 0; b < backend_count; ++b) {
        dew::net::server_options options;
        options.service.workers = 1;
        f->backends.push_back(std::make_unique<dew::net::server>(options));
        route.route.backends.push_back(
            {"127.0.0.1", f->backends.back()->port()});
    }
    f->router = std::make_unique<dew::net::router_server>(route);
    dew::net::client setup{"127.0.0.1", f->router->port()};
    for (const dew::trace::mem_trace& trace : f->traces) {
        f->digests.push_back(setup.register_trace(trace));
    }
    std::vector<std::size_t> paper(backend_count, 0);
    std::vector<std::size_t> small(backend_count, 0);
    for (const fleet_key& key : candidate_keys()) {
        const std::size_t owner =
            f->router->route().backend_of(f->digest(key), key.request);
        std::size_t& taken = key.paper ? paper[owner] : small[owner];
        if (taken < (key.paper ? paper_keys_per_backend
                               : small_keys_per_backend)) {
            ++taken;
            f->keys.push_back(key);
            f->owner.push_back(owner);
        }
    }
    if (f->keys.size() !=
        backend_count * (paper_keys_per_backend + small_keys_per_backend)) {
        throw std::runtime_error{"fleet_warm: the candidate keys do not "
                                 "cover both backends evenly"};
    }
    for (const fleet_key& key : f->keys) {
        (void)setup.submit(f->digest(key), key.request).get();
    }
    return f;
}

void build_reference(const fleet& f, reference_table& reference) {
    const dew::core::sweep_request grid = dew::core::sweep_request::paper();
    for (std::size_t t = 0; t < f.traces.size(); ++t) {
        reference.add(static_cast<int>(t), f.traces[t], grid.block_sizes,
                      grid.associativities, grid.max_set_exp);
    }
}

struct fleet_run {
    std::vector<double> latency_us;
    std::vector<double> paper_latency_us;
    std::uint64_t failed{0};
    std::uint64_t not_hits{0};
    double wall_s{0.0};
    long threads_peak{0};
    long maps_peak{0};
};

void sample_process(fleet_run& run) {
    run.threads_peak = std::max(run.threads_peak, thread_count());
    run.maps_peak = std::max(run.maps_peak, map_count());
}

// The closed loop: `fleet_clients` threads, one router connection each,
// until `budget` routed submits have been answered.
fleet_run run_fleet(const fleet& f, const reference_table& reference,
                    std::uint64_t seed, std::uint64_t budget, tracer& spans,
                    report& out) {
    const long ceiling = max_map_count();
    const long needed =
        map_count() + static_cast<long>(budget) * maps_per_routed_submit;
    if (needed > ceiling * 9 / 10) {
        throw std::runtime_error{
            "fleet_warm: " + std::to_string(budget) +
            " routed submits would need ~" + std::to_string(needed) +
            " memory maps (one unjoined waiter thread per submit in the "
            "router and in the backend), over 90% of vm.max_map_count = " +
            std::to_string(ceiling) + "; lower the request budget"};
    }

    fleet_run run;
    sample_process(run);
    std::vector<std::unique_ptr<dew::net::client>> clients;
    for (unsigned c = 0; c < fleet_clients; ++c) {
        clients.push_back(std::make_unique<dew::net::client>(
            "127.0.0.1", f.router->port()));
    }
    const mix_draw draw{f.keys};
    std::vector<std::vector<std::pair<double, bool>>> per_client(fleet_clients);
    std::atomic<std::uint64_t> issued{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> not_hits{0};
    std::atomic<bool> stop{false};
    std::string guard_message;

    // The leak guard: stop cleanly before the process runs out of maps or
    // memory, instead of an EAGAIN crash.
    const auto guard = [&](std::uint64_t n) {
        const long maps = map_count();
        if (maps > ceiling * 9 / 10 || peak_rss_mib() > rss_ceiling_mib) {
            guard_message = "fleet_warm: stopped at " + std::to_string(n) +
                            " routed submits with " + std::to_string(maps) +
                            " memory maps and " +
                            std::to_string(peak_rss_mib()) +
                            " MiB peak RSS (leaked waiter threads)";
            stop.store(true);
        }
    };
    const auto ask = [&](unsigned c, std::uint64_t n, const fleet_key& key) {
        const tracer::scope request{spans, "fleet.request", n + 1};
        try {
            const std::uint64_t t0 = now_ns();
            dew::net::submission handle;
            {
                const tracer::scope s{spans, "net.client.submit"};
                handle = clients[c]->submit(f.digest(key), key.request);
            }
            dew::serve::service_result result;
            {
                const tracer::scope s{spans, "net.submission.get"};
                result = handle.get();
            }
            const std::uint64_t t1 = now_ns();
            if (!answer_ok(reference, key, result)) {
                failed.fetch_add(1);
                return;
            }
            if (!result.cache_hit) {
                not_hits.fetch_add(1);
            }
            per_client[c].emplace_back(static_cast<double>(t1 - t0) / 1e3,
                                       key.paper);
        } catch (...) {
            failed.fetch_add(1);
        }
    };

    const auto start = steady::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < fleet_clients; ++c) {
        threads.emplace_back([&, c] {
            std::mt19937_64 rng{mix_seed(seed, 2000 + c)};
            while (!stop.load()) {
                const std::uint64_t n = issued.fetch_add(1);
                if (n >= budget) {
                    break;
                }
                if (c == 0 && n % 128 == 127) {
                    guard(n);
                }
                ask(c, n, f.keys[draw(rng)]);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    run.wall_s = seconds_since(start);
    sample_process(run);
    run.failed = failed.load();
    run.not_hits = not_hits.load();
    for (const auto& samples : per_client) {
        for (const auto& [latency, paper] : samples) {
            run.latency_us.push_back(latency);
            if (paper) {
                run.paper_latency_us.push_back(latency);
            }
        }
    }
    out.attempt(run.latency_us.size() + run.failed);
    out.fail(run.failed);
    if (!guard_message.empty()) {
        out.fail();
        out.warn(guard_message);
    }
    if (run.failed != 0) {
        out.warn("fleet_warm: " + std::to_string(run.failed) +
                 " requests failed or disagreed with the reference");
    }
    if (run.not_hits != 0) {
        out.warn("fleet_warm: " + std::to_string(run.not_hits) +
                 " answers were not backend cache hits");
    }
    return run;
}

// One fleet's whole life: set-up, the closed loop, tear-down.  Returns
// its samples as "key value" lines for the parent to pool.
std::string measure_fleet(std::uint64_t seed) {
    std::ostringstream lines;
    lines.precision(17);
    report out;
    try {
        const auto start = steady::now();
        std::unique_ptr<fleet> f = start_fleet(seed);
        lines << "setup " << seconds_since(start) << '\n';
        reference_table reference;
        build_reference(*f, reference);
        tracer off{false};
        const fleet_run run =
            run_fleet(*f, reference, seed, routed_budget, off, out);
        f.reset();
        lines << "busy " << run.wall_s << "\nthreads " << run.threads_peak
              << "\nmaps " << run.maps_peak << "\nattempted "
              << out.attempted() << "\nfailed " << out.failed() << '\n';
        for (const double latency : run.latency_us) {
            lines << "lat " << latency << '\n';
        }
        for (const double latency : run.paper_latency_us) {
            lines << "paper " << latency << '\n';
        }
        lines << "p99 " << percentile(run.latency_us, 0.99) << '\n';
        for (const std::string& warning : out.warnings()) {
            lines << "warn " << warning << '\n';
        }
    } catch (const std::exception& error) {
        lines << "error " << error.what() << '\n';
    }
    return lines.str();
}

// Runs `body` in a forked child process and returns what it produced.
// Called only while the parent has no other threads.
template <class Body>
std::string in_child_process(Body&& body) {
    int fds[2];
    if (pipe(fds) != 0) {
        throw std::runtime_error{"fleet_warm: pipe() failed"};
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        throw std::runtime_error{"fleet_warm: fork() failed"};
    }
    if (pid == 0) {
        close(fds[0]);
        const std::string text = body();
        std::size_t written = 0;
        while (written < text.size()) {
            const ssize_t n =
                write(fds[1], text.data() + written, text.size() - written);
            if (n <= 0) {
                _exit(1);
            }
            written += static_cast<std::size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buffer[65536];
    for (;;) {
        const ssize_t n = read(fds[0], buffer, sizeof buffer);
        if (n <= 0) {
            break;
        }
        text.append(buffer, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error{"fleet_warm: a fleet process died"};
    }
    return text;
}

} // namespace

void fleet_warm_e2e(const run_options& options, report& out) {
    std::vector<double> setups;
    std::vector<double> latency_us;
    std::vector<double> paper_latency_us;
    std::vector<double> fleet_p99_us;
    std::vector<double> fleet_rps;
    double busy_s = 0.0;
    double threads_peak = 0.0;
    double maps_peak = 0.0;
    const auto start = steady::now();
    const auto slot = std::chrono::duration_cast<steady::duration>(
        std::chrono::duration<double>(options.seconds / fleet_processes));
    for (int k = 0; k < fleet_processes; ++k) {
        std::this_thread::sleep_until(start + slot * k);
        std::istringstream lines{in_child_process(
            [&] { return measure_fleet(options.seed); })};
        std::size_t answered = 0;
        double fleet_busy_s = 0.0;
        std::string key;
        while (lines >> key) {
            std::string value;
            std::getline(lines >> std::ws, value);
            if (key == "error") {
                throw std::runtime_error{value};
            }
            if (key == "warn") {
                out.warn(value);
                continue;
            }
            const double number = std::stod(value);
            if (key == "setup") {
                setups.push_back(number);
            } else if (key == "lat") {
                latency_us.push_back(number);
                ++answered;
            } else if (key == "paper") {
                paper_latency_us.push_back(number);
            } else if (key == "p99") {
                fleet_p99_us.push_back(number);
            } else if (key == "busy") {
                fleet_busy_s = number;
            } else if (key == "threads") {
                threads_peak = std::max(threads_peak, number);
            } else if (key == "maps") {
                maps_peak = std::max(maps_peak, number);
            } else if (key == "attempted") {
                out.attempt(static_cast<std::uint64_t>(number));
            } else if (key == "failed") {
                out.fail(static_cast<std::uint64_t>(number));
            }
        }
        busy_s += fleet_busy_s;
        fleet_rps.push_back(static_cast<double>(answered) / fleet_busy_s);
    }

    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mib", peak_children_rss_mib(), "MiB");
    // A sweep here is a warm whole-grid (paper grid) answer.
    out.metric("sweep_s", median(paper_latency_us) / 1e6, "s");
    out.metric("latency_p50_us", median(latency_us), "us");
    // The median fleet's p99 (each over 1000 samples): a stall of the
    // shared host during one fleet moves that fleet's tail, not the metric.
    out.metric("latency_p99_us", median(fleet_p99_us), "us");
    // Likewise the median fleet's rate of answers per busy second.
    out.metric("throughput_rps", median(fleet_rps), "1/s");
    out.note("latency_samples", static_cast<double>(latency_us.size()));
    out.note("fleets", fleet_processes);
    out.note("routed_budget_per_fleet", static_cast<double>(routed_budget));
    out.note("busy_s", busy_s);
    out.note("threads_peak", threads_peak);
    out.note("vm_maps_peak", maps_peak);
}

void fleet_warm_ledger(const run_options& options, tracer& spans,
                       bool primary, report& out) {
    const tracer::scope root{spans, "ledger.fleet_warm"};
    std::unique_ptr<fleet> f;
    {
        const tracer::scope s{spans, "setup.fleet"};
        f = start_fleet(options.seed);
    }
    const std::vector<fleet_key>& keys = f->keys;
    const std::vector<std::size_t>& owner = f->owner;
    reference_table reference;
    build_reference(*f, reference);

    // Warm answers straight from each key's owning backend.
    const auto inproc_submit = [&](std::size_t k) {
        return f->backends[owner[k]]
            ->local_service()
            .submit(dew::trace::to_string(f->digest(keys[k])), keys[k].request)
            .get();
    };
    std::vector<dew::serve::service_result> answers;
    for (std::size_t k = 0; k < keys.size(); ++k) {
        answers.push_back(inproc_submit(k));
    }

    // Codec: encode/decode of the submit and result frames, per hop.
    std::vector<double> codec_us(keys.size());
    std::vector<double> frame_bytes(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const tracer::scope s{spans, "wire.codec"};
        const dew::net::submit_message message{f->digest(keys[k]),
                                               keys[k].request};
        std::vector<double> per_round;
        for (int round = 0; round < codec_rounds; ++round) {
            const std::uint64_t t0 = now_ns();
            const std::string submit = dew::net::encode_submit(message);
            const dew::net::submit_message decoded =
                dew::net::decode_submit(submit);
            const std::string result = dew::net::encode_result(answers[k]);
            const dew::serve::service_result back =
                dew::net::decode_result(result);
            per_round.push_back(static_cast<double>(now_ns() - t0) / 1e3);
            frame_bytes[k] = static_cast<double>(result.size());
            if (back.sweep == nullptr ||
                decoded.request.sweep.max_set_exp !=
                    keys[k].request.sweep.max_set_exp) {
                throw std::runtime_error{"fleet_warm: codec round trip lost "
                                         "the message"};
            }
        }
        codec_us[k] = median(per_round);
    }
    const auto mix_mean = [&](const std::vector<double>& values) {
        double paper = 0.0, small = 0.0, n_paper = 0.0, n_small = 0.0;
        for (std::size_t k = 0; k < keys.size(); ++k) {
            (keys[k].paper ? paper : small) += values[k];
            (keys[k].paper ? n_paper : n_small) += 1.0;
        }
        return 0.5 * paper / n_paper + 0.5 * small / n_small;
    };
    const double codec = mix_mean(codec_us);

    const mix_draw draw{keys};
    std::mt19937_64 rng{mix_seed(options.seed, 3000)};
    const auto probe = [&](const char* name, int probes, auto&& ask) {
        std::vector<double> samples;
        for (int i = 0; i < probes; ++i) {
            const std::size_t k = draw(rng);
            const tracer::scope s{spans, name, static_cast<std::uint64_t>(i + 1)};
            const std::uint64_t t0 = now_ns();
            const dew::serve::service_result result = ask(k);
            samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
            out.attempt();
            if (!answer_ok(reference, keys[k], result)) {
                out.fail();
                out.warn(std::string{"fleet_warm: a "} + name +
                         " answer disagrees with the reference");
            }
        }
        return median(samples);
    };

    fleet_run peaks;
    const double inproc = probe("net.inproc_hit", inproc_probes, inproc_submit);
    double direct = 0.0;
    {
        std::vector<std::unique_ptr<dew::net::client>> to_backend;
        for (const auto& backend : f->backends) {
            to_backend.push_back(std::make_unique<dew::net::client>(
                "127.0.0.1", backend->port()));
        }
        direct = probe("net.direct_rtt", direct_probes, [&](std::size_t k) {
            return to_backend[owner[k]]
                ->submit(f->digest(keys[k]), keys[k].request)
                .get();
        });
    }
    double routed = 0.0;
    {
        dew::net::client to_router{"127.0.0.1", f->router->port()};
        routed = probe("net.routed_rtt", routed_probes, [&](std::size_t k) {
            return to_router.submit(f->digest(keys[k]), keys[k].request)
                .get();
        });
    }
    sample_process(peaks);

    // The workload's own traffic (2 clients), traced; the primary ledger
    // first sends the same traffic untraced for the tracing overhead.
    fleet_run untraced;
    if (primary) {
        tracer off{false};
        untraced = run_fleet(*f, reference, options.seed, ledger_mix_budget,
                             off, out);
    }
    const fleet_run mix = run_fleet(*f, reference, options.seed,
                                    ledger_mix_budget, spans, out);
    if (primary) {
        out.metric("bench.trace_overhead_pct",
                   (median(mix.latency_us) - median(untraced.latency_us)) /
                       median(untraced.latency_us) * 100.0,
                   "%");
    }
    peaks.threads_peak = std::max(peaks.threads_peak, mix.threads_peak);
    peaks.maps_peak = std::max(peaks.maps_peak, mix.maps_peak);

    const double routed_mix = median(mix.latency_us);
    const double backend_hop = direct - inproc - codec;
    const double router_hop = routed - direct - codec;
    // Layers are priced one request at a time; the closure is against the
    // two-client mix, so the residual is what contention adds.
    const double residual_pct =
        (routed_mix - (inproc + 2.0 * codec + backend_hop + router_hop)) /
        routed_mix * 100.0;
    out.metric("wire.result_frame_bytes", mix_mean(frame_bytes), "bytes");
    out.metric("wire.codec_us", codec, "us");
    out.metric("net.inproc_hit_us", inproc, "us");
    out.metric("net.direct_rtt_p50_us", direct, "us");
    out.metric("net.routed_rtt_p50_us", routed, "us");
    out.metric("net.backend_hop_us", backend_hop, "us");
    out.metric("net.router_hop_us", router_hop, "us");
    out.metric("net.ledger_residual_pct", residual_pct, "%");
    out.metric("net.threads_peak", static_cast<double>(peaks.threads_peak),
               "count");
    out.metric("net.vm_maps_peak", static_cast<double>(peaks.maps_peak),
               "count");
    out.note("ledger.fleet_warm.routed_mix_p50_us", routed_mix);
    if (residual_pct > 10.0 || residual_pct < -10.0) {
        out.warn("fleet_warm ledger residual " + std::to_string(residual_pct) +
                 "% of the routed p50 exceeds 10%: a layer is missing from "
                 "the ledger");
    }
}

} // namespace perfbench
