#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "dew/pass.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "trace/digest.hpp"
#include "trace/fault.hpp"

namespace dew::serve {

fault_class classify_fault(const std::exception_ptr& error) noexcept {
    // Most-derived first; the generic std::runtime_error and the catch-all
    // land on permanent — when in doubt, do not retry.
    try {
        std::rethrow_exception(error);
    } catch (const trace::io_fault&) {
        return fault_class::transient;
    } catch (const service_overloaded&) {
        return fault_class::transient;
    } catch (const service_timeout&) {
        return fault_class::permanent; // a terminal outcome, not a hiccup
    } catch (const service_cancelled&) {
        return fault_class::permanent;
    } catch (const std::system_error&) {
        // std::ios_base::failure derives from here since C++11: stream and
        // OS-level I/O trouble is the canonical retryable fault.
        return fault_class::transient;
    } catch (const std::logic_error&) {
        // invalid_argument, contract_violation, ...: the request or the
        // code is wrong; the retry would fail identically.
        return fault_class::permanent;
    } catch (...) {
        return fault_class::permanent;
    }
}

namespace {

using clock = std::chrono::steady_clock;

constexpr clock::time_point no_deadline = clock::time_point::max();

// Every stat the service counts itself, in one shared block: submission
// handles (whose cancel() must keep counting after the service is
// destroyed) and the service itself update the same atomics through a
// shared_ptr.  Two books live elsewhere and are not duplicated here: cache
// hits are the result cache's own hit count, and completions are the
// wide-event ring's push count (every settle pushes exactly one event).
struct counters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> computations{0};
    std::atomic<std::uint64_t> shard_jobs{0};
    std::atomic<std::uint64_t> stream_builds{0};
    std::atomic<std::uint64_t> stream_reuses{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> cancellations{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> retry_successes{0};
    std::atomic<std::uint64_t> transient_faults{0};
    std::atomic<std::uint64_t> permanent_faults{0};
    std::atomic<std::uint64_t> expired_flights{0};

    // Stage latency histograms (obs/histogram.hpp): relaxed atomics like
    // the counters above, recorded at stage granularity — submit, cache
    // probe, queue wait, stream decode, shard execution, settle — never
    // per access (the hot loops stay unobserved by construction).
    obs::histogram submit_ns;
    obs::histogram cache_probe_ns;
    obs::histogram queue_wait_ns;
    obs::histogram stream_build_ns;
    obs::histogram shard_ns;
    obs::histogram settle_ns;
};

// The one binding of each service_stats field to its registry series and
// kind: what sample_metrics exports and what stats_from decodes.
struct stats_series {
    const char* name;
    obs::metric_kind kind;
    std::uint64_t service_stats::*field;
};

constexpr obs::metric_kind counter = obs::metric_kind::counter;
constexpr obs::metric_kind gauge = obs::metric_kind::gauge;

// dewlint: metric-table
constexpr stats_series stats_table[] = {
    {"serve.submitted", counter, &service_stats::submitted},
    {"serve.completed", counter, &service_stats::completed},
    {"serve.cache.hits", counter, &service_stats::cache_hits},
    {"serve.coalesced", counter, &service_stats::coalesced},
    {"serve.computations", counter, &service_stats::computations},
    {"serve.shard_jobs", counter, &service_stats::shard_jobs},
    {"serve.stream_builds", counter, &service_stats::stream_builds},
    {"serve.stream_reuses", counter, &service_stats::stream_reuses},
    {"serve.rejected", counter, &service_stats::rejected},
    {"serve.cache.evictions", counter, &service_stats::cache_evictions},
    {"serve.timeouts", counter, &service_stats::timeouts},
    {"serve.cancellations", counter, &service_stats::cancellations},
    {"serve.retries", counter, &service_stats::retries},
    {"serve.retry_successes", counter, &service_stats::retry_successes},
    {"serve.transient_faults", counter, &service_stats::transient_faults},
    {"serve.permanent_faults", counter, &service_stats::permanent_faults},
    {"serve.expired_flights", counter, &service_stats::expired_flights},
    {"serve.queue_depth", gauge, &service_stats::queue_depth},
    {"serve.inflight_flights", gauge, &service_stats::inflight_flights},
};

// One caller of one flight.  `deadline` is absolute (no_deadline = none);
// `settled` flips exactly once — whichever of answer / fault / timeout /
// cancel gets there first owns the promise and the continuation.
struct waiter {
    std::promise<service_result> promise;
    std::function<void()> then; // submission::on_settled; empty = none
    clock::time_point deadline{no_deadline};
    bool settled{false};
    // This caller's own telemetry identity (coalesced waiters each carried
    // their own submit frame and trace context): what their wide event is
    // stamped with, independent of the flight initiator's.
    std::uint64_t correlation{0};
    std::uint64_t trace_hi{0};
    std::uint64_t trace_lo{0};
};

// Marks `w` settled and moves out what settling it needs (its promise and
// continuation), under the flight lock; settle() then runs unlocked.
[[nodiscard]] waiter take(waiter& w) {
    waiter out = std::move(w);
    w.settled = true;
    return out;
}

// The one way a waiter settles, at all five sites (cache answer, cancel,
// deadline sweep, flight completion, flight unwind): publish the answer or
// the fault, then run the continuation.  Never called under a service
// lock: a continuation may queue a network reply, or submit again.
void settle(waiter& w, const std::exception_ptr& error,
            service_result result = {}) {
    if (error) {
        w.promise.set_exception(error);
    } else {
        w.promise.set_value(std::move(result));
    }
    if (w.then) {
        try {
            w.then();
        } catch (...) {
            // A continuation's failure is its own; the answer stands.
        }
    }
}

// One settled waiter -> one wide event + one SLO recording.  State-free,
// so a cancel after the service is destroyed still records its outcome.
void settle_event(obs::event_ring& ring, obs::slo_window& window,
                  obs::request_event event) {
    const std::uint64_t now = obs::now_ns();
    if (event.start_ns == 0) {
        event.start_ns = now >= event.total_ns ? now - event.total_ns : 0;
    }
    ring.push(event);
    window.record(now, event.total_ns);
}

// One registered trace: the records, their content digest, and the lazily-
// built block-number streams shared by every request that touches the trace.
struct trace_entry {
    std::string name;
    trace::mem_trace records;
    trace::trace_digest digest;
    // Guards the `streams` map only — never a decode.  Each slot is a
    // shared_future so a (trace, block size) stream is built exactly once
    // no matter how many jobs race for it, while decodes of *different*
    // block sizes run in parallel (the whole point of the one-shard-per-
    // block-size fan-out on a cold trace).
    std::mutex stream_mutex; // dewlint: lock-order serve-stream 50
    std::unordered_map<
        unsigned,
        std::shared_future<std::shared_ptr<const std::vector<std::uint64_t>>>>
        streams; // keyed by log2(block size)
};

} // namespace

// One coalesced computation: every submit of the same key while this flight
// is in the air appends a waiter instead of new work.
struct detail::flight {
    service_request request; // canonical form — what actually runs
    request_key key;
    std::shared_ptr<trace_entry> trace;
    clock::time_point start;

    // Guards waiters/live/earliest_deadline/shard_results/error.
    std::mutex mutex; // dewlint: lock-order serve-flight 40
    std::vector<waiter> waiters; // [0] = initiator; indices never move
    std::size_t live{0};         // waiters not yet settled
    clock::time_point earliest_deadline{no_deadline};
    // One slot per distinct block size (canonical grids are sorted and
    // unique), each filled by one shard job.
    std::vector<std::vector<core::dew_result>> shard_results;
    std::exception_ptr error; // first failing job wins

    // No live waiters left (all timed out / cancelled): queued jobs skip,
    // running ones are discarded, nothing is cached.  Set under `mutex`,
    // read lock-free by the job runner; never unset.
    std::atomic<bool> abandoned{false};
    std::atomic<unsigned> attempt{0};      // 0 = first try
    std::atomic<std::size_t> remaining{0}; // jobs not yet finished

    // Observability tags, fixed at creation: the submit frame's DSNW id
    // (0 = local) and the request fingerprint's first word — every span
    // this flight emits carries both, and start_ns anchors the
    // whole-flight span (0 when recording is off at creation).
    std::uint64_t obs_correlation{0};
    std::uint64_t obs_fingerprint{0};
    std::uint64_t start_ns{0};

    // Wide-event timestamps, independent of the recorder's on/off state
    // (the event ring always runs): admission time, and the first job
    // pickup (0 = never picked up) — together they split a settled
    // request's total into queue_ns and run_ns.
    std::uint64_t admitted_ns{0};
    std::atomic<std::uint64_t> pickup_ns{0};

    // The service's books, shared so that a cancel after the service is
    // gone still counts and records its outcome.
    std::shared_ptr<counters> ctrs;
    std::shared_ptr<obs::event_ring> events;
    std::shared_ptr<obs::slo_window> slo;
    std::uint64_t node{0};

    // Waiter `w`'s wide event: the flight-derived fields, the waiter's own
    // telemetry identity and the disposition.
    [[nodiscard]] obs::request_event
    event(const waiter& w, obs::event_disposition disposition) const {
        obs::request_event e;
        e.trace_hi = w.trace_hi;
        e.trace_lo = w.trace_lo;
        e.correlation = w.correlation;
        e.disposition = disposition;
        e.key_hi = key.request[0];
        e.key_lo = key.request[1];
        e.node = node;
        e.retries = attempt.load(std::memory_order_relaxed);
        e.start_ns = admitted_ns;
        const std::uint64_t now = obs::now_ns();
        e.total_ns = now >= admitted_ns ? now - admitted_ns : 0;
        const std::uint64_t pickup = pickup_ns.load(std::memory_order_relaxed);
        if (pickup >= admitted_ns && pickup != 0) {
            e.queue_ns = pickup - admitted_ns;
            e.run_ns = now >= pickup ? now - pickup : 0;
        }
        return e;
    }

    // submission::cancel of waiter `index`.
    bool cancel(std::size_t index) {
        waiter taken;
        obs::request_event e;
        {
            const std::lock_guard<std::mutex> lock{mutex};
            waiter& w = waiters[index];
            if (w.settled) {
                return false;
            }
            taken = take(w);
            --live;
            ctrs->cancellations.fetch_add(1, std::memory_order_relaxed);
            if (live == 0) {
                abandoned.store(true, std::memory_order_release);
            }
            e = event(w, obs::event_disposition::cancelled);
        }
        settle_event(*events, *slo, e);
        settle(taken, std::make_exception_ptr(
                          service_cancelled{"serve: submission cancelled"}));
        return true;
    }

    // Takes out every waiter not yet settled, each with its wide event
    // (`disposition(index)`), leaving none live.  The vector keeps its
    // shape, which outstanding cancel levers index into.
    template <class Disposition>
    [[nodiscard]] std::vector<std::pair<waiter, obs::request_event>>
    take_live(Disposition disposition) {
        std::vector<std::pair<waiter, obs::request_event>> out;
        const std::lock_guard<std::mutex> lock{mutex};
        out.reserve(live);
        for (std::size_t i = 0; i < waiters.size(); ++i) {
            if (!waiters[i].settled) {
                const obs::request_event e = event(waiters[i], disposition(i));
                out.emplace_back(take(waiters[i]), e);
            }
        }
        live = 0;
        return out;
    }
};

using detail::flight;

bool submission::cancel() { return flight_ && flight_->cancel(waiter_); }

void submission::on_settled(std::function<void()> fn) {
    if (flight_) {
        const std::lock_guard<std::mutex> lock{flight_->mutex};
        waiter& w = flight_->waiters[waiter_];
        if (!w.settled) {
            w.then = std::move(fn);
            return;
        }
    }
    // Settled already: run once the settling thread has published.
    future_.wait();
    try {
        fn();
    } catch (...) {
        // Dropped, as on the settling path.
    }
}

struct service::job {
    std::shared_ptr<flight> target;
    std::size_t shard{0}; // index into sweep.block_sizes
    // When the job entered the queue (0 = recording off): the queue-wait
    // span/histogram sample is taken by the worker that picks it up.
    std::uint64_t enqueued_ns{0};
};

struct service::state {
    service_options options;
    result_cache cache;
    std::shared_ptr<counters> ctrs = std::make_shared<counters>();

    // Wide per-request events and the rolling SLO window, shared like the
    // counters: cancel levers settle waiters after the service may be gone
    // and must still record the outcome.
    std::shared_ptr<obs::event_ring> events;
    std::shared_ptr<obs::slo_window> slo;

    mutable std::mutex traces_mutex; // dewlint: lock-order serve-traces 20
    std::unordered_map<std::string, std::shared_ptr<trace_entry>> traces;

    // Mutable: stats() and the metrics provider read the gauge levels
    // (flights.size(), queue.size(), active_jobs) from const context.
    mutable std::mutex flights_mutex; // dewlint: lock-order serve-flights 30
    std::unordered_map<request_key, std::shared_ptr<flight>,
                       request_key_hash>
        flights;

    mutable std::mutex queue_mutex; // dewlint: lock-order serve-queue 60
    std::condition_variable queue_space_cv; // submitters wait for room
    std::condition_variable queue_work_cv;  // workers wait for jobs
    std::condition_variable idle_cv;        // drain() waits here
    std::deque<job> queue;
    std::size_t active_jobs{0};
    // Flights registered but not yet finished/failed — guarded by
    // queue_mutex so drain() can wait on it.  Covers the window where a
    // blocking-mode submit is still pushing a flight's later shard jobs
    // while the earlier ones already ran (queue empty + no active job does
    // NOT imply that flight is done).
    std::size_t open_flights{0};
    bool paused{false};
    bool stop{false};
    // First unrecoverable worker-thread fault (the settling machinery
    // itself failed); rethrown by drain().  Guarded by queue_mutex.
    std::exception_ptr worker_error;
    std::vector<std::thread> workers;

    // True once any submission ever carried a deadline; gates the deadline
    // sweeps so a deadline-free workload pays one relaxed load per job.
    std::atomic<bool> has_deadlines{false};

    // obs::registry::instance() provider handle; 0 = not registered.
    // Registered by the service constructor, revoked first thing in the
    // destructor (remove_provider blocks out in-flight snapshots, so the
    // provider never outlives this state).
    std::uint64_t obs_provider_id{0};

    explicit state(const service_options& opts)
        : options{opts}, cache{opts.cache},
          events{std::make_shared<obs::event_ring>(
              opts.event_ring_capacity)},
          slo{std::make_shared<obs::slo_window>(
              opts.slo_target.count() > 0
                  ? static_cast<std::uint64_t>(opts.slo_target.count())
                  : 0,
              opts.slo_window.count() > 0
                  ? static_cast<std::uint64_t>(opts.slo_window.count())
                  : 1)} {}

    // The service's books, read once: what stats() returns and what the
    // registry provider exports through stats_table.  Takes the gauge
    // locks sequentially, never nested.
    [[nodiscard]] service_stats read() const {
        const auto load = [](const std::atomic<std::uint64_t>& v) {
            return v.load(std::memory_order_relaxed);
        };
        const counters& c = *ctrs;
        const cache_stats cached = cache.stats();
        service_stats out;
        out.submitted = load(c.submitted);
        out.completed = events->recorded();
        out.cache_hits = cached.hits;
        out.coalesced = load(c.coalesced);
        out.computations = load(c.computations);
        out.shard_jobs = load(c.shard_jobs);
        out.stream_builds = load(c.stream_builds);
        out.stream_reuses = load(c.stream_reuses);
        out.rejected = load(c.rejected);
        out.cache_evictions = cached.evictions;
        out.timeouts = load(c.timeouts);
        out.cancellations = load(c.cancellations);
        out.retries = load(c.retries);
        out.retry_successes = load(c.retry_successes);
        out.transient_faults = load(c.transient_faults);
        out.permanent_faults = load(c.permanent_faults);
        out.expired_flights = load(c.expired_flights);
        {
            const std::lock_guard<std::mutex> lock{flights_mutex};
            out.inflight_flights = flights.size();
        }
        {
            const std::lock_guard<std::mutex> lock{queue_mutex};
            out.queue_depth = queue.size();
        }
        return out;
    }

    // The obs::registry provider: the books above, the rest of the cache,
    // pool, event-ring and SLO levels, and every stage histogram, all under
    // one "serve." namespace (docs/OBSERVABILITY.md).  Runs with the
    // registry mutex held — takes the gauge locks sequentially, never
    // nested, and never calls back into obs.
    void sample_metrics(std::vector<obs::metric_sample>& out) const {
        const service_stats books = read();
        for (const stats_series& series : stats_table) {
            out.push_back({series.name, series.kind, books.*series.field, {}});
        }
        const cache_stats cstats = cache.stats();
        const auto plain = [&out](const char* name, obs::metric_kind kind,
                                  std::uint64_t value) {
            out.push_back({name, kind, value, {}});
        };
        plain("serve.cache.misses", obs::metric_kind::counter,
              cstats.misses);
        plain("serve.cache.insertions", obs::metric_kind::counter,
              cstats.insertions);
        plain("serve.cache.entries", obs::metric_kind::gauge,
              cstats.entries);
        std::uint64_t occupancy = 0;
        {
            const std::lock_guard<std::mutex> lock{queue_mutex};
            occupancy = active_jobs;
        }
        plain("serve.pool_occupancy", obs::metric_kind::gauge, occupancy);
        plain("serve.node_id", obs::metric_kind::gauge, options.node_id);
        // The wide-event ring's losses and bound: serve.completed (the
        // push count) - dropped is the retained window a get_events
        // scrape can still see.
        plain("serve.events.dropped", obs::metric_kind::counter,
              events->dropped());
        plain("serve.events.capacity", obs::metric_kind::gauge,
              events->capacity());
        // Rolling SLO window (docs/OBSERVABILITY.md, Fleet): the burn
        // counter is monotone; the window_* gauges cover the last
        // slo_window nanoseconds only.
        plain("serve.slo.target_ns", obs::metric_kind::gauge,
              slo->target_ns());
        plain("serve.slo.window_ns", obs::metric_kind::gauge,
              slo->window_ns());
        plain("serve.slo.p99_violations", obs::metric_kind::counter,
              slo->total_violations());
        const obs::slo_window::window_view slo_view =
            slo->view(obs::now_ns());
        plain("serve.slo.window_count", obs::metric_kind::gauge,
              slo_view.hist.total());
        plain("serve.slo.window_violations", obs::metric_kind::gauge,
              slo_view.violations);
        plain("serve.slo.window_p99_ns", obs::metric_kind::gauge,
              slo_view.hist.p99());
        const counters& c = *ctrs;
        const auto latency = [&out](const char* name,
                                    const obs::histogram& h) {
            out.push_back({name, obs::metric_kind::latency, 0,
                           h.snapshot()});
        };
        latency("serve.submit_ns", c.submit_ns);
        latency("serve.cache_probe_ns", c.cache_probe_ns);
        latency("serve.queue_wait_ns", c.queue_wait_ns);
        latency("serve.stream_build_ns", c.stream_build_ns);
        latency("serve.shard_ns", c.shard_ns);
        latency("serve.settle_ns", c.settle_ns);
    }

    // An already-answered submission from the cache (no cancel lever —
    // there is nothing left to withdraw).
    [[nodiscard]] submission
    answer_from_cache(std::shared_ptr<const core::sweep_result> cached,
                      const service_request& normal, const request_key& key,
                      std::uint64_t admitted_ns) {
        obs::request_event e;
        e.trace_hi = normal.obs_trace_hi;
        e.trace_lo = normal.obs_trace_lo;
        e.correlation = normal.obs_correlation;
        e.key_hi = key.request[0];
        e.key_lo = key.request[1];
        e.node = options.node_id;
        e.disposition = obs::event_disposition::cache_hit;
        e.start_ns = admitted_ns;
        const std::uint64_t now = obs::now_ns();
        e.total_ns = now >= admitted_ns ? now - admitted_ns : 0;
        settle_event(*events, *slo, e);
        service_result result;
        result.sweep = std::move(cached);
        result.cache_hit = true;
        waiter answered;
        std::future<service_result> future = answered.promise.get_future();
        settle(answered, nullptr, std::move(result));
        return submission{std::move(future), nullptr, 0};
    }

    // Settles every waiter whose deadline has passed.  Called at the two
    // scheduling points (job pickup, flight completion); gated on
    // has_deadlines so deadline-free workloads skip even the clock read.
    void sweep_deadlines(flight& f) {
        if (!has_deadlines.load(std::memory_order_relaxed)) {
            return;
        }
        const clock::time_point now = clock::now();
        std::vector<waiter> expired;
        std::vector<obs::request_event> expired_events;
        {
            const std::lock_guard<std::mutex> lock{f.mutex};
            if (now < f.earliest_deadline) {
                return;
            }
            clock::time_point next = no_deadline;
            for (waiter& w : f.waiters) {
                if (w.settled) {
                    continue;
                }
                if (now < w.deadline) {
                    next = std::min(next, w.deadline);
                    continue;
                }
                expired.push_back(take(w));
                --f.live;
                ctrs->timeouts.fetch_add(1, std::memory_order_relaxed);
                expired_events.push_back(
                    f.event(w, obs::event_disposition::timeout));
            }
            f.earliest_deadline = next;
            if (f.live == 0 &&
                !f.abandoned.load(std::memory_order_relaxed)) {
                f.abandoned.store(true, std::memory_order_release);
                ctrs->expired_flights.fetch_add(1,
                                                std::memory_order_relaxed);
            }
        }
        for (const obs::request_event& e : expired_events) {
            settle_event(*events, *slo, e);
        }
        const std::exception_ptr timeout =
            std::make_exception_ptr(service_timeout{
                "serve: submission deadline passed before the answer was "
                "ready"});
        for (waiter& w : expired) {
            settle(w, timeout);
        }
    }

    // One shard job per distinct block size.
    [[nodiscard]] static std::size_t job_count(const flight& f) noexcept {
        return f.request.sweep.block_sizes.size();
    }

    [[nodiscard]] std::shared_ptr<const std::vector<std::uint64_t>>
    block_stream(trace_entry& entry, std::uint32_t block_size,
                 std::uint64_t correlation, std::uint64_t fp,
                 std::uint64_t trace_hi, std::uint64_t trace_lo) {
        const unsigned bits = log2_exact(block_size);
        std::promise<std::shared_ptr<const std::vector<std::uint64_t>>>
            promise;
        std::shared_future<std::shared_ptr<const std::vector<std::uint64_t>>>
            future;
        bool builder = false;
        {
            const std::lock_guard<std::mutex> lock{entry.stream_mutex};
            const auto it = entry.streams.find(bits);
            if (it != entry.streams.end()) {
                future = it->second;
            } else {
                future = promise.get_future().share();
                entry.streams.emplace(bits, future);
                builder = true;
            }
        }
        if (!builder) {
            // Either already decoded or being decoded by another worker;
            // both count as a decode avoided.
            ctrs->stream_reuses.fetch_add(1, std::memory_order_relaxed);
            return future.get();
        }
        ctrs->stream_builds.fetch_add(1, std::memory_order_relaxed);
        try {
            // Attributed to the request that paid for the decode; every
            // later request at this (trace, block size) reuses it free.
            obs::span sp{"serve.stream_build", &ctrs->stream_build_ns,
                         correlation, fp};
            sp.set_trace(trace_hi, trace_lo);
            auto stream =
                std::make_shared<const std::vector<std::uint64_t>>(
                    trace::block_numbers(
                        {entry.records.data(), entry.records.size()}, bits));
            promise.set_value(stream);
            return stream;
        } catch (...) {
            // Unpublish the slot so a later job retries the decode; jobs
            // already waiting on the future see this failure.
            promise.set_exception(std::current_exception());
            const std::lock_guard<std::mutex> lock{entry.stream_mutex};
            entry.streams.erase(bits);
            throw;
        }
    }

    // One shard of a flight: every associativity pass of one block size,
    // fed the shared pre-decoded stream in one shot (chunked feeding is
    // bit-identical, so this equals the session's chunk loop).
    void run_exact_shard(flight& f, std::size_t shard) {
        const std::uint32_t block = f.request.sweep.block_sizes[shard];
        const auto stream = block_stream(*f.trace, block,
                                         f.obs_correlation,
                                         f.obs_fingerprint,
                                         f.request.obs_trace_hi,
                                         f.request.obs_trace_lo);
        std::vector<core::dew_result> results;
        results.reserve(f.request.sweep.associativities.size());
        for (const std::uint32_t assoc : f.request.sweep.associativities) {
            const auto pass =
                core::detail::make_sweep_pass(f.request.sweep, block, assoc);
            pass->feed({stream->data(), stream->size()});
            results.push_back(pass->result());
        }
        const std::lock_guard<std::mutex> lock{f.mutex};
        f.shard_results[shard] = std::move(results);
    }

    void run_job(const job& j) {
        flight& f = *j.target;
        // First pickup wins: the wide event's queue_ns/run_ns boundary.
        std::uint64_t never = 0;
        f.pickup_ns.compare_exchange_strong(never, obs::now_ns(),
                                            std::memory_order_relaxed);
        // The queue-wait sample covers enqueue -> pickup, recorded by the
        // worker that picked the job up (one span per shard job).
        if (j.enqueued_ns != 0) {
            const std::uint64_t waited = obs::now_ns() - j.enqueued_ns;
            ctrs->queue_wait_ns.record(waited);
            obs::recorder::instance().record(
                "serve.queue_wait", j.enqueued_ns, waited,
                f.obs_correlation, f.obs_fingerprint,
                f.request.obs_trace_hi, f.request.obs_trace_lo);
        }
        sweep_deadlines(f);
        if (f.abandoned.load(std::memory_order_acquire)) {
            // Skipped, never started: nobody is waiting for this work.
            if (f.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                finish(j.target);
            }
            return;
        }
        ctrs->shard_jobs.fetch_add(1, std::memory_order_relaxed);
        try {
            obs::span sp{"serve.shard", &ctrs->shard_ns, f.obs_correlation,
                         f.obs_fingerprint};
            sp.set_trace(f.request.obs_trace_hi, f.request.obs_trace_lo);
            if (options.fault_hook) {
                options.fault_hook(
                    j.shard, f.attempt.load(std::memory_order_relaxed));
            }
            run_exact_shard(f, j.shard);
        } catch (...) {
            const std::lock_guard<std::mutex> lock{f.mutex};
            if (!f.error) {
                f.error = std::current_exception();
            }
        }
        if (f.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            finish(j.target);
        }
    }

    // Retried flights jump the queue: pushed at the FRONT (ahead of new
    // work — their waiters have been waiting longest) and exempt from the
    // capacity bound.  The exemption is a deadlock matter, not a
    // convenience: the requeue runs on a worker, and a worker blocking on
    // queue space it is itself responsible for freeing never wakes.
    void requeue_front(const std::shared_ptr<flight>& f, std::size_t jobs) {
        const std::uint64_t enqueued = obs::timestamp_if_enabled();
        {
            const std::lock_guard<std::mutex> lock{queue_mutex};
            for (std::size_t i = jobs; i-- > 0;) {
                queue.push_front({f, i, enqueued});
            }
        }
        queue_work_cv.notify_all();
    }

    // Last job of a flight: classify faults and retry transient ones,
    // then assemble, cache, unmap, fulfil every live waiter — in that
    // order.  The result enters the cache *before* the flight leaves the
    // in-flight map, so a submit racing with completion either coalesces
    // (flight still mapped) or hits the cache: there is no window in
    // which a duplicate restarts an already-answered computation.  (A
    // failed or abandoned flight is the exception: it is unmapped without
    // caching, so the next submit retries rather than being served a
    // poisoned or partial entry.)
    void finish(const std::shared_ptr<flight>& f) {
        // A waiter whose deadline passed while the flight computed gets
        // service_timeout even though an answer exists now: a deadline
        // bounds when the answer is useful, not whether it is computable.
        sweep_deadlines(*f);
        const bool abandoned = f->abandoned.load(std::memory_order_acquire);

        std::exception_ptr error;
        {
            const std::lock_guard<std::mutex> lock{f->mutex};
            error = f->error;
        }

        if (error) {
            const fault_class cls = classify_fault(error);
            if (cls == fault_class::transient) {
                ctrs->transient_faults.fetch_add(1,
                                                 std::memory_order_relaxed);
            } else {
                ctrs->permanent_faults.fetch_add(1,
                                                 std::memory_order_relaxed);
            }
            const unsigned attempt =
                f->attempt.load(std::memory_order_relaxed);
            if (cls == fault_class::transient && !abandoned &&
                attempt < options.max_retries) {
                ctrs->retries.fetch_add(1, std::memory_order_relaxed);
                // Capped exponential backoff, slept on this worker: the
                // cap bounds how long one transient fault can idle a
                // worker thread (default 50 ms).
                std::chrono::nanoseconds delay = options.retry_backoff;
                for (unsigned i = 0;
                     i < attempt && delay < options.retry_backoff_cap;
                     ++i) {
                    delay *= 2;
                }
                delay = std::min(delay, options.retry_backoff_cap);
                if (delay.count() > 0) {
                    std::this_thread::sleep_for(delay);
                }
                const std::size_t jobs = job_count(*f);
                {
                    const std::lock_guard<std::mutex> lock{f->mutex};
                    f->error = nullptr;
                    f->shard_results.clear();
                    f->shard_results.resize(jobs);
                }
                f->attempt.fetch_add(1, std::memory_order_relaxed);
                f->remaining.store(jobs, std::memory_order_release);
                requeue_front(f, jobs);
                return; // the flight stays open and mapped
            }
        }

        // Settle: assemble the sweep, cache it, unmap the flight, fulfil
        // every live waiter — the tail latency a caller sees after the
        // last shard finished.
        obs::span settle_span{"serve.settle", &ctrs->settle_ns,
                              f->obs_correlation, f->obs_fingerprint};
        settle_span.set_trace(f->request.obs_trace_hi,
                              f->request.obs_trace_lo);
        // One shared payload: the waiters and the cache alias it.
        std::shared_ptr<const core::sweep_result> answer;
        if (!error && !abandoned) {
            auto sweep = std::make_shared<core::sweep_result>();
            sweep->requests = f->trace->records.size();
            sweep->passes.reserve(f->request.sweep.block_sizes.size() *
                                  f->request.sweep.associativities.size());
            {
                const std::lock_guard<std::mutex> lock{f->mutex};
                for (std::vector<core::dew_result>& shard :
                     f->shard_results) {
                    for (core::dew_result& pass : shard) {
                        sweep->passes.push_back(std::move(pass));
                    }
                }
            }
            sweep->seconds =
                std::chrono::duration<double>(clock::now() - f->start)
                    .count();
            answer = std::move(sweep);
            ctrs->computations.fetch_add(1, std::memory_order_relaxed);
            if (f->attempt.load(std::memory_order_relaxed) > 0) {
                ctrs->retry_successes.fetch_add(1,
                                                std::memory_order_relaxed);
            }
            cache.insert(f->key, answer);
        }
        unmap(f);
        // Settle the live waiters, one wide event each under its own
        // telemetry identity; the disposition ranks failure > coalesced.
        // The events are recorded BEFORE the waiters settle: the instant
        // one does, its continuation can send the response and the
        // requester close its span, and telemetry trickling in after that
        // would land outside the client's span interval (the containment
        // obs.stitch_test and obs.fleet_test prove).  It also means a
        // caller returning from get() sees itself in `completed`, the
        // ring's push count.
        auto fulfil = f->take_live([&](std::size_t index) {
            return error       ? obs::event_disposition::failed
                   : index > 0 ? obs::event_disposition::coalesced
                               : obs::event_disposition::computed;
        });
        for (const auto& settled : fulfil) {
            settle_event(*events, *slo, settled.second);
        }
        settle_span.finish();
        // The whole-flight span: creation -> settled, the envelope the
        // queue/stream/shard spans decompose.
        if (f->start_ns != 0) {
            obs::recorder::instance().record(
                "serve.flight", f->start_ns, obs::now_ns() - f->start_ns,
                f->obs_correlation, f->obs_fingerprint,
                f->request.obs_trace_hi, f->request.obs_trace_lo);
        }
        for (auto& [w, e] : fulfil) {
            service_result result;
            if (!error) {
                result.sweep = answer;
                result.coalesced =
                    e.disposition == obs::event_disposition::coalesced;
                result.flight_retries =
                    f->attempt.load(std::memory_order_relaxed);
            }
            settle(w, error, std::move(result));
        }
        close_flight();
    }

    // Conditional unmap: an abandoned flight may already have been
    // replaced in the map by a fresh one for the same key — that newcomer
    // must not be evicted by its predecessor's funeral.
    void unmap(const std::shared_ptr<flight>& f) {
        const std::lock_guard<std::mutex> lock{flights_mutex};
        const auto it = flights.find(f->key);
        if (it != flights.end() && it->second == f) {
            flights.erase(it);
        }
    }

    void close_flight() {
        const std::lock_guard<std::mutex> lock{queue_mutex};
        --open_flights;
        if (open_flights == 0 && queue.empty() && active_jobs == 0) {
            idle_cv.notify_all();
        }
    }

    // Queue the flight's jobs under the backpressure policy.  Throws
    // service_overloaded (fail-fast, or a request wider than the whole
    // queue); the caller unwinds the flight.
    void enqueue(const std::shared_ptr<flight>& f, std::size_t jobs) {
        const std::uint64_t enqueued = obs::timestamp_if_enabled();
        std::unique_lock<std::mutex> lock{queue_mutex};
        if (options.overflow == overflow_policy::fail_fast) {
            if (queue.size() + jobs > options.queue_capacity) {
                ctrs->rejected.fetch_add(1, std::memory_order_relaxed);
                throw service_overloaded{
                    "serve: job queue full (" +
                    std::to_string(queue.size()) + " of " +
                    std::to_string(options.queue_capacity) +
                    " slots taken, request needs " + std::to_string(jobs) +
                    ")"};
            }
            for (std::size_t i = 0; i < jobs; ++i) {
                queue.push_back({f, i, enqueued});
            }
        } else {
            for (std::size_t i = 0; i < jobs; ++i) {
                queue_space_cv.wait(lock, [&] {
                    return queue.size() < options.queue_capacity;
                });
                queue.push_back({f, i, enqueued});
                queue_work_cv.notify_one();
            }
        }
        queue_work_cv.notify_all();
    }

    // Unwind a flight whose jobs could not be queued: out of the in-flight
    // map first (no new joiners), then every live waiter — including
    // coalescers that joined while we were trying — sees the failure.
    void fail_flight(const std::shared_ptr<flight>& f,
                     const std::exception_ptr& error) {
        unmap(f);
        // A queue rejection and an internal fault are different outcomes
        // in the wide-event record even though both unwind the same way.
        obs::event_disposition disposition = obs::event_disposition::failed;
        try {
            std::rethrow_exception(error);
        } catch (const service_overloaded&) {
            disposition = obs::event_disposition::rejected;
        } catch (...) {
        }
        auto fulfil = f->take_live([disposition](std::size_t) {
            return disposition;
        });
        // Unwound submissions are still completed submissions (one event
        // each): the submitted/completed balance survives a rejection.
        for (auto& [w, e] : fulfil) {
            settle_event(*events, *slo, e);
            settle(w, error);
        }
        close_flight();
    }

    // dewlint: thread-body worker_loop
    void worker_loop() {
        // `counted` tracks whether this worker holds an active_jobs slot,
        // so the trap below can release it without double-counting.
        bool counted = false;
        try {
            for (;;) {
                job j;
                {
                    std::unique_lock<std::mutex> lock{queue_mutex};
                    queue_work_cv.wait(lock, [&] {
                        return stop || (!paused && !queue.empty());
                    });
                    // pause/stop only mutate under queue_mutex, so an
                    // empty queue here implies stop (drained; exit), and a
                    // non-empty one is ours to pop — stop overrides pause.
                    if (queue.empty()) {
                        return;
                    }
                    j = std::move(queue.front());
                    queue.pop_front();
                    ++active_jobs;
                    counted = true;
                }
                queue_space_cv.notify_one();
                try {
                    run_job(j);
                } catch (...) {
                    // run_job settles engine faults into the flight, so a
                    // throw here is the settling machinery itself failing
                    // (e.g. an allocation mid-finish, always before the
                    // flight's close_flight).  Fail the flight so its
                    // waiters see the fault instead of a hung future.
                    fail_flight(j.target, std::current_exception());
                }
                {
                    const std::lock_guard<std::mutex> lock{queue_mutex};
                    --active_jobs;
                    counted = false;
                    if (open_flights == 0 && queue.empty() &&
                        active_jobs == 0) {
                        idle_cv.notify_all();
                    }
                }
            }
        } catch (...) {
            // Even the flight-failure path threw (or the queue machinery
            // did): record the fault for drain() and retire this worker —
            // an escape would std::terminate the whole process.
            const std::lock_guard<std::mutex> lock{queue_mutex};
            if (!worker_error) {
                worker_error = std::current_exception();
            }
            if (counted) {
                --active_jobs;
            }
            if (open_flights == 0 && queue.empty() && active_jobs == 0) {
                idle_cv.notify_all();
            }
        }
    }
};

service::service(service_options options) {
    if (options.workers == 0) {
        throw std::invalid_argument{"service_options::workers must be > 0"};
    }
    if (options.queue_capacity == 0) {
        throw std::invalid_argument{
            "service_options::queue_capacity must be > 0"};
    }
    state_ = std::make_unique<state>(options);
    state_->workers.reserve(options.workers);
    for (unsigned w = 0; w < options.workers; ++w) {
        state_->workers.emplace_back([s = state_.get()] { s->worker_loop(); });
    }
    state_->obs_provider_id = obs::registry::instance().add_provider(
        [s = state_.get()](std::vector<obs::metric_sample>& out) {
            s->sample_metrics(out);
        });
}

service::~service() {
    // Revoke the metrics provider before anything else dies: once
    // remove_provider returns, no snapshot can touch this state again.
    if (state_->obs_provider_id != 0) {
        obs::registry::instance().remove_provider(state_->obs_provider_id);
    }
    {
        const std::lock_guard<std::mutex> lock{state_->queue_mutex};
        state_->stop = true; // workers drain the queue, then exit
    }
    state_->queue_work_cv.notify_all();
    for (std::thread& worker : state_->workers) {
        worker.join();
    }
}

trace::trace_digest service::add_trace(std::string name,
                                       trace::mem_trace records) {
    const trace::trace_digest digest = trace::compute_digest(records);
    const std::lock_guard<std::mutex> lock{state_->traces_mutex};
    const auto it = state_->traces.find(name);
    if (it != state_->traces.end()) {
        if (it->second->digest == digest) {
            return digest; // same content, idempotent
        }
        throw std::invalid_argument{
            "serve: trace \"" + name +
            "\" is already registered with different content (digest " +
            to_string(it->second->digest) + " vs " + to_string(digest) +
            "); names are aliases, not versions"};
    }
    // A new name for already-registered content aliases the existing
    // entry: one copy of the records, one stream cache — streams decoded
    // under the first name serve every alias, keeping the decode-once
    // contract corpus-wide.  (Linear scan: a corpus holds tens of traces,
    // not thousands.)
    for (const auto& [existing_name, existing] : state_->traces) {
        if (existing->digest == digest) {
            state_->traces.emplace(std::move(name), existing);
            return digest;
        }
    }
    auto entry = std::make_shared<trace_entry>();
    entry->name = name;
    entry->records = std::move(records);
    entry->digest = digest;
    state_->traces.emplace(std::move(name), std::move(entry));
    return digest;
}

bool service::has_trace(std::string_view name) const {
    const std::lock_guard<std::mutex> lock{state_->traces_mutex};
    return state_->traces.find(std::string{name}) != state_->traces.end();
}

submission service::submit(std::string_view trace_name,
                           const service_request& request) {
    state& s = *state_;
    // The submit span covers validation, the cache probes and the
    // coalesce-or-enqueue decision — everything on the caller's thread.
    // The fingerprint tag is patched in once the key exists.
    obs::span submit_span{"serve.submit", &s.ctrs->submit_ns,
                          request.obs_correlation};
    submit_span.set_trace(request.obs_trace_hi, request.obs_trace_lo);
    // Admission time for the wide event, independent of the recorder's
    // on/off state (the event ring always runs).
    const std::uint64_t admitted_ns = obs::now_ns();
    const service_request normal = canonical(request); // throws up front
    // Relative deadline -> absolute, pinned at submit time (before any
    // queueing): the deadline clock starts when the caller asked, not when
    // the service got around to it.  One reaching past the clock's range
    // saturates to no deadline instead of overflowing into the past.
    clock::time_point deadline_at = no_deadline;
    if (request.deadline.count() > 0) {
        const clock::time_point now = clock::now();
        if (request.deadline < no_deadline - now) {
            deadline_at = now + request.deadline;
        }
    }

    std::shared_ptr<trace_entry> entry;
    {
        const std::lock_guard<std::mutex> lock{s.traces_mutex};
        const auto it = s.traces.find(std::string{trace_name});
        if (it == s.traces.end()) {
            throw std::invalid_argument{
                "serve: unknown trace \"" + std::string{trace_name} +
                "\" (register it with add_trace first)"};
        }
        entry = it->second;
    }
    s.ctrs->submitted.fetch_add(1, std::memory_order_relaxed);
    if (deadline_at != no_deadline) {
        s.has_deadlines.store(true, std::memory_order_relaxed);
    }

    // `normal` is already canonical; the plain fingerprint()/make_key path
    // would re-normalise (copy + sort + validate) on every submit.
    const request_key key{entry->digest, fingerprint_canonical(normal)};
    submit_span.set_fingerprint(key.request[0]);
    {
        obs::span probe{"serve.cache_probe", &s.ctrs->cache_probe_ns,
                        normal.obs_correlation, key.request[0]};
        probe.set_trace(normal.obs_trace_hi, normal.obs_trace_lo);
        if (const auto cached = s.cache.find(key)) {
            // Answered without touching a simulator or the queue.
            return s.answer_from_cache(cached, normal, key, admitted_ns);
        }
    }

    std::shared_ptr<flight> f;
    std::future<service_result> future;
    {
        const std::lock_guard<std::mutex> lock{s.flights_mutex};
        const auto it = s.flights.find(key);
        if (it != s.flights.end()) {
            const std::shared_ptr<flight>& current = it->second;
            const std::lock_guard<std::mutex> fl{current->mutex};
            // An abandoned flight still in the map is a corpse: its jobs
            // will be skipped and it cannot answer anyone.  Joining it
            // would trade a computable answer for a guaranteed
            // service_cancelled, so fall through and replace it instead.
            if (!current->abandoned.load(std::memory_order_acquire)) {
                // Identical question already in the air: one computation,
                // one more future.
                current->waiters.emplace_back();
                waiter& w = current->waiters.back();
                w.deadline = deadline_at;
                w.correlation = normal.obs_correlation;
                w.trace_hi = normal.obs_trace_hi;
                w.trace_lo = normal.obs_trace_lo;
                current->earliest_deadline =
                    std::min(current->earliest_deadline, deadline_at);
                ++current->live;
                future = w.promise.get_future();
                s.ctrs->coalesced.fetch_add(1, std::memory_order_relaxed);
                return submission{std::move(future), current,
                                  current->waiters.size() - 1};
            }
        }
        // The flight may have finished between the cache probe above and
        // this map lookup.  finish() caches *before* unmapping, so an
        // absent flight whose answer exists is always visible to this
        // second probe — without it, a duplicate landing in that window
        // would restart an already-answered computation.  (finish() never
        // holds a cache shard lock while taking flights_mutex, so probing
        // the cache here cannot deadlock.)
        {
            obs::span probe{"serve.cache_probe", &s.ctrs->cache_probe_ns,
                            normal.obs_correlation, key.request[0]};
            probe.set_trace(normal.obs_trace_hi, normal.obs_trace_lo);
            if (const auto cached = s.cache.find(key)) {
                return s.answer_from_cache(cached, normal, key,
                                           admitted_ns);
            }
        }
        f = std::make_shared<flight>();
        f->request = normal;
        f->key = key;
        f->trace = entry;
        f->start = clock::now();
        f->obs_correlation = normal.obs_correlation;
        f->obs_fingerprint = key.request[0];
        f->start_ns = obs::timestamp_if_enabled();
        f->admitted_ns = admitted_ns;
        f->ctrs = s.ctrs;
        f->events = s.events;
        f->slo = s.slo;
        f->node = s.options.node_id;
        f->waiters.emplace_back();
        f->waiters.back().deadline = deadline_at;
        f->waiters.back().correlation = normal.obs_correlation;
        f->waiters.back().trace_hi = normal.obs_trace_hi;
        f->waiters.back().trace_lo = normal.obs_trace_lo;
        f->earliest_deadline = deadline_at;
        f->live = 1;
        future = f->waiters.back().promise.get_future();
        const std::size_t jobs = state::job_count(*f);
        f->remaining.store(jobs, std::memory_order_relaxed);
        f->shard_results.resize(jobs);
        // insert_or_assign, not emplace: the slot may hold the abandoned
        // corpse detected above.
        s.flights.insert_or_assign(key, f);
        // Registered from drain()'s point of view before any job is
        // queued, so a drain racing a blocking enqueue waits for this
        // flight even while its later shards are still being pushed.
        const std::lock_guard<std::mutex> qlock{s.queue_mutex};
        ++s.open_flights;
    }
    try {
        s.enqueue(f, state::job_count(*f));
    } catch (...) {
        s.fail_flight(f, std::current_exception());
        throw;
    }
    return submission{std::move(future), std::move(f), 0};
}

void service::drain() {
    std::unique_lock<std::mutex> lock{state_->queue_mutex};
    state_->idle_cv.wait(lock, [s = state_.get()] {
        return s->open_flights == 0 && s->queue.empty() &&
               s->active_jobs == 0;
    });
    // A worker that died on an unrecoverable fault (see worker_loop's
    // outer catch) has already settled or failed its flight; drain is the
    // supervision point where the loss of the thread itself surfaces.
    if (state_->worker_error) {
        std::rethrow_exception(
            std::exchange(state_->worker_error, nullptr));
    }
}

void service::pause() {
    const std::lock_guard<std::mutex> lock{state_->queue_mutex};
    state_->paused = true;
}

void service::resume() {
    {
        const std::lock_guard<std::mutex> lock{state_->queue_mutex};
        state_->paused = false;
    }
    state_->queue_work_cv.notify_all();
}

service_stats service::stats() const { return state_->read(); }

service_stats stats_from(const std::vector<obs::metric>& snapshot,
                         std::string_view prefix) {
    service_stats out;
    std::string missing;
    for (const stats_series& series : stats_table) {
        const std::string name = std::string{prefix} + series.name;
        const auto it = std::find_if(
            snapshot.begin(), snapshot.end(), [&](const obs::metric& m) {
                return m.kind == series.kind && m.name == name;
            });
        if (it == snapshot.end()) {
            missing += (missing.empty() ? "" : ", ") + name;
        } else {
            out.*series.field = it->value;
        }
    }
    if (!missing.empty()) {
        throw std::invalid_argument{
            "serve::stats_from: the snapshot has no " + missing +
            " series (not a service's metrics, or the wrong prefix)"};
    }
    return out;
}

std::vector<obs::request_event> service::events() const {
    return state_->events->snapshot();
}

std::string service::save_cache() const { return state_->cache.save(); }

cache_load_report service::load_cache(std::string_view image,
                                      load_mode mode) {
    return state_->cache.load(image, mode);
}

} // namespace dew::serve
