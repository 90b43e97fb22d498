// The service's books have one source.  A service alone in the process is
// driven through every settle disposition — computed, cache hit,
// coalesced, timeout, cancelled, failed, rejected — and then
// every service_stats field must equal its serve.* series in the process
// registry, the submissions must balance, and serve::stats_from must decode
// the scraped snapshot back into the same books.  The series names are
// spelled out here, independently of the service's own binding table, so
// a renamed or swapped binding fails.  Two live services keep books of
// their own; the registry sums them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "serve/service.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;
using namespace std::chrono_literals;

trace::mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                        20'000);
}

// Distinct one-shard questions: mre_depth is part of the DEW request
// identity, so every `n` is its own fingerprint and costs one queue slot.
service_request question(std::uint32_t n) {
    service_request request;
    request.sweep.max_set_exp = 4;
    request.sweep.block_sizes = {16};
    request.sweep.associativities = {2};
    request.sweep.options.mre_depth = 1 + n;
    return request;
}

// The documented name of each service_stats field (docs/OBSERVABILITY.md).
struct series {
    const char* name;
    std::uint64_t service_stats::*field;
};

constexpr series books[] = {
    {"serve.submitted", &service_stats::submitted},
    {"serve.completed", &service_stats::completed},
    {"serve.cache.hits", &service_stats::cache_hits},
    {"serve.coalesced", &service_stats::coalesced},
    {"serve.computations", &service_stats::computations},
    {"serve.shard_jobs", &service_stats::shard_jobs},
    {"serve.stream_builds", &service_stats::stream_builds},
    {"serve.stream_reuses", &service_stats::stream_reuses},
    {"serve.rejected", &service_stats::rejected},
    {"serve.cache.evictions", &service_stats::cache_evictions},
    {"serve.timeouts", &service_stats::timeouts},
    {"serve.cancellations", &service_stats::cancellations},
    {"serve.retries", &service_stats::retries},
    {"serve.retry_successes", &service_stats::retry_successes},
    {"serve.transient_faults", &service_stats::transient_faults},
    {"serve.permanent_faults", &service_stats::permanent_faults},
    {"serve.expired_flights", &service_stats::expired_flights},
    {"serve.queue_depth", &service_stats::queue_depth},
    {"serve.inflight_flights", &service_stats::inflight_flights},
};

const obs::metric* find(const std::vector<obs::metric>& snapshot,
                        const std::string& name) {
    const auto it = std::find_if(
        snapshot.begin(), snapshot.end(),
        [&name](const obs::metric& m) { return m.name == name; });
    return it == snapshot.end() ? nullptr : &*it;
}

// Every field equals its registry series, and stats_from reads the same
// snapshot back into the same books.  Valid only while `svc` is the one
// live service in the process.
void expect_books_match(const service& svc) {
    const service_stats stats = svc.stats();
    const std::vector<obs::metric> snapshot =
        obs::registry::instance().snapshot();
    const service_stats decoded = stats_from(snapshot);
    for (const series& s : books) {
        SCOPED_TRACE(s.name);
        const obs::metric* m = find(snapshot, s.name);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->value, stats.*s.field);
        EXPECT_EQ(decoded.*s.field, stats.*s.field);
    }
    // One name per quantity: the retired synonyms are gone, and so are the
    // retired estimate-tier series.
    for (const char* retired :
         {"serve.cache_hits", "serve.events.recorded",
          "serve.representative_served", "serve.exact_fallbacks",
          "serve.degraded_served"}) {
        EXPECT_EQ(find(snapshot, retired), nullptr) << retired;
    }
}

std::set<obs::event_disposition> dispositions(const service& svc) {
    std::set<obs::event_disposition> out;
    for (const obs::request_event& e : svc.events()) {
        out.insert(e.disposition);
    }
    return out;
}

TEST(Accounting, EveryDispositionLandsInTheRegistryBooks) {
    std::atomic<bool> fail_next{false};
    service_options options;
    options.workers = 1;
    options.queue_capacity = 3;
    options.overflow = overflow_policy::fail_fast;
    options.fault_hook = [&fail_next](std::size_t, unsigned) {
        if (fail_next.exchange(false)) {
            throw std::invalid_argument{"injected permanent fault"};
        }
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    // Computed, then answered from the cache.
    EXPECT_FALSE(svc.submit("cjpeg", question(0)).get().cache_hit);
    EXPECT_TRUE(svc.submit("cjpeg", question(0)).get().cache_hit);

    // Failed: a permanent fault is not retried.
    fail_next = true;
    submission doomed = svc.submit("cjpeg", question(1));
    EXPECT_THROW((void)doomed.get(), std::invalid_argument);

    // With the worker held: a coalesced joiner, an expiring deadline, a
    // cancel, and a fail-fast rejection once the three slots are taken.
    svc.pause();
    submission first = svc.submit("cjpeg", question(2));
    submission joiner = svc.submit("cjpeg", question(2));
    service_request hurried = question(3);
    hurried.deadline = 1ns;
    submission late = svc.submit("cjpeg", hurried);
    submission withdrawn = svc.submit("cjpeg", question(4));
    EXPECT_TRUE(withdrawn.cancel());
    EXPECT_THROW((void)svc.submit("cjpeg", question(5)), service_overloaded);
    std::this_thread::sleep_for(2ms);
    svc.resume();
    EXPECT_FALSE(first.get().coalesced);
    EXPECT_TRUE(joiner.get().coalesced);
    EXPECT_THROW((void)late.get(), service_timeout);
    EXPECT_THROW((void)withdrawn.get(), service_cancelled);
    svc.drain();

    EXPECT_EQ(dispositions(svc),
              (std::set<obs::event_disposition>{
                  obs::event_disposition::computed,
                  obs::event_disposition::cache_hit,
                  obs::event_disposition::failed,
                  obs::event_disposition::coalesced,
                  obs::event_disposition::timeout,
                  obs::event_disposition::cancelled,
                  obs::event_disposition::rejected}));
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.computations, 2u);
    EXPECT_EQ(stats.permanent_faults, 1u);
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.cancellations, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    expect_books_match(svc);
}

TEST(Accounting, TwoLiveServicesKeepSeparateBooks) {
    service a{};
    service b{};
    a.add_trace("cjpeg", workload());
    b.add_trace("cjpeg", workload());
    (void)a.submit("cjpeg", question(0)).get();
    (void)a.submit("cjpeg", question(0)).get();
    (void)b.submit("cjpeg", question(1)).get();
    a.drain();
    b.drain();

    const service_stats books_a = a.stats();
    const service_stats books_b = b.stats();
    EXPECT_EQ(books_a.submitted, 2u);
    EXPECT_EQ(books_a.completed, 2u);
    EXPECT_EQ(books_a.cache_hits, 1u);
    EXPECT_EQ(books_a.computations, 1u);
    EXPECT_EQ(books_b.submitted, 1u);
    EXPECT_EQ(books_b.completed, 1u);
    EXPECT_EQ(books_b.cache_hits, 0u);
    EXPECT_EQ(books_b.computations, 1u);

    // The process registry is per process: it sums both services.
    const service_stats process =
        stats_from(obs::registry::instance().snapshot());
    EXPECT_EQ(process.submitted, 3u);
    EXPECT_EQ(process.completed, 3u);
    EXPECT_EQ(process.cache_hits, 1u);
    EXPECT_EQ(process.computations, 2u);
}

TEST(Accounting, StatsFromNamesEveryMissingSeries) {
    // A snapshot without a service's series is not a service with zero
    // books: the decoder names what it expected, under the prefix asked.
    try {
        (void)stats_from({}, "fleet.");
        FAIL() << "decoded books from an empty snapshot";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("fleet.serve.submitted"), std::string::npos)
            << what;
        EXPECT_NE(what.find("fleet.serve.inflight_flights"),
                  std::string::npos)
            << what;
    }
}

} // namespace
