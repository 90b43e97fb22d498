// The sweep service's failure semantics: deadlines and cancellation settle
// exactly the right waiters and skip abandoned work, transient faults
// retry with bounded attempts while permanent faults fail immediately,
// and the accounting balances through every storm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "dew/sweep.hpp"
#include "serve/service.hpp"
#include "trace/fault.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;
using namespace std::chrono_literals;

constexpr std::size_t trace_records = 20'000;

trace::mem_trace workload() {
    return trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                        trace_records);
}

service_request exact_request(unsigned max_set_exp = 6) {
    service_request request;
    request.sweep.max_set_exp = max_set_exp;
    request.sweep.block_sizes = {16, 32};
    request.sweep.associativities = {2, 4};
    return request;
}

service_options robust_options() {
    service_options options;
    options.workers = 2;
    options.queue_capacity = 64;
    options.cache = {4, 64};
    options.retry_backoff = std::chrono::nanoseconds{0}; // fast tests
    options.retry_backoff_cap = std::chrono::nanoseconds{0};
    return options;
}

void expect_identical(const core::sweep_result& a,
                      const core::sweep_result& b) {
    ASSERT_EQ(a.requests, b.requests);
    ASSERT_EQ(a.passes.size(), b.passes.size());
    for (std::size_t i = 0; i < a.passes.size(); ++i) {
        ASSERT_EQ(a.passes[i].block_size(), b.passes[i].block_size());
        ASSERT_EQ(a.passes[i].associativity(), b.passes[i].associativity());
        for (unsigned level = 0; level <= a.passes[i].max_level(); ++level) {
            ASSERT_EQ(a.passes[i].misses(level, a.passes[i].associativity()),
                      b.passes[i].misses(level, b.passes[i].associativity()))
                << "pass " << i << " level " << level;
        }
    }
}

TEST(ServiceFault, ClassifyFaultSortsTheTaxonomy) {
    const auto classify = [](auto&& exception) {
        return classify_fault(
            std::make_exception_ptr(std::forward<decltype(exception)>(
                exception)));
    };
    EXPECT_EQ(classify(trace::io_fault{"disk hiccup"}),
              fault_class::transient);
    EXPECT_EQ(classify(service_overloaded{"queue full"}),
              fault_class::transient);
    EXPECT_EQ(classify(std::system_error{
                  std::make_error_code(std::errc::io_error)}),
              fault_class::transient);
    EXPECT_EQ(classify(std::ios_base::failure{"stream broke"}),
              fault_class::transient);
    EXPECT_EQ(classify(std::invalid_argument{"bad grid"}),
              fault_class::permanent);
    EXPECT_EQ(classify(std::logic_error{"contract"}),
              fault_class::permanent);
    EXPECT_EQ(classify(service_timeout{"late"}), fault_class::permanent);
    EXPECT_EQ(classify(service_cancelled{"gone"}), fault_class::permanent);
    // Unrecognised faults are never retried.
    EXPECT_EQ(classify(std::runtime_error{"mystery"}),
              fault_class::permanent);
    EXPECT_EQ(classify_fault(std::make_exception_ptr(42)),
              fault_class::permanent);
}

TEST(ServiceFault, ExpiredDeadlineTimesOutWithoutStartingWork) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause(); // the deadline expires while the jobs sit queued
    service_request doomed_request = exact_request();
    doomed_request.deadline = 1ns;
    submission doomed = svc.submit("cjpeg", doomed_request);
    std::this_thread::sleep_for(1ms); // deadline provably in the past
    svc.resume();
    svc.drain();

    EXPECT_THROW((void)doomed.get(), service_timeout);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.expired_flights, 1u);
    EXPECT_EQ(stats.shard_jobs, 0u); // skipped, never started
    EXPECT_EQ(stats.computations, 0u);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_DOUBLE_EQ(stats.timeout_rate(), 1.0);

    // The service is fully serviceable afterwards, and the abandoned
    // flight left nothing in the cache.
    const service_result answer =
        svc.submit("cjpeg", exact_request()).get();
    EXPECT_FALSE(answer.cache_hit);
    ASSERT_NE(answer.sweep, nullptr);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
}

TEST(ServiceFault, CoalescedWaiterWithoutDeadlineSurvivesNeighbourTimeout) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause();
    service_request doomed_request = exact_request();
    doomed_request.deadline = 1ns;
    submission doomed = svc.submit("cjpeg", doomed_request);
    // Same question, no deadline: coalesces onto the same flight.
    submission patient = svc.submit("cjpeg", exact_request());
    EXPECT_EQ(svc.stats().coalesced, 1u);
    std::this_thread::sleep_for(1ms);
    svc.resume();

    EXPECT_THROW((void)doomed.get(), service_timeout);
    const service_result answer = patient.get();
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_TRUE(answer.coalesced);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.expired_flights, 0u); // the flight stayed live
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, FarFutureDeadlinesSaturateToNoDeadline) {
    // A relative deadline past the clock's range is no deadline: it must
    // neither overflow into the past nor time out on its first pickup.
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());
    const core::sweep_result reference =
        core::run_sweep(workload(), canonical(exact_request()).sweep);

    // Both wait on one flight, so each deadline meets the pickup and
    // completion sweeps.
    svc.pause();
    std::vector<submission> far;
    for (const std::chrono::nanoseconds deadline :
         {std::chrono::nanoseconds::max(),
          std::chrono::nanoseconds::max() - 1ns}) {
        service_request request = exact_request();
        request.deadline = deadline;
        far.push_back(svc.submit("cjpeg", request));
    }
    svc.resume();
    for (submission& handle : far) {
        const service_result answer = handle.get();
        ASSERT_NE(answer.sweep, nullptr);
        expect_identical(*answer.sweep, reference);
    }
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, CancellingEveryWaiterAbandonsTheFlight) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause();
    submission first = svc.submit("cjpeg", exact_request());
    submission second = svc.submit("cjpeg", exact_request()); // coalesced
    EXPECT_TRUE(first.cancel());
    EXPECT_FALSE(first.cancel()); // idempotent: already settled
    EXPECT_TRUE(second.cancel());
    svc.resume();
    svc.drain();

    EXPECT_THROW((void)first.get(), service_cancelled);
    EXPECT_THROW((void)second.get(), service_cancelled);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.cancellations, 2u);
    EXPECT_EQ(stats.shard_jobs, 0u); // both queued jobs skipped
    EXPECT_EQ(stats.computations, 0u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, CancelAfterCompletionReturnsFalseAndKeepsTheAnswer) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());
    submission done = svc.submit("cjpeg", exact_request());
    svc.drain();
    EXPECT_FALSE(done.cancel()); // too late: the answer is already settled
    ASSERT_NE(done.get().sweep, nullptr);
    EXPECT_EQ(svc.stats().cancellations, 0u);
}

TEST(ServiceFault, SubmitAfterAbandonReplacesTheCorpseNotJoinsIt) {
    service svc{robust_options()};
    svc.add_trace("cjpeg", workload());

    svc.pause();
    submission abandoned = svc.submit("cjpeg", exact_request());
    EXPECT_TRUE(abandoned.cancel());
    // The abandoned flight may still be in the in-flight map; a new submit
    // of the same key must start a fresh computation, not join the corpse.
    submission fresh = svc.submit("cjpeg", exact_request());
    svc.resume();

    EXPECT_THROW((void)abandoned.get(), service_cancelled);
    const service_result answer = fresh.get();
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_FALSE(answer.coalesced);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
    EXPECT_EQ(svc.stats().coalesced, 0u);
    EXPECT_EQ(svc.stats().computations, 1u);
}

TEST(ServiceFault, TransientFaultsRetryUntilTheHookRelents) {
    service_options options = robust_options();
    options.max_retries = 3;
    std::atomic<unsigned> injected{0};
    options.fault_hook = [&injected](std::size_t, unsigned attempt) {
        if (attempt < 2) {
            injected.fetch_add(1);
            throw trace::io_fault{"injected transient fault"};
        }
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    const service_result answer =
        svc.submit("cjpeg", exact_request()).get();
    ASSERT_NE(answer.sweep, nullptr);
    EXPECT_EQ(answer.flight_retries, 2u);
    expect_identical(*answer.sweep,
                     core::run_sweep(workload(),
                                     canonical(exact_request()).sweep));
    EXPECT_GE(injected.load(), 2u);

    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.transient_faults, 2u); // attempts 0 and 1 failed
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.retry_successes, 1u);
    EXPECT_EQ(stats.permanent_faults, 0u);
    EXPECT_EQ(stats.computations, 1u);
    EXPECT_DOUBLE_EQ(stats.retry_success_rate(), 0.5);

    // The recovered answer was cached like any other exact answer.
    EXPECT_TRUE(svc.submit("cjpeg", exact_request()).get().cache_hit);
}

TEST(ServiceFault, ExhaustedRetriesSurfaceTheTransientFaultUncached) {
    service_options options = robust_options();
    options.max_retries = 1;
    options.fault_hook = [](std::size_t, unsigned) {
        throw trace::io_fault{"injected persistent transient fault"};
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    EXPECT_THROW((void)svc.submit("cjpeg", exact_request()).get(),
                 trace::io_fault);
    service_stats stats = svc.stats();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.retry_successes, 0u);
    EXPECT_EQ(stats.transient_faults, 2u); // the first try and the retry
    EXPECT_EQ(stats.computations, 0u);

    // Failed flights are never cached: the next submit computes (and
    // fails) again rather than serving a poisoned entry.
    EXPECT_THROW((void)svc.submit("cjpeg", exact_request()).get(),
                 trace::io_fault);
    EXPECT_EQ(svc.stats().cache_hits, 0u);
}

TEST(ServiceFault, PermanentFaultsFailImmediatelyWithoutRetry) {
    service_options options = robust_options();
    options.max_retries = 3; // available, but must not be used
    options.fault_hook = [](std::size_t, unsigned) {
        throw std::invalid_argument{"injected permanent fault"};
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    EXPECT_THROW((void)svc.submit("cjpeg", exact_request()).get(),
                 std::invalid_argument);
    const service_stats stats = svc.stats();
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.permanent_faults, 1u);
    EXPECT_EQ(stats.transient_faults, 0u);
    EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceFault, ConcurrentFaultStormKeepsEveryAnswerExact) {
    // Four submitter threads over distinct and duplicate requests while
    // the hook fails every flight's first attempt: every future must still
    // produce the bit-exact answer, and the books must balance.
    service_options options = robust_options();
    options.workers = 3;
    options.queue_capacity = 256;
    options.cache = {8, 128};
    options.max_retries = 2;
    options.fault_hook = [](std::size_t, unsigned attempt) {
        if (attempt == 0) {
            throw trace::io_fault{"storm fault"};
        }
    };
    service svc{options};
    svc.add_trace("cjpeg", workload());

    std::vector<service_request> requests;
    for (const unsigned exp : {5u, 6u, 7u}) {
        requests.push_back(exact_request(exp));
    }
    std::vector<core::sweep_result> references;
    const trace::mem_trace trace = workload();
    references.reserve(requests.size());
    for (const service_request& request : requests) {
        references.push_back(
            core::run_sweep(trace, canonical(request).sweep));
    }

    constexpr std::size_t submitters = 4;
    constexpr std::size_t rounds = 3;
    std::vector<std::thread> threads;
    std::vector<std::vector<std::pair<std::size_t, submission>>> handles{
        submitters};
    for (std::size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t round = 0; round < rounds; ++round) {
                for (std::size_t r = 0; r < requests.size(); ++r) {
                    const std::size_t pick =
                        (r + t + round) % requests.size();
                    handles[t].emplace_back(
                        pick, svc.submit("cjpeg", requests[pick]));
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (auto& per_thread : handles) {
        for (auto& [pick, handle] : per_thread) {
            const service_result answer = handle.get();
            ASSERT_NE(answer.sweep, nullptr);
            expect_identical(*answer.sweep, references[pick]);
        }
    }

    const service_stats stats = svc.stats();
    const std::uint64_t total = submitters * rounds * requests.size();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed, total);
    // Every computed flight failed its first attempt and recovered on the
    // retry — exactly once each.
    EXPECT_EQ(stats.computations, requests.size());
    EXPECT_EQ(stats.transient_faults, requests.size());
    EXPECT_EQ(stats.retries, requests.size());
    EXPECT_EQ(stats.retry_successes, requests.size());
    EXPECT_DOUBLE_EQ(stats.retry_success_rate(), 1.0);
    EXPECT_EQ(stats.permanent_faults, 0u);
}

} // namespace
