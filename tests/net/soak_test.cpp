// Long-lived connections stay bounded.  One connection carries 100k submits
// to a net::server and 20k through a net::router_server to two backends,
// every answer checked against run_sweep; after warm-up the process's
// thread count stays fixed and its VmSize and RSS stop growing.  Then 1000
// connect/close cycles bring threads and VmSize back to where they were.
// A server that starts a thread per submit, or keeps a finished
// connection's threads until stop(), fails here on VmSize (or runs out of
// threads first).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dew/sweep.hpp"
#include "net/client.hpp"
#include "net/router_server.hpp"
#include "net/server.hpp"
#include "support/bytes.hpp"
#include "trace/digest.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::net;
using test_support::sweep_bytes;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DEW_SOAK_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DEW_SOAK_SANITIZED 1
#endif
#endif

// Growth a bounded process may still show after warm-up: allocator arenas
// and caches settling, and under a sanitizer its allocator's quarantine and
// shadow (ASan holds up to 256 MiB of freed blocks).  One thread stack per
// submit would add 8 MiB each, one recorder ring 256 KiB.
#ifdef DEW_SOAK_SANITIZED
constexpr long slack_kib = 512 * 1024;
#else
constexpr long slack_kib = 0;
#endif
constexpr long vm_tolerance_kib = 32 * 1024 + slack_kib;
constexpr long rss_tolerance_kib = 16 * 1024 + slack_kib;

struct process_sample {
    long threads{0};
    long vm_kib{0};
    long rss_kib{0};
};

process_sample sample_process() {
    process_sample out;
    std::ifstream status{"/proc/self/status"};
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            status >> out.threads;
        } else if (key == "VmSize:") {
            status >> out.vm_kib;
        } else if (key == "VmRSS:") {
            status >> out.rss_kib;
        }
        status.ignore(1 << 12, '\n');
    }
    return out;
}

// Eight distinct small questions over one trace, with their direct answers.
struct workload {
    trace::mem_trace records =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 4000);
    std::vector<serve::service_request> requests;
    std::vector<std::string> expected;

    workload() {
        for (const std::uint32_t block : {8u, 16u, 32u, 64u}) {
            for (const std::uint32_t assoc : {2u, 4u}) {
                serve::service_request request;
                request.sweep.max_set_exp = 4;
                request.sweep.block_sizes = {block};
                request.sweep.associativities = {assoc};
                requests.push_back(request);
                expected.push_back(
                    sweep_bytes(core::run_sweep(records, request.sweep)));
            }
        }
    }
};

// `total` submits on one client, `window` in flight, every answer checked.
// Samples the process every `total / 10` submits once `warmup` are done.
std::vector<process_sample> pipeline(client& cli,
                                     const trace::trace_digest& digest,
                                     const workload& work, std::size_t total,
                                     std::size_t warmup) {
    constexpr std::size_t window = 32;
    std::vector<process_sample> samples;
    std::deque<std::pair<submission, std::size_t>> inflight;
    std::size_t mismatches = 0;
    const auto settle_oldest = [&] {
        auto [pending, key] = std::move(inflight.front());
        inflight.pop_front();
        const serve::service_result result = pending.get();
        if (result.sweep == nullptr ||
            sweep_bytes(*result.sweep) != work.expected[key]) {
            ++mismatches;
        }
    };
    for (std::size_t n = 0; n < total; ++n) {
        if (inflight.size() == window) {
            settle_oldest();
        }
        const std::size_t key = n % work.requests.size();
        inflight.emplace_back(cli.submit(digest, work.requests[key]), key);
        if (n >= warmup && (n - warmup) % (total / 10) == 0) {
            samples.push_back(sample_process());
        }
    }
    while (!inflight.empty()) {
        settle_oldest();
    }
    samples.push_back(sample_process());
    EXPECT_EQ(mismatches, 0u);
    return samples;
}

void expect_flat(const std::vector<process_sample>& samples) {
    ASSERT_GE(samples.size(), 2u);
    const process_sample& first = samples.front();
    for (const process_sample& s : samples) {
        EXPECT_EQ(s.threads, first.threads);
    }
    const process_sample& last = samples.back();
    EXPECT_LE(last.vm_kib - first.vm_kib, vm_tolerance_kib)
        << "VmSize " << first.vm_kib << " -> " << last.vm_kib << " KiB";
    EXPECT_LE(last.rss_kib - first.rss_kib, rss_tolerance_kib)
        << "VmRSS " << first.rss_kib << " -> " << last.rss_kib << " KiB";
}

TEST(Soak, HundredThousandSubmitsOnOneConnectionStayFlat) {
    const workload work;
    server srv{{}};
    client cli{"127.0.0.1", srv.port()};
    const trace::trace_digest digest = cli.register_trace(work.records);
    expect_flat(pipeline(cli, digest, work, 100'000, 10'000));
    EXPECT_EQ(srv.local_service().stats().computations,
              work.requests.size());
}

TEST(Soak, TwentyThousandRoutedSubmitsOnOneConnectionStayFlat) {
    const workload work;
    server a{{}};
    server b{{}};
    router_server_options options;
    options.route.backends = {{"127.0.0.1", a.port()},
                              {"127.0.0.1", b.port()}};
    router_server front{options};
    client cli{"127.0.0.1", front.port()};
    const trace::trace_digest digest = cli.register_trace(work.records);
    expect_flat(pipeline(cli, digest, work, 20'000, 2'000));
}

TEST(Soak, ConnectionChurnReturnsThreadsAndVmSizeToBaseline) {
    server srv{{}};
    const auto cycle = [&srv] {
        client cli{"127.0.0.1", srv.port()};
        cli.ping();
    };
    // Server-side teardown runs after the client has gone: wait for the
    // thread count to settle before reading a sample.
    const auto settled = [](long threads) {
        process_sample now = sample_process();
        for (int i = 0; i < 500 && now.threads != threads; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds{10});
            now = sample_process();
        }
        return now;
    };
    const long idle_threads = sample_process().threads;
    for (int i = 0; i < 20; ++i) {
        cycle();
    }
    const process_sample baseline = settled(idle_threads);
    EXPECT_EQ(baseline.threads, idle_threads);
    for (int i = 0; i < 1000; ++i) {
        cycle();
    }
    const process_sample after = settled(idle_threads);
    EXPECT_EQ(after.threads, idle_threads);
    EXPECT_LE(after.vm_kib - baseline.vm_kib, vm_tolerance_kib)
        << "VmSize " << baseline.vm_kib << " -> " << after.vm_kib << " KiB";
}

} // namespace
