// obs::recorder — per-thread rings: wraparound, the runtime kill switch,
// and collect() racing live writers (the seqlock contract, TSan-watched).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"

namespace {

using namespace dew::obs;

// The recorder is a process-wide singleton; every test starts from an
// empty, enabled state.
class Recorder : public ::testing::Test {
protected:
    void SetUp() override {
        recorder::instance().set_enabled(true);
        recorder::instance().clear();
    }
};

std::vector<span_event> events_named(const std::vector<span_event>& all,
                                     const char* name) {
    std::vector<span_event> out;
    for (const span_event& e : all) {
        if (std::string{e.name} == name) {
            out.push_back(e);
        }
    }
    return out;
}

TEST_F(Recorder, RecordsAndCollectsFields) {
    recorder::instance().record("test.alpha", 100, 50, 7, 9);
    const auto got =
        events_named(recorder::instance().collect(), "test.alpha");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].start_ns, 100u);
    EXPECT_EQ(got[0].dur_ns, 50u);
    EXPECT_EQ(got[0].correlation, 7u);
    EXPECT_EQ(got[0].fingerprint, 9u);
    EXPECT_NE(got[0].tid, 0u);
}

TEST_F(Recorder, WraparoundKeepsTheNewestRingCapacityEvents) {
    constexpr std::uint64_t extra = 100;
    for (std::uint64_t i = 0; i < recorder::ring_capacity + extra; ++i) {
        recorder::instance().record("test.wrap", i, 1, i, 0);
    }
    const auto got =
        events_named(recorder::instance().collect(), "test.wrap");
    // Exactly one ring's worth survives, and it is the newest window:
    // every kept start_ns is >= extra (the first `extra` were overwritten).
    EXPECT_EQ(got.size(), recorder::ring_capacity);
    std::set<std::uint64_t> starts;
    for (const span_event& e : got) {
        EXPECT_GE(e.start_ns, extra);
        EXPECT_LT(e.start_ns, recorder::ring_capacity + extra);
        starts.insert(e.start_ns);
    }
    EXPECT_EQ(starts.size(), recorder::ring_capacity); // all distinct
}

TEST_F(Recorder, DisabledRecordsNothing) {
    recorder::instance().set_enabled(false);
    EXPECT_FALSE(recorder::instance().enabled());
    EXPECT_EQ(timestamp_if_enabled(), 0u);
    recorder::instance().record("test.disabled", 1, 1, 0, 0);
    {
        // A span constructed while disabled is inert even if recording is
        // re-enabled before it finishes.
        span s{"test.disabled"};
        recorder::instance().set_enabled(true);
    }
    EXPECT_TRUE(
        events_named(recorder::instance().collect(), "test.disabled")
            .empty());
    EXPECT_GT(timestamp_if_enabled(), 0u);
}

TEST_F(Recorder, SpanRecordsDurationAndLateIdentity) {
    histogram stage;
    {
        span s{"test.span", &stage};
        s.set_correlation(11);
        s.set_fingerprint(13);
    }
    const auto got =
        events_named(recorder::instance().collect(), "test.span");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].correlation, 11u);
    EXPECT_EQ(got[0].fingerprint, 13u);
    EXPECT_EQ(stage.snapshot().total(), 1u);

    // finish() is idempotent: the destructor does not double-record.
    {
        span s{"test.span_finish", &stage};
        s.finish();
        s.finish();
    }
    EXPECT_EQ(
        events_named(recorder::instance().collect(), "test.span_finish")
            .size(),
        1u);
}

TEST_F(Recorder, ConcurrentWritersEachKeepTheirOwnRing) {
    constexpr int threads = 8;
    constexpr std::uint64_t per_thread = 1000; // < ring_capacity
    // Every writer stays alive until all have recorded: a ring is
    // recycled when its thread exits, so only live threads are concurrent.
    std::latch all_recorded{threads};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([t, &all_recorded] {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                recorder::instance().record(
                    "test.mt", static_cast<std::uint64_t>(t), 1, i, 0);
            }
            all_recorded.arrive_and_wait();
        });
    }
    for (std::thread& w : workers) {
        w.join();
    }
    const auto got = events_named(recorder::instance().collect(), "test.mt");
    // No thread wrapped, so nothing is lost and rings never interleave.
    EXPECT_EQ(got.size(), threads * per_thread);
    std::set<std::uint32_t> tids;
    for (const span_event& e : got) {
        tids.insert(e.tid);
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(threads));
}

TEST_F(Recorder, ShortLivedThreadsRecycleRingsWithWellFormedSpans) {
    // A ring goes back to a free list when its thread exits and the next
    // new thread takes it over, so ring memory follows the peak number of
    // live threads (here: this one plus one writer), not the number of
    // threads ever started.
    constexpr std::uint64_t writers = 512;
    for (std::uint64_t i = 0; i < writers; ++i) {
        std::thread writer{[i] {
            recorder::instance().record("test.recycle", 1000 + i, 10 + i, i,
                                        ~i, i, 0);
        }};
        writer.join();
    }
    const auto got =
        events_named(recorder::instance().collect(), "test.recycle");
    ASSERT_EQ(got.size(), writers);
    std::set<std::uint32_t> tids;
    std::set<std::uint64_t> seen;
    for (const span_event& e : got) {
        tids.insert(e.tid);
        const std::uint64_t i = e.correlation;
        ASSERT_LT(i, writers);
        EXPECT_TRUE(seen.insert(i).second) << "span " << i << " twice";
        EXPECT_NE(e.tid, 0u);
        EXPECT_EQ(e.start_ns, 1000 + i);
        EXPECT_EQ(e.dur_ns, 10 + i);
        EXPECT_EQ(e.fingerprint, ~i);
        EXPECT_EQ(e.trace_hi, i);
        EXPECT_EQ(e.trace_lo, 0u);
    }
    EXPECT_LE(tids.size(), 2u);
}

TEST_F(Recorder, CollectRacingWritersNeverTears) {
    // The seqlock promise: a collect() overlapping live writers returns
    // only stable events — a torn slot would pair a start with the wrong
    // correlation.  Writers stamp correlation == start_ns, so any mismatch
    // is a tear.  (The TSan job runs this test too: obs\. is in its regex.)
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&stop] {
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                recorder::instance().record("test.race", i, 1, i, i);
                ++i;
            }
        });
    }
    for (int round = 0; round < 50; ++round) {
        for (const span_event& e :
             events_named(recorder::instance().collect(), "test.race")) {
            EXPECT_EQ(e.correlation, e.start_ns);
            EXPECT_EQ(e.fingerprint, e.start_ns);
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& w : writers) {
        w.join();
    }
}

TEST_F(Recorder, WriterLappingAConcurrentCollectorNeverTearsASpan) {
    // Harder than CollectRacingWritersNeverTears: one writer *laps its
    // ring* several times while the collector drains continuously, so
    // most collected slots were overwritten mid-scan and must be proven
    // stale by their sequence, not returned torn.  Every field is a
    // distinct function of the record index; a slot mixing two records
    // breaks at least one equation.
    std::atomic<bool> done{false};
    std::thread writer{[&done] {
        for (std::uint64_t i = 1; i <= 4 * recorder::ring_capacity; ++i) {
            recorder::instance().record("test.lap", i, i + 1, i + 2, i + 3,
                                        i + 4, i + 5);
        }
        done.store(true, std::memory_order_release);
    }};
    std::size_t rounds = 0;
    while (!done.load(std::memory_order_acquire) || rounds == 0) {
        // A scan the writer lapped keeps nothing from that ring — an empty
        // round is the seqlock working, not a failure.  What it must never
        // do is keep a torn slot.
        for (const span_event& e :
             events_named(recorder::instance().collect(), "test.lap")) {
            const std::uint64_t i = e.start_ns;
            ASSERT_EQ(e.dur_ns, i + 1);
            ASSERT_EQ(e.correlation, i + 2);
            ASSERT_EQ(e.fingerprint, i + 3);
            ASSERT_EQ(e.trace_hi, i + 4);
            ASSERT_EQ(e.trace_lo, i + 5);
        }
        ++rounds;
    }
    writer.join();
    // Quiesced, the ring holds exactly the newest window, all stable.
    const auto settled =
        events_named(recorder::instance().collect(), "test.lap");
    EXPECT_EQ(settled.size(), recorder::ring_capacity);
    for (const span_event& e : settled) {
        ASSERT_GT(e.start_ns, 3 * recorder::ring_capacity);
    }
}

TEST_F(Recorder, ClearEmptiesEveryRing) {
    recorder::instance().record("test.clear", 1, 1, 0, 0);
    recorder::instance().clear();
    EXPECT_TRUE(
        events_named(recorder::instance().collect(), "test.clear").empty());
}

} // namespace
