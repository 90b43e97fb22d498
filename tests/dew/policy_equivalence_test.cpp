// The instrumentation policy must never change simulation results: the
// `fast` simulator (the lean walk: MRA stop, contiguous tag search, FIFO
// insert, whatever the options say) and the `full_counters` simulator (the
// paper walk, shaped by the options) must produce bit-identical miss counts
// on identical input, and the pre-decoded block-stream entry point must
// match the address entry point.
#include "dew/simulator.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "trace/generator.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::core;

// Deterministic pseudo-random trace: mixed hot/cold regions with enough
// conflict pressure to exercise every resolution path (MRA, wave, victim
// buffer, full search) at every tested geometry.
trace::mem_trace random_trace(std::uint64_t seed, std::size_t length) {
    trace::mem_trace trace;
    trace.reserve(length);
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    for (std::size_t i = 0; i < length; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Mix a small hot region (frequent re-references) with a large
        // region (evictions) and occasional far addresses (deep DM misses).
        std::uint64_t address;
        switch (state % 4) {
        case 0: address = (state >> 8) % 0x2000; break;
        case 1: address = 0x100000 + (state >> 8) % 0x40000; break;
        default: address = (state >> 8) % 0x800000; break;
        }
        trace.push_back({address, trace::access_type::read});
    }
    return trace;
}

dew_options options_for_depth(std::uint32_t depth) {
    dew_options options;
    if (depth == 0) {
        options.use_mre = false;
    } else {
        options.mre_depth = depth;
    }
    return options;
}

// Exact equality of both miss columns, level by level.
void expect_same_misses(const dew_result& expected, const dew_result& actual,
                        const std::string& what) {
    ASSERT_EQ(expected.max_level(), actual.max_level()) << what;
    const std::uint32_t assoc = expected.associativity();
    for (unsigned level = 0; level <= expected.max_level(); ++level) {
        EXPECT_EQ(expected.misses(level, assoc), actual.misses(level, assoc))
            << what << " level " << level;
        EXPECT_EQ(expected.misses(level, 1), actual.misses(level, 1))
            << what << " level " << level;
    }
}

// (block size, depth): the original geometry, both block-size extremes,
// and the paper's depth.
struct geometry {
    std::uint32_t block_size;
    unsigned max_level;
};
constexpr geometry geometries[] = {{16, 9}, {1, 9}, {64, 9}, {32, 14}};

TEST(PolicyEquivalence, FastAndCountedProduceIdenticalMisses) {
    for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
        const trace::mem_trace trace = random_trace(seed, 30000);
        for (const geometry g : geometries) {
            for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
                for (const std::uint32_t depth : {0u, 1u, 4u}) {
                    const dew_options options = options_for_depth(depth);
                    dew_simulator counted{g.max_level, assoc, g.block_size,
                                          options};
                    fast_dew_simulator fast{g.max_level, assoc, g.block_size,
                                            options};
                    counted.simulate(trace);
                    fast.simulate(trace);
                    EXPECT_EQ(counted.requests(), fast.requests());
                    expect_same_misses(
                        counted.result(), fast.result(),
                        "seed " + std::to_string(seed) + " B " +
                            std::to_string(g.block_size) + " depth " +
                            std::to_string(g.max_level) + " A " +
                            std::to_string(assoc) + " mre_depth " +
                            std::to_string(depth));
                }
            }
        }
    }
}

// The fast walk ignores every switch: each option set must give the misses
// of the default counted pass (full DEW).
TEST(PolicyEquivalence, FastMissesIgnoreEveryOption) {
    const dew_options variants[] = {
        dew_options{},
        dew_options::unoptimized(),
        dew_options{false, true, true, 1},
        dew_options{true, false, true, 1},
        dew_options{true, true, false, 1},
        dew_options{true, true, true, 4},
    };
    for (const std::uint64_t seed : {5ull, 77ull}) {
        const trace::mem_trace trace = random_trace(seed, 20000);
        for (const geometry g : geometries) {
            for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
                dew_simulator reference{g.max_level, assoc, g.block_size};
                reference.simulate(trace);
                for (std::size_t v = 0; v < std::size(variants); ++v) {
                    fast_dew_simulator fast{g.max_level, assoc, g.block_size,
                                            variants[v]};
                    fast.simulate(trace);
                    expect_same_misses(
                        reference.result(), fast.result(),
                        "seed " + std::to_string(seed) + " B " +
                            std::to_string(g.block_size) + " depth " +
                            std::to_string(g.max_level) + " A " +
                            std::to_string(assoc) + " option set " +
                            std::to_string(v));
                }
            }
        }
    }
}

TEST(PolicyEquivalence, FastPolicyReportsZeroCountersButRealRequests) {
    const trace::mem_trace trace = random_trace(7, 5000);
    fast_dew_simulator fast{6, 4, 32};
    fast.simulate(trace);
    EXPECT_EQ(fast.requests(), trace.size());
    // The counters view is all-zero (no bookkeeping exists)...
    EXPECT_EQ(fast.counters().tag_comparisons, 0u);
    EXPECT_EQ(fast.counters().node_evaluations, 0u);
    // ...but the result still carries the request count, so hits stay
    // derivable downstream (sweep aggregation relies on this).
    EXPECT_EQ(fast.result().counters().requests, trace.size());
    EXPECT_EQ(fast.result().requests(), trace.size());
}

TEST(PolicyEquivalence, SimulateBlocksMatchesSimulate) {
    for (const std::uint64_t seed : {3ull, 99ull}) {
        const trace::mem_trace trace = random_trace(seed, 20000);
        for (const std::uint32_t block_size : {16u, 64u}) {
            const std::vector<std::uint64_t> blocks =
                trace::block_numbers(trace, log2_exact(block_size));
            ASSERT_EQ(blocks.size(), trace.size());

            fast_dew_simulator by_address{8, 4, block_size};
            fast_dew_simulator by_blocks{8, 4, block_size};
            by_address.simulate(trace);
            by_blocks.simulate_blocks(blocks);

            EXPECT_EQ(by_address.requests(), by_blocks.requests());
            const dew_result a = by_address.result();
            const dew_result b = by_blocks.result();
            for (unsigned level = 0; level <= 8; ++level) {
                EXPECT_EQ(a.misses(level, 4), b.misses(level, 4));
                EXPECT_EQ(a.misses(level, 1), b.misses(level, 1));
            }
        }
    }
}

TEST(PolicyEquivalence, CountedSimulateBlocksKeepsExactCounters) {
    const trace::mem_trace trace =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 20000);
    const std::vector<std::uint64_t> blocks = trace::block_numbers(trace, 5);

    dew_simulator by_address{8, 4, 32};
    dew_simulator by_blocks{8, 4, 32};
    by_address.simulate(trace);
    by_blocks.simulate_blocks(blocks);

    EXPECT_EQ(by_address.counters().requests, by_blocks.counters().requests);
    EXPECT_EQ(by_address.counters().tag_comparisons,
              by_blocks.counters().tag_comparisons);
    EXPECT_EQ(by_address.counters().node_evaluations,
              by_blocks.counters().node_evaluations);
    EXPECT_EQ(by_address.counters().unoptimized_evaluations,
              by_blocks.counters().unoptimized_evaluations);
}

// Associativities without a static specialisation (32, and 512, past any
// 8-bit cursor) fall through to the generic runtime-assoc walks, which must
// agree with each other.
TEST(PolicyEquivalence, GenericAssocFallbackMatchesCounted) {
    const trace::mem_trace trace = random_trace(11, 20000);
    for (const std::uint32_t assoc : {32u, 512u}) {
        dew_simulator counted{8, assoc, 16};
        fast_dew_simulator fast{8, assoc, 16};
        counted.simulate(trace);
        fast.simulate(trace);
        expect_same_misses(counted.result(), fast.result(),
                           "A " + std::to_string(assoc));
    }
}

} // namespace
