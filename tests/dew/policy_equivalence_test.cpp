// The instrumentation policy must never change simulation results: the
// `fast` simulator (the lean walk: MRA stop, contiguous tag search, FIFO
// insert, whatever the options say) and the `full_counters` simulator (the
// paper walk, shaped by the options) must produce bit-identical miss counts
// on identical input, and the pre-decoded block-stream entry point must
// match the address entry point.  The lean walk keeps 32-bit tags until a
// block of 2^32 - 1 or more widens its tree, so its inputs also cross that
// width: at its boundary blocks, partway through every entry point, and
// back to 32 bits after reset().
#include "dew/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

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

// random_trace at `block_size`, turned wide at its midpoint.  The first
// half keeps to 32-bit tags and ends on 0xFFFF'FFFE, the last block they
// hold.  The second half starts on a first wide block (0xFFFF'FFFF for odd
// seeds, 2^32 for even ones), moves every third reference 2^32 blocks up
// (the same sets, other tags) and ends on the largest legal block.
trace::mem_trace widening_trace(std::uint64_t seed, std::size_t length,
                                std::uint32_t block_size) {
    trace::mem_trace trace = random_trace(seed, length);
    const unsigned bits = log2_exact(block_size);
    const std::size_t middle = length / 2;
    for (std::size_t i = middle; i < length; i += 3) {
        trace[i].address += std::uint64_t{1} << (32 + bits);
    }
    trace[middle - 1].address = std::uint64_t{0xFFFF'FFFE} << bits;
    trace[middle].address = (seed % 2 == 1 ? std::uint64_t{0xFFFF'FFFF}
                                           : std::uint64_t{1} << 32)
                            << bits;
    trace.back().address = (~std::uint64_t{0} - 1) >> bits << bits;
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

// On random_trace and on its widening_trace, which turns wide inside the
// one simulate_chunk call that simulate() makes.
TEST(PolicyEquivalence, FastAndCountedProduceIdenticalMisses) {
    for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
        const trace::mem_trace narrow = random_trace(seed, 30000);
        for (const geometry g : geometries) {
            const trace::mem_trace wide =
                widening_trace(seed, 30000, g.block_size);
            for (const trace::mem_trace* trace : {&narrow, &wide}) {
                for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
                    for (const std::uint32_t depth : {0u, 1u, 4u}) {
                        const dew_options options = options_for_depth(depth);
                        dew_simulator counted{g.max_level, assoc,
                                              g.block_size, options};
                        fast_dew_simulator fast{g.max_level, assoc,
                                                g.block_size, options};
                        counted.simulate(*trace);
                        fast.simulate(*trace);
                        EXPECT_EQ(fast.tree().wide(), trace == &wide);
                        EXPECT_EQ(counted.requests(), fast.requests());
                        expect_same_misses(
                            counted.result(), fast.result(),
                            std::string{trace == &wide ? "widening " : ""} +
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
// agree with each other, on 32-bit tags and across the widening.
TEST(PolicyEquivalence, GenericAssocFallbackMatchesCounted) {
    for (const trace::mem_trace& trace :
         {random_trace(11, 20000), widening_trace(11, 20000, 16)}) {
        for (const std::uint32_t assoc : {32u, 512u}) {
            dew_simulator counted{8, assoc, 16};
            fast_dew_simulator fast{8, assoc, 16};
            counted.simulate(trace);
            fast.simulate(trace);
            EXPECT_EQ(counted.requests(), fast.requests());
            expect_same_misses(counted.result(), fast.result(),
                               "A " + std::to_string(assoc));
        }
    }
}

// Every associativity the walk specialises, and the generic one.
constexpr std::uint32_t lean_assocs[] = {1, 2, 4, 8, 16, 32};

// The blocks either side of the width: 0xFFFF'FFFE is the last a 32-bit
// tag holds, 0xFFFF'FFFF and 2^32 are the first that widen the tree, and
// ~0 - 1 is the largest block there is.  Each one opens a stream, where a
// width test off by one would find it among the cold ways, and is reached
// in another after a thousand low blocks, so the widening has FIFO state
// to carry; then it comes back amid blocks of its own sets and low blocks.
TEST(PolicyEquivalence, WidthBoundaryBlocksMatchCounted) {
    constexpr unsigned max_level = 9;
    for (const std::uint64_t boundary :
         {std::uint64_t{0xFFFF'FFFE}, std::uint64_t{0xFFFF'FFFF},
          std::uint64_t{1} << 32, ~std::uint64_t{0} - 1}) {
        std::vector<std::uint64_t> opened{boundary};
        std::vector<std::uint64_t> reached;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            reached.push_back(i * 13 % 4096);
        }
        reached.push_back(boundary);
        for (std::uint64_t i = 1; i < 3000; ++i) {
            std::uint64_t block = i * 7 % 4096;
            if (i % 3 == 0) {
                block = boundary;
            } else if (i % 3 == 1) {
                block = boundary - ((i % 37 + 1) << (max_level + 1));
            }
            opened.push_back(block);
            reached.push_back(block);
        }
        for (const std::vector<std::uint64_t>* blocks : {&opened, &reached}) {
            for (const std::uint32_t assoc : lean_assocs) {
                dew_simulator counted{max_level, assoc, 1};
                fast_dew_simulator fast{max_level, assoc, 1};
                counted.simulate_blocks(*blocks);
                fast.simulate_blocks(*blocks);
                EXPECT_EQ(fast.tree().wide(),
                          !lean_tree::fits_narrow(boundary));
                EXPECT_EQ(counted.requests(), fast.requests());
                expect_same_misses(
                    counted.result(), fast.result(),
                    std::string{blocks == &opened ? "opened" : "reached"} +
                        " by block " + std::to_string(boundary) + " A " +
                        std::to_string(assoc));
            }
        }
    }
}

// A pass that turns wide partway through each entry point (inside one
// simulate_blocks span, inside a 7-reference simulate_chunk chunk, between
// single access() calls) answers as the counted walk does; after reset()
// it walks 32-bit tags again, still exactly.
TEST(PolicyEquivalence, WideningMidStreamMatchesCounted) {
    constexpr unsigned max_level = 9;
    constexpr std::uint32_t block_size = 16;
    const trace::mem_trace wide = widening_trace(8, 20000, block_size);
    const trace::mem_trace narrow = random_trace(9, 20000);
    const std::vector<std::uint64_t> blocks =
        trace::block_numbers(wide, log2_exact(block_size));
    // The first wide reference, 10000, falls inside the 1429th chunk.
    ASSERT_NE(wide.size() / 2 % 7, 0u);
    for (const std::uint32_t assoc : lean_assocs) {
        dew_simulator counted{max_level, assoc, block_size};
        fast_dew_simulator by_span{max_level, assoc, block_size};
        fast_dew_simulator by_chunk{max_level, assoc, block_size};
        fast_dew_simulator by_access{max_level, assoc, block_size};
        counted.simulate(wide);
        by_span.simulate_blocks(blocks);
        for (std::size_t at = 0; at < wide.size(); at += 7) {
            by_chunk.simulate_chunk(std::span{wide}.subspan(
                at, std::min<std::size_t>(7, wide.size() - at)));
        }
        for (const trace::mem_access& reference : wide) {
            by_access.access(reference);
        }
        const std::string shape = "A " + std::to_string(assoc);
        for (fast_dew_simulator* fast : {&by_span, &by_chunk, &by_access}) {
            EXPECT_TRUE(fast->tree().wide());
            EXPECT_EQ(counted.requests(), fast->requests());
            expect_same_misses(counted.result(), fast->result(), shape);
        }

        counted.reset();
        counted.simulate(narrow);
        for (fast_dew_simulator* fast : {&by_span, &by_chunk, &by_access}) {
            fast->reset();
            EXPECT_FALSE(fast->tree().wide());
            fast->simulate(narrow);
            EXPECT_FALSE(fast->tree().wide());
            EXPECT_EQ(counted.requests(), fast->requests());
            expect_same_misses(counted.result(), fast->result(),
                               shape + " after reset");
        }
    }
}

} // namespace
