// Extreme 64-bit addresses through both walks: high-half address ranges
// must behave identically to low ones (the tag arithmetic is pure
// shifting/masking), and the one unrepresentable block number — the
// empty-way sentinel — must be rejected loudly instead of corrupting state
// or counting as a request.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "baseline/dinero_sim.hpp"
#include "common/contracts.hpp"
#include "dew/result.hpp"
#include "dew/result_io.hpp"
#include "dew/simulator.hpp"
#include "dew/sweep.hpp"
#include "trace/generator.hpp"

namespace {

using namespace dew;
using namespace dew::core;
using trace::mem_trace;

// The counted paper walk and the fast lean walk.
template <class Sim>
class ExtremeAddresses : public ::testing::Test {};
using walks = ::testing::Types<dew_simulator, fast_dew_simulator>;
TYPED_TEST_SUITE(ExtremeAddresses, walks);

TYPED_TEST(ExtremeAddresses, HighHalfAddressSpaceStaysExact) {
    // Same random workload placed at the bottom and near the top of the
    // 64-bit address space: identical counts (metamorphic translation),
    // and both exact against the per-configuration oracle.
    const mem_trace low = trace::make_random_trace(0, 1 << 14, 15000,
                                                   0xE57, 4);
    mem_trace high = low;
    const std::uint64_t offset = 0xFFFF'FF00'0000'0000ull;
    for (auto& access : high) {
        access.address += offset;
    }

    TypeParam low_sim{6, 4, 16};
    TypeParam high_sim{6, 4, 16};
    low_sim.simulate(low);
    high_sim.simulate(high);
    for (unsigned level = 0; level <= 6; ++level) {
        EXPECT_EQ(low_sim.result().misses(level, 4),
                  high_sim.result().misses(level, 4));
        EXPECT_EQ(high_sim.result().misses(level, 4),
                  baseline::count_misses(high,
                                         {std::uint32_t{1} << level, 4, 16},
                                         cache::replacement_policy::fifo));
        EXPECT_EQ(high_sim.result().misses(level, 1),
                  baseline::count_misses(high,
                                         {std::uint32_t{1} << level, 1, 16},
                                         cache::replacement_policy::fifo));
    }
}

// Every field of a pass, as its DSWR record.
std::string record_of(const dew_result& pass) {
    sweep_result sweep;
    sweep.passes.push_back(pass);
    return encode_sweep_record(sweep);
}

// A rejected block is not a request: after each rejected access,
// simulate_blocks and simulate_chunk the simulator reads exactly as a
// fresh one fed only the accepted prefix.
TYPED_TEST(ExtremeAddresses, SentinelBlockNumberRejected) {
    constexpr std::uint64_t sentinel = ~std::uint64_t{0};
    TypeParam sim{4, 2, 1}; // block size 1: block == address
    TypeParam reference{4, 2, 1};
    const auto expect_prefix_only = [&](const char* step) {
        SCOPED_TRACE(step);
        EXPECT_EQ(sim.requests(), reference.requests());
        EXPECT_EQ(record_of(sim.result()), record_of(reference.result()));
    };

    EXPECT_THROW(sim.access(sentinel), contract_violation);
    expect_prefix_only("access");

    const std::vector<std::uint64_t> blocks{5, sentinel, 7, 9};
    EXPECT_THROW(sim.simulate_blocks(blocks), contract_violation);
    reference.simulate_blocks(std::span{blocks}.first(1));
    expect_prefix_only("simulate_blocks");

    const mem_trace chunk{{11, trace::access_type::read},
                          {13, trace::access_type::read},
                          {sentinel, trace::access_type::read},
                          {17, trace::access_type::read}};
    EXPECT_THROW(sim.simulate_chunk(chunk), contract_violation);
    reference.simulate_chunk(std::span{chunk}.first(2));
    expect_prefix_only("simulate_chunk");

    // One bit below the sentinel is fine.
    EXPECT_NO_THROW(sim.access(sentinel - 1));
    reference.access(sentinel - 1);
    expect_prefix_only("access below the sentinel");
}

TYPED_TEST(ExtremeAddresses, TopBlocksAtWiderBlockSizesAreLegal) {
    // With block size >= 2 the shifted block number cannot reach the
    // sentinel; the very top of the address space must simulate cleanly.
    TypeParam sim{8, 4, 64};
    for (int i = 0; i < 1000; ++i) {
        sim.access(~std::uint64_t{0} - static_cast<std::uint64_t>(i) * 64);
    }
    EXPECT_EQ(sim.requests(), 1000u);
    const dew_result result = sim.result();
    EXPECT_GT(result.misses(0, 4), 0u);
}

} // namespace
