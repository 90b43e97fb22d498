// Extreme 64-bit addresses through both walks: high-half address ranges
// must behave identically to low ones (the tag arithmetic is pure
// shifting/masking), and the one unrepresentable block number — the
// empty-way sentinel — must be rejected loudly instead of corrupting state.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/dinero_sim.hpp"
#include "common/contracts.hpp"
#include "dew/result.hpp"
#include "dew/simulator.hpp"
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

TYPED_TEST(ExtremeAddresses, SentinelBlockNumberRejected) {
    TypeParam sim{4, 2, 1}; // block size 1: block == address
    EXPECT_THROW(sim.access(~std::uint64_t{0}), contract_violation);
    const std::vector<std::uint64_t> blocks{1, ~std::uint64_t{0}};
    EXPECT_THROW(sim.simulate_blocks(blocks), contract_violation);
    // One bit below the sentinel is fine.
    EXPECT_NO_THROW(sim.access(~std::uint64_t{0} - 1));
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
