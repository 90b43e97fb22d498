// The sharded result cache: hit/miss/eviction accounting, shared immutable
// values, and the hardened persistence round trip.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/bits.hpp"
#include "dew/sweep.hpp"
#include "serve/cache.hpp"
#include "serve/golden_cache.hpp"
#include "support/bytes.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::serve;
using test_support::to_hex;

request_key key_of(std::uint64_t n) {
    return {{{n, n * 3 + 1}}, {mix64(n), mix64(n + 1)}};
}

std::shared_ptr<const core::sweep_result> exact_value() {
    core::sweep_request request;
    request.max_set_exp = 3;
    request.block_sizes = {16};
    request.associativities = {2};
    return std::make_shared<const core::sweep_result>(core::run_sweep(
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 2000),
        request));
}

// The golden image's two entries: a counted sweep, whose 11 counter words
// are all non-zero, and a fast one; `seconds` pinned in both.
void insert_golden_entries(result_cache& cache) {
    const trace::mem_trace records =
        trace::make_mediabench_trace(trace::mediabench_app::cjpeg, 2000);
    core::sweep_request counted;
    counted.max_set_exp = 3;
    counted.block_sizes = {16};
    counted.associativities = {2};
    counted.instrumentation = core::sweep_instrumentation::full_counters;
    core::sweep_request fast = counted;
    fast.block_sizes = {32};
    fast.associativities = {1, 4};
    fast.instrumentation = core::sweep_instrumentation::fast;
    for (const auto& [n, request, seconds] :
         {std::tuple{std::uint64_t{11}, counted, 0.25},
          std::tuple{std::uint64_t{12}, fast, 1.5}}) {
        core::sweep_result sweep = core::run_sweep(records, request);
        sweep.seconds = seconds;
        cache.insert(key_of(n), std::make_shared<const core::sweep_result>(
                                    std::move(sweep)));
    }
}

TEST(ServeCache, HitsMissesAndEntriesAreCounted) {
    result_cache cache{{4, 64}};
    EXPECT_EQ(cache.find(key_of(1)), nullptr);
    cache.insert(key_of(1), exact_value());
    EXPECT_NE(cache.find(key_of(1)), nullptr);
    EXPECT_EQ(cache.find(key_of(2)), nullptr);

    const cache_stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, CapacityBoundsEntriesWithFifoEviction) {
    // One shard, capacity 4: the fifth insert evicts the oldest.
    result_cache cache{{1, 4}};
    const auto value = exact_value();
    for (std::uint64_t n = 0; n < 5; ++n) {
        cache.insert(key_of(n), value);
    }
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.find(key_of(0)), nullptr); // oldest gone
    EXPECT_NE(cache.find(key_of(4)), nullptr); // newest present

    // Eviction never invalidates a value a caller still holds.
    const auto held = cache.find(key_of(1));
    ASSERT_NE(held, nullptr);
    for (std::uint64_t n = 5; n < 20; ++n) {
        cache.insert(key_of(n), value);
    }
    EXPECT_EQ(cache.find(key_of(1)), nullptr);
    EXPECT_EQ(held->passes.size(), 1u); // still alive through our reference
}

TEST(ServeCache, DuplicateInsertKeepsIncumbent) {
    result_cache cache{{2, 16}};
    const auto first = exact_value();
    cache.insert(key_of(7), first);
    cache.insert(key_of(7), exact_value());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.find(key_of(7)), first);
}

TEST(ServeCache, RejectsZeroShardsOrCapacity) {
    EXPECT_THROW((result_cache{{0, 16}}), std::invalid_argument);
    EXPECT_THROW((result_cache{{4, 0}}), std::invalid_argument);
}

TEST(ServeCache, PersistenceRoundTripsExactEntries) {
    result_cache cache{{4, 64}};
    cache.insert(key_of(1), exact_value());
    cache.insert(key_of(2), exact_value());

    const std::string image = cache.save();

    result_cache restored{{4, 64}};
    const cache_load_report report = restored.load(image);
    EXPECT_EQ(report.loaded, 2u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_FALSE(report.salvaged);
    EXPECT_TRUE(report.checksum_ok);
    EXPECT_EQ(restored.size(), 2u);
    const auto hit = restored.find(key_of(1));
    ASSERT_NE(hit, nullptr);
    const auto original = cache.find(key_of(1));
    EXPECT_EQ(hit->passes.size(), original->passes.size());
    EXPECT_EQ(hit->passes[0].misses(3, 2), original->passes[0].misses(3, 2));
}

TEST(ServeCache, LoadRejectsMalformedPayloads) {
    result_cache cache{{4, 64}};
    cache.insert(key_of(1), exact_value());
    const std::string payload = cache.save();

    // Truncations at the header, mid-key, and mid-result all throw and
    // leave no partial entry behind.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{5}, std::size_t{20},
          payload.size() / 2, payload.size() - 1}) {
        result_cache victim{{4, 64}};
        EXPECT_THROW((void)victim.load(payload.substr(0, cut)),
                     std::runtime_error)
            << "cut at " << cut;
    }

    // Trailing garbage after the declared entries is rejected.
    result_cache victim{{4, 64}};
    try {
        (void)victim.load(payload + "junk");
        FAIL() << "trailing bytes accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("over-long"),
                  std::string::npos)
            << error.what();
    }

    // Bad magic.
    std::string bad = payload;
    bad[0] = 'X';
    result_cache magic_victim{{4, 64}};
    EXPECT_THROW((void)magic_victim.load(bad), std::runtime_error);
}

// The DSCF bytes are pinned: save() reproduces the golden image byte for
// byte, and loading it and saving again gives the same bytes.
TEST(ServeCache, SaveReproducesTheGoldenImage) {
    result_cache cache{{1, 16}}; // one shard: the file order is insertion
    insert_golden_entries(cache);
    const std::string image = cache.save();
    EXPECT_EQ(to_hex(image), golden::cache_image);

    result_cache restored{{1, 16}};
    EXPECT_EQ(restored.load(image).loaded, 2u);
    EXPECT_EQ(to_hex(restored.save()), golden::cache_image);
}

// A three-entry file truncated at EVERY byte boundary: strict mode must
// throw and leave the cache completely empty — no partial mutation, the
// crash-recovery contract's transactional half.
TEST(ServeCache, StrictLoadIsTransactionalAtEveryCutPoint) {
    result_cache cache{{2, 16}};
    for (std::uint64_t n = 1; n <= 3; ++n) {
        cache.insert(key_of(n), exact_value());
    }
    const std::string payload = cache.save();

    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        result_cache victim{{2, 16}};
        EXPECT_THROW(
            (void)victim.load(payload.substr(0, cut), load_mode::strict),
            std::runtime_error)
            << "cut at " << cut;
        EXPECT_EQ(victim.size(), 0u)
            << "strict load left partial state behind at cut " << cut;
    }
}

// The same file, same cuts, salvage mode: never throws, recovers exactly
// the entries framed and checksummed before the cut, and reports a fault
// offset no later than the cut itself.
TEST(ServeCache, SalvageLoadRecoversVerifiedPrefixAtEveryCutPoint) {
    result_cache cache{{2, 16}};
    for (std::uint64_t n = 1; n <= 3; ++n) {
        cache.insert(key_of(n), exact_value());
    }
    const std::string payload = cache.save();
    const auto reference = cache.find(key_of(1));
    ASSERT_NE(reference, nullptr);

    std::size_t best = 0; // recovery must be monotone in the cut point
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        result_cache victim{{2, 16}};
        cache_load_report report;
        ASSERT_NO_THROW(report = victim.load(payload.substr(0, cut),
                                             load_mode::salvage))
            << "cut at " << cut;
        EXPECT_TRUE(report.salvaged) << "cut at " << cut;
        EXPECT_FALSE(report.checksum_ok) << "cut at " << cut;
        EXPECT_LE(report.salvaged_at, cut) << "cut at " << cut;
        EXPECT_EQ(victim.size(), report.loaded) << "cut at " << cut;
        EXPECT_LE(report.loaded, 3u);
        if (cut >= 16) {
            // Header intact: the declared count is known, so loaded +
            // skipped must account for every declared entry.
            EXPECT_EQ(report.loaded + report.skipped, 3u)
                << "cut at " << cut;
        } else {
            EXPECT_EQ(report.loaded, 0u) << "cut at " << cut;
            EXPECT_EQ(report.skipped, 0u) << "cut at " << cut;
        }
        EXPECT_GE(report.loaded, best) << "cut at " << cut;
        best = report.loaded;
        // Every recovered entry is bit-identical to what was saved.  The
        // file's entry order is the save's shard order, so any subset of
        // the three keys may be the surviving prefix.
        std::size_t found = 0;
        for (std::uint64_t n = 1; n <= 3; ++n) {
            const auto hit = victim.find(key_of(n));
            if (hit == nullptr) {
                continue;
            }
            ++found;
            EXPECT_EQ(hit->passes[0].misses(3, 2),
                      reference->passes[0].misses(3, 2))
                << "cut at " << cut;
        }
        EXPECT_EQ(found, report.loaded) << "cut at " << cut;
    }
    EXPECT_EQ(best, 3u); // near-complete files recover everything

    // The undamaged file salvages losslessly and reports clean.
    result_cache whole{{2, 16}};
    const cache_load_report report = whole.load(payload, load_mode::salvage);
    EXPECT_EQ(report.loaded, 3u);
    EXPECT_FALSE(report.salvaged);
    EXPECT_TRUE(report.checksum_ok);
}

// Bit rot inside an entry's payload (framing intact): the per-entry
// checksum catches it — strict throws, salvage keeps only the entries
// before the damage.
TEST(ServeCache, ChecksumsCatchBitRotThatStillFrames) {
    result_cache cache{{2, 16}};
    for (std::uint64_t n = 1; n <= 3; ++n) {
        cache.insert(key_of(n), exact_value());
    }
    std::string payload = cache.save();

    // Flip one byte in the middle of the file body (inside some entry's
    // record bytes, past the 16-byte header).
    const std::size_t victim_byte = payload.size() / 2;
    payload[victim_byte] = static_cast<char>(payload[victim_byte] ^ 0x40);

    result_cache strict_victim{{2, 16}};
    EXPECT_THROW((void)strict_victim.load(payload, load_mode::strict),
                 std::runtime_error);
    EXPECT_EQ(strict_victim.size(), 0u);

    result_cache salvage_victim{{2, 16}};
    const cache_load_report report =
        salvage_victim.load(payload, load_mode::salvage);
    EXPECT_TRUE(report.salvaged);
    EXPECT_LT(report.loaded, 3u);
    EXPECT_LE(report.salvaged_at, victim_byte);
    EXPECT_EQ(salvage_victim.size(), report.loaded);
}

// Damage confined to the footer: every entry verifies individually, so
// salvage recovers all of them but still reports the file as damaged.
TEST(ServeCache, FooterDamageSalvagesEverythingButReportsIt) {
    result_cache cache{{2, 16}};
    cache.insert(key_of(1), exact_value());
    std::string payload = cache.save();
    payload.back() = static_cast<char>(payload.back() ^ 0x01);

    result_cache strict_victim{{2, 16}};
    try {
        (void)strict_victim.load(payload, load_mode::strict);
        FAIL() << "corrupt footer accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("footer"),
                  std::string::npos)
            << error.what();
    }

    result_cache salvage_victim{{2, 16}};
    const cache_load_report report =
        salvage_victim.load(payload, load_mode::salvage);
    EXPECT_EQ(report.loaded, 1u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_TRUE(report.salvaged);
    EXPECT_FALSE(report.checksum_ok);
}

} // namespace
