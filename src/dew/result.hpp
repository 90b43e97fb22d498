// Read-only view of the per-configuration outcome of a DEW pass.
#ifndef DEW_DEW_RESULT_HPP
#define DEW_DEW_RESULT_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/config.hpp"
#include "dew/counters.hpp"

namespace dew::core {

// One simulated configuration and its exact outcome.
struct config_outcome {
    cache::cache_config config;
    std::uint64_t misses{0};
    std::uint64_t hits{0};

    [[nodiscard]] double miss_rate() const noexcept {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(misses) /
                                static_cast<double>(total);
    }
};

struct sweep_record_fields; // dew/result_io.hpp

class dew_result {
public:
    // Levels 0..max_level of a pass, with max_level < 32 as every
    // simulator requires.
    static constexpr std::size_t level_capacity = 32;

    // An unfilled pass, for a decoder to fill in place (dew/result_io.hpp);
    // only a filled pass may be read.
    dew_result() = default;
    // The miss arrays hold levels 0..max_level.
    dew_result(unsigned max_level, std::uint32_t assoc,
               std::uint32_t block_size, std::uint64_t requests,
               std::span<const std::uint64_t> misses_assoc,
               std::span<const std::uint64_t> misses_dm, dew_counters counters);

    // Misses of (set_count = 2^level, associativity, block size fixed).
    // associativity must be 1 or the simulated A; level <= max_level.
    [[nodiscard]] std::uint64_t misses(unsigned level,
                                       std::uint32_t associativity) const;
    [[nodiscard]] std::uint64_t hits(unsigned level,
                                     std::uint32_t associativity) const;

    // Misses addressed by full configuration; throws std::out_of_range if
    // the configuration was not covered by the pass.
    [[nodiscard]] std::uint64_t misses_of(const cache::cache_config& config) const;

    // All covered configurations with their outcomes, direct-mapped first,
    // ordered by set count.
    [[nodiscard]] std::vector<config_outcome> outcomes() const;

    [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
    [[nodiscard]] unsigned max_level() const noexcept { return max_level_; }
    [[nodiscard]] std::uint32_t associativity() const noexcept { return assoc_; }
    [[nodiscard]] std::uint32_t block_size() const noexcept { return block_size_; }
    [[nodiscard]] const dew_counters& counters() const noexcept {
        return counters_;
    }

private:
    // The DSWR record reads and writes the fields below in place.
    friend struct sweep_record_fields;

    unsigned max_level_{0};
    std::uint32_t assoc_{0};
    std::uint32_t block_size_{0};
    std::uint64_t requests_{0};
    // Inline, so a result, and a decoded sweep of results, costs no
    // allocation per pass; levels past max_level_ stay zero.
    std::array<std::uint64_t, level_capacity> misses_assoc_{};
    std::array<std::uint64_t, level_capacity> misses_dm_{};
    dew_counters counters_;
};

} // namespace dew::core

#endif // DEW_DEW_RESULT_HPP
