#include "dew/result.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"

namespace dew::core {

dew_result::dew_result(unsigned max_level, std::uint32_t assoc,
                       std::uint32_t block_size, std::uint64_t requests,
                       std::span<const std::uint64_t> misses_assoc,
                       std::span<const std::uint64_t> misses_dm,
                       dew_counters counters)
    : max_level_{max_level},
      assoc_{assoc},
      block_size_{block_size},
      requests_{requests},
      counters_{counters} {
    DEW_EXPECTS(max_level_ < level_capacity);
    DEW_EXPECTS(misses_assoc.size() == max_level_ + 1);
    DEW_EXPECTS(misses_dm.size() == max_level_ + 1);
    std::copy(misses_assoc.begin(), misses_assoc.end(), misses_assoc_.begin());
    std::copy(misses_dm.begin(), misses_dm.end(), misses_dm_.begin());
}

std::uint64_t dew_result::misses(unsigned level,
                                 std::uint32_t associativity) const {
    DEW_EXPECTS(level <= max_level_);
    DEW_EXPECTS(associativity == 1 || associativity == assoc_);
    return associativity == 1 ? misses_dm_[level] : misses_assoc_[level];
}

std::uint64_t dew_result::hits(unsigned level,
                               std::uint32_t associativity) const {
    return requests_ - misses(level, associativity);
}

std::uint64_t dew_result::misses_of(const cache::cache_config& config) const {
    if (config.block_size != block_size_ ||
        (config.associativity != 1 && config.associativity != assoc_) ||
        !is_pow2(config.set_count) ||
        log2_exact(config.set_count) > max_level_) {
        throw std::out_of_range{"configuration not covered by this DEW pass: " +
                                cache::to_string(config)};
    }
    return misses(log2_exact(config.set_count), config.associativity);
}

std::vector<config_outcome> dew_result::outcomes() const {
    std::vector<config_outcome> all;
    all.reserve(2 * (max_level_ + 1));
    for (unsigned level = 0; level <= max_level_; ++level) {
        const auto sets = std::uint32_t{1} << level;
        all.push_back({{sets, 1, block_size_}, misses_dm_[level],
                       requests_ - misses_dm_[level]});
    }
    if (assoc_ != 1) {
        for (unsigned level = 0; level <= max_level_; ++level) {
            const auto sets = std::uint32_t{1} << level;
            all.push_back({{sets, assoc_, block_size_}, misses_assoc_[level],
                           requests_ - misses_assoc_[level]});
        }
    }
    return all;
}

} // namespace dew::core
