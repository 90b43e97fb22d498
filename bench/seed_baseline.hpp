// Frozen replica of the seed repository's DEW hot path, kept ONLY as the
// perf baseline for bench_micro / BENCH_micro.json.  Do not "improve" this
// file: its value is that it stays exactly what the library shipped before
// the packed-arena + instrumentation-policy refactor, so every future PR
// measures against the same starting line.
//
// What it preserves from the seed:
//   * the segmented tree — one logical node gathered from THREE parallel
//     vectors (headers, ways, victims), so a probe costs three cache lines;
//   * unconditional dew_counters updates (~10 bumps per access);
//   * options.effective_mre_depth() re-derived inside every victim probe;
//   * an out-of-line node() call per level (noinline below stands in for
//     the seed's separate translation unit).
//
// Miss counts are bit-identical to the refactored simulator; bench_micro
// asserts that before it reports throughput.
#ifndef DEW_BENCH_SEED_BASELINE_HPP
#define DEW_BENCH_SEED_BASELINE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/set_model.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "dew/counters.hpp"
#include "dew/options.hpp"
#include "trace/record.hpp"

namespace dew::bench::seed {

using core::dew_counters;
using core::dew_options;

// The seed's tree types, frozen here rather than taken from dew/tree.hpp so
// that no change to the library's trees can move this baseline.
inline constexpr std::uint32_t empty_wave = ~std::uint32_t{0};

struct way_entry {
    std::uint64_t tag{cache::invalid_tag};
    std::uint32_t wave{empty_wave};
};

struct node_header {
    std::uint64_t mra{cache::invalid_tag};
    std::uint32_t cursor{0};
    std::uint32_t victim_cursor{0};
};

struct node_ref {
    node_header& header;
    way_entry* ways;
    way_entry* victims;
};

// The seed's dew_tree: three disjoint per-field vectors.
class segmented_tree {
public:
    segmented_tree(unsigned max_level, std::uint32_t associativity,
                   std::uint32_t victim_depth)
        : assoc_{associativity}, victim_depth_{victim_depth} {
        const std::uint64_t nodes =
            (std::uint64_t{1} << (max_level + 1)) - 1;
        headers_.resize(nodes);
        ways_.resize(nodes * assoc_);
        victims_.resize(nodes * victim_depth_);
    }

    [[gnu::noinline]] node_ref node(unsigned level,
                                    std::uint64_t index) noexcept {
        const std::uint64_t slot =
            ((std::uint64_t{1} << level) - 1) + index;
        return {headers_[slot], &ways_[slot * assoc_],
                victim_depth_ == 0 ? nullptr
                                   : &victims_[slot * victim_depth_]};
    }

private:
    std::uint32_t assoc_;
    std::uint32_t victim_depth_;
    std::vector<node_header> headers_;
    std::vector<way_entry> ways_;
    std::vector<way_entry> victims_;
};

// The seed's dew_simulator::access, verbatim modulo renames: counters are
// plain members updated unconditionally, and the victim-buffer depth is
// re-derived from options on every probe.
class counted_simulator {
public:
    counted_simulator(unsigned max_level, std::uint32_t assoc,
                      std::uint32_t block_size, dew_options options = {})
        : max_level_{max_level},
          assoc_{assoc},
          way_mask_{assoc - 1},
          block_bits_{log2_exact(block_size)},
          options_{options},
          tree_{max_level, assoc, options.effective_mre_depth()},
          misses_assoc_(max_level + 1, 0),
          misses_dm_(max_level + 1, 0) {}

    void simulate(const trace::mem_trace& trace) {
        for (const trace::mem_access& reference : trace) {
            access(reference.address);
        }
    }

    void access(std::uint64_t address) {
        ++counters_.requests;
        const std::uint64_t block = address >> block_bits_;
        DEW_EXPECTS(block != cache::invalid_tag);
        const unsigned levels = max_level_ + 1;
        counters_.unoptimized_evaluations += levels * (assoc_ == 1 ? 1 : 2);

        way_entry* parent_entry = nullptr;

        for (unsigned level = 0; level < levels; ++level) {
            const node_ref node = tree_.node(level, block & low_mask(level));
            ++counters_.node_evaluations;

            ++counters_.tag_comparisons;
            if (node.header.mra == block) {
                ++counters_.mra_hits;
                if (options_.use_mra_stop) {
                    return;
                }
                parent_entry = nullptr;
                continue;
            }
            ++misses_dm_[level];
            node.header.mra = block;

            bool hit = false;
            std::uint32_t way = 0;
            bool determined = false;

            if (options_.use_wave && parent_entry != nullptr &&
                parent_entry->wave != empty_wave) {
                const std::uint32_t pointed = parent_entry->wave;
                ++counters_.wave_checks;
                ++counters_.tag_comparisons;
                determined = true;
                if (node.ways[pointed].tag == block) {
                    ++counters_.wave_hit_determinations;
                    hit = true;
                    way = pointed;
                } else {
                    ++counters_.wave_miss_determinations;
                    ++misses_assoc_[level];
                    way = insert_on_miss(node, block, knowledge::unknown);
                }
            }

            if (!determined) {
                std::uint32_t matched_slot = no_victim_match;
                if (options_.use_mre) {
                    matched_slot = probe_victims(node, block);
                }
                if (matched_slot != no_victim_match) {
                    ++counters_.mre_determinations;
                    ++misses_assoc_[level];
                    way = insert_on_miss(node, block, knowledge::matched,
                                         matched_slot);
                } else {
                    ++counters_.searches;
                    bool found = false;
                    for (std::uint32_t i = 0; i < assoc_; ++i) {
                        if (node.ways[i].tag == cache::invalid_tag) {
                            continue;
                        }
                        ++counters_.tag_comparisons;
                        if (node.ways[i].tag == block) {
                            found = true;
                            way = i;
                            break;
                        }
                    }
                    if (found) {
                        hit = true;
                    } else {
                        ++misses_assoc_[level];
                        way = insert_on_miss(node, block,
                                             options_.use_mre
                                                 ? knowledge::mismatched
                                                 : knowledge::unknown);
                    }
                }
            }

            if (parent_entry != nullptr) {
                parent_entry->wave = way;
            }
            parent_entry = &node.ways[way];
            (void)hit;
        }
    }

    [[nodiscard]] const dew_counters& counters() const noexcept {
        return counters_;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& misses_assoc() const noexcept {
        return misses_assoc_;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& misses_dm() const noexcept {
        return misses_dm_;
    }

private:
    enum class knowledge : std::uint8_t { unknown, matched, mismatched };

    static constexpr std::uint32_t no_victim_match = ~std::uint32_t{0};

    std::uint32_t probe_victims(node_ref node, std::uint64_t block) {
        const std::uint32_t depth = options_.effective_mre_depth();
        for (std::uint32_t slot = 0; slot < depth; ++slot) {
            if (node.victims[slot].tag == cache::invalid_tag) {
                continue;
            }
            ++counters_.tag_comparisons;
            if (node.victims[slot].tag == block) {
                return slot;
            }
        }
        return no_victim_match;
    }

    std::uint32_t insert_on_miss(node_ref node, std::uint64_t block,
                                 knowledge known,
                                 std::uint32_t matched_slot = no_victim_match) {
        const std::uint32_t victim = node.header.cursor;
        node.header.cursor = (victim + 1) & way_mask_;
        way_entry& slot = node.ways[victim];

        if (known == knowledge::unknown && options_.use_mre) {
            matched_slot = probe_victims(node, block);
            if (matched_slot != no_victim_match) {
                known = knowledge::matched;
                ++counters_.mre_swaps;
            }
        }

        if (known == knowledge::matched) {
            way_entry& buffered = node.victims[matched_slot];
            const way_entry displaced = slot;
            slot = buffered;
            buffered = displaced;
        } else {
            if (options_.use_mre && slot.tag != cache::invalid_tag) {
                const std::uint32_t depth = options_.effective_mre_depth();
                node.victims[node.header.victim_cursor] = slot;
                node.header.victim_cursor =
                    node.header.victim_cursor + 1 == depth
                        ? 0
                        : node.header.victim_cursor + 1;
            }
            slot.tag = block;
            slot.wave = empty_wave;
        }
        return victim;
    }

    unsigned max_level_;
    std::uint32_t assoc_;
    std::uint32_t way_mask_;
    unsigned block_bits_;
    dew_options options_;
    segmented_tree tree_;
    dew_counters counters_;
    std::vector<std::uint64_t> misses_assoc_;
    std::vector<std::uint64_t> misses_dm_;
};

} // namespace dew::bench::seed

#endif // DEW_BENCH_SEED_BASELINE_HPP
