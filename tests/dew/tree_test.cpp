#include "dew/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "cache/set_model.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "dew/simulator.hpp"
#include "trace/generator.hpp"

namespace {

using namespace dew;
using namespace dew::core;

TEST(DewTree, NodeCountIsCompleteBinaryHierarchy) {
    EXPECT_EQ(dew_tree(0, 1).node_count(), 1u);
    EXPECT_EQ(dew_tree(1, 1).node_count(), 3u);
    EXPECT_EQ(dew_tree(14, 4).node_count(), 32767u); // 2^15 - 1
}

TEST(DewTree, FreshNodesAreCold) {
    dew_tree tree{3, 4};
    for (unsigned level = 0; level <= 3; ++level) {
        for (std::uint64_t index = 0; index < (1u << level); ++index) {
            const node_ref node = tree.node(level, index);
            EXPECT_EQ(node.mra, dew::cache::invalid_tag);
            EXPECT_EQ(node.header.cursor, 0u);
            EXPECT_EQ(node.header.victim_cursor, 0u);
            EXPECT_EQ(node.victims[0].tag, dew::cache::invalid_tag);
            for (std::uint32_t way = 0; way < 4; ++way) {
                EXPECT_EQ(node.ways[way].tag, dew::cache::invalid_tag);
                EXPECT_EQ(node.ways[way].wave, empty_wave);
            }
        }
    }
}

TEST(DewTree, NodesAreDistinctStorage) {
    dew_tree tree{2, 2};
    tree.node(1, 0).mra = 111;
    tree.node(1, 1).mra = 222;
    tree.node(2, 0).ways[0].tag = 333;
    EXPECT_EQ(tree.node(1, 0).mra, 111u);
    EXPECT_EQ(tree.node(1, 1).mra, 222u);
    EXPECT_EQ(tree.node(2, 0).ways[0].tag, 333u);
    EXPECT_EQ(tree.node(2, 1).ways[0].tag, dew::cache::invalid_tag);
}

TEST(DewTree, ClearRestoresColdState) {
    dew_tree tree{2, 2};
    tree.node(0, 0).mra = 5;
    tree.node(2, 3).ways[1] = {42, 1};
    tree.clear();
    EXPECT_EQ(tree.node(0, 0).mra, dew::cache::invalid_tag);
    EXPECT_EQ(tree.node(2, 3).ways[1].tag, dew::cache::invalid_tag);
    EXPECT_EQ(tree.node(2, 3).ways[1].wave, empty_wave);
}

TEST(DewTree, PaperBitsPerNodeFormula) {
    // Section 5: per tree node, 96 + 64*A bits.
    EXPECT_EQ(dew_tree::paper_bits_per_node(1), 160u);
    EXPECT_EQ(dew_tree::paper_bits_per_node(4), 352u);
    EXPECT_EQ(dew_tree::paper_bits_per_node(16), 1120u);
}

TEST(DewTree, PaperBitsPerLevelScalesWithSets) {
    dew_tree tree{3, 4};
    // Per level: S * (96 + 64*A).
    EXPECT_EQ(tree.paper_bits_per_level(0), 352u);
    EXPECT_EQ(tree.paper_bits_per_level(3), 8u * 352u);
    EXPECT_EQ(tree.paper_bits_total(), (1 + 2 + 4 + 8) * 352u);
}

TEST(DewTree, RejectsInvalidGeometry) {
    EXPECT_THROW(dew_tree(32, 4), dew::contract_violation);
    EXPECT_THROW(dew_tree(2, 3), dew::contract_violation);
}

TEST(DewTree, RecordStrideIsPackedAndRounded) {
    // Record = 8-byte header + 16 bytes per (way or victim) entry, rounded
    // up to 32 bytes.
    EXPECT_EQ(dew_tree(2, 4, 1).node_stride_bytes(), 96u);   // 8+80 -> 96
    EXPECT_EQ(dew_tree(2, 2, 1).node_stride_bytes(), 64u);   // 8+48 -> 64
    EXPECT_EQ(dew_tree(2, 1, 0).node_stride_bytes(), 32u);   // 8+16 -> 32
    EXPECT_EQ(dew_tree(2, 8, 4).node_stride_bytes(), 224u); // 8+192 -> 224
}

TEST(DewTree, StorageCoversMraPlanePlusRecords) {
    dew_tree tree{3, 4, 1};
    const std::uint64_t nodes = tree.node_count();
    EXPECT_GE(tree.storage_bytes(),
              nodes * (8 + tree.node_stride_bytes()));
}

TEST(DewTree, NodeFieldsOfOneRecordAreContiguous) {
    dew_tree tree{4, 4, 2};
    const node_ref node = tree.node(3, 5);
    const auto* header_bytes =
        reinterpret_cast<const std::byte*>(&node.header);
    const auto* ways_bytes = reinterpret_cast<const std::byte*>(node.ways);
    const auto* victims_bytes =
        reinterpret_cast<const std::byte*>(node.victims);
    EXPECT_EQ(ways_bytes - header_bytes,
              static_cast<std::ptrdiff_t>(sizeof(node_header)));
    EXPECT_EQ(victims_bytes - ways_bytes,
              static_cast<std::ptrdiff_t>(4 * sizeof(way_entry)));
}

TEST(DewTree, ZeroVictimDepthYieldsNullVictimView) {
    dew_tree tree{2, 2, 0};
    EXPECT_EQ(tree.node(1, 1).victims, nullptr);
    EXPECT_EQ(tree.victim_depth(), 0u);
}

TEST(LeanTree, RecordIsMraCursorThenTags) {
    lean_tree tree{3, 4};
    EXPECT_EQ(tree.node_count(), 15u);
    EXPECT_EQ(tree.record_words(), 6u);
    EXPECT_FALSE(tree.wide());
    // Level 2, set 3 is flat slot 2^2 - 1 + 3 = 6.
    tree.records<std::uint32_t>()[6 * 6 + lean_tree::cursor_word] = 5;
    EXPECT_EQ(tree.word(2, 3, lean_tree::cursor_word), 5u);
    tree.widen();
    EXPECT_TRUE(tree.wide());
    EXPECT_EQ(tree.records<std::uint64_t>()[6 * 6 + lean_tree::cursor_word],
              5u);
    EXPECT_EQ(tree.word(2, 3, lean_tree::cursor_word), 5u);
}

TEST(LeanTree, ColdAndClearedRecordsAreAllSentinel) {
    lean_tree tree{2, 2};
    const std::size_t words = tree.node_count() * tree.record_words();
    const auto all_cold = [&] {
        if (tree.wide()) {
            const std::uint64_t* wide = tree.records<std::uint64_t>();
            return std::all_of(wide, wide + words, [](std::uint64_t w) {
                return w == cache::invalid_tag;
            });
        }
        const std::uint32_t* narrow = tree.records<std::uint32_t>();
        return std::all_of(narrow, narrow + words, [](std::uint32_t w) {
            return w == lean_tree::narrow_sentinel;
        });
    };
    EXPECT_TRUE(all_cold());
    tree.records<std::uint32_t>()[tree.record_words() + lean_tree::mra_word] = 7;
    tree.records<std::uint32_t>()[lean_tree::cursor_word] = 1;
    EXPECT_FALSE(all_cold());
    tree.clear();
    EXPECT_TRUE(all_cold());
    // A cold tree widens cold, and clear() goes back to 32-bit words.
    tree.widen();
    EXPECT_TRUE(all_cold());
    tree.records<std::uint64_t>()[lean_tree::mra_word] = 7;
    EXPECT_FALSE(all_cold());
    tree.clear();
    EXPECT_FALSE(tree.wide());
    EXPECT_TRUE(all_cold());
}

// Widening zero-extends every word, cursors included, and turns only the
// 32-bit sentinel into the 64-bit one.
TEST(LeanTree, WideningZeroExtendsEveryWordAndMapsTheSentinel) {
    lean_tree tree{1, 2}; // 3 nodes x 4 words
    const std::uint32_t values[] = {0, 1, 2, 0x8000'0000, 0xFFFF'FFFE,
                                    lean_tree::narrow_sentinel};
    const std::size_t words = tree.node_count() * tree.record_words();
    std::uint32_t* narrow = tree.records<std::uint32_t>();
    for (std::size_t i = 0; i < words; ++i) {
        narrow[i] = values[i % std::size(values)];
    }
    tree.widen();
    const std::uint64_t* wide = tree.records<std::uint64_t>();
    for (std::size_t i = 0; i < words; ++i) {
        const std::uint32_t before = values[i % std::size(values)];
        EXPECT_EQ(wide[i], before == lean_tree::narrow_sentinel
                               ? cache::invalid_tag
                               : std::uint64_t{before})
            << "word " << i;
    }
    EXPECT_THROW(tree.widen(), contract_violation);
}

TEST(LeanTree, RejectsInvalidGeometry) {
    EXPECT_THROW(lean_tree(32, 4), contract_violation);
    EXPECT_THROW(lean_tree(2, 3), contract_violation);
}

// The lean walk's tree holds exactly the reference FIFO sets (as sets: a
// cold cursor starts at way A - 1, so positions differ from dew_tree's),
// and every MRA tag is the last block that mapped to its set, including
// the sets a stopped walk never visited.  Level l holds a block as
// block >> l, and the tree is wide from the first block of 2^32 - 1 or
// more on, never before.
void expect_reference_fifo_sets(const trace::mem_trace& trace) {
    constexpr unsigned max_level = 4;
    constexpr std::uint32_t assoc = 4;
    constexpr unsigned block_bits = 2;
    fast_dew_simulator sim{max_level, assoc, 1u << block_bits};
    std::vector<cache::fifo_cache_state> reference;
    std::vector<std::uint64_t> last(std::size_t{2} << max_level,
                                    cache::invalid_tag);
    for (unsigned level = 0; level <= max_level; ++level) {
        reference.emplace_back(std::uint32_t{1} << level, assoc);
    }
    const auto stored = [](std::uint64_t block, unsigned level) {
        return block == cache::invalid_tag ? block : block >> level;
    };
    bool wide = false;
    for (const auto& access : trace) {
        sim.access(access.address);
        const std::uint64_t block = access.address >> block_bits;
        wide = wide || !lean_tree::fits_narrow(block);
        ASSERT_EQ(sim.tree().wide(), wide) << "block " << block;
        for (unsigned level = 0; level <= max_level; ++level) {
            const auto set =
                static_cast<std::uint32_t>(block & low_mask(level));
            reference[level].access(set, block);
            last[(std::size_t{1} << level) - 1 + set] = block;
        }
        for (unsigned level = 0; level <= max_level; ++level) {
            for (std::uint32_t set = 0; set < (1u << level); ++set) {
                ASSERT_EQ(sim.tree().word(level, set, lean_tree::mra_word),
                          stored(last[(std::size_t{1} << level) - 1 + set],
                                 level));
                std::vector<std::uint64_t> lean;
                std::vector<std::uint64_t> fifo;
                for (std::uint32_t way = 0; way < assoc; ++way) {
                    lean.push_back(sim.tree().word(
                        level, set, lean_tree::first_tag_word + way));
                    fifo.push_back(
                        stored(reference[level].tag_at(set, way), level));
                }
                std::sort(lean.begin(), lean.end());
                std::sort(fifo.begin(), fifo.end());
                ASSERT_EQ(lean, fifo) << "level " << level << " set " << set;
            }
        }
    }
}

TEST(LeanTree, HoldsTheReferenceFifoSetsAfterEveryAccess) {
    const auto narrow = trace::make_random_trace(0, 512, 3000, 21, 4);
    {
        SCOPED_TRACE("32-bit words throughout");
        expect_reference_fifo_sets(narrow);
    }
    // From a third of the way in, every other reference moves 2^32 blocks
    // up: the same sets, other tags, and blocks past the 32-bit width.
    auto widening = narrow;
    for (std::size_t i = widening.size() / 3; i < widening.size(); i += 2) {
        widening[i].address += std::uint64_t{1} << 34;
    }
    SCOPED_TRACE("widened a third of the way in");
    expect_reference_fifo_sets(widening);
}

} // namespace
