// The binomial simulation trees (Property 1, Figure 1 of the paper).
//
// Level l holds 2^l nodes; the node for set index i at level l represents
// the cache set i of the configuration with 2^l sets.  Its two children at
// level l+1 are the sets i and i + 2^l: the index grows by one block-address
// bit per level, so a block's root-to-leaf path is implicit in its address
// and the tree needs no child pointers at all.  Both trees below index
// their nodes the same way: level l's node for block b sits at the flat
// slot (2^l - 1) + (b & (2^l - 1)).
//
// Two storage types, one per walk (see dew/simulator.hpp):
//
//  * dew_tree — the paper's node, for the counted walk that reproduces the
//    paper's comparison counts (Tables 3 and 4).
//  * lean_tree — for the fast walk that production sweeps run: per node
//    one contiguous record of A + 2 words, the MRA tag, the FIFO cursor
//    and the A tags, in 32-bit words until a block does not fit them;
//    72 bytes at A = 16 (144 once widened) against dew_tree's 296.
//
// dew_tree, per node (paper layout): the MRA tag, the MRE tag with its wave
// pointer, and A tag-list entries of (tag, wave pointer) — 96 + 64*A bits.
// The wave pointer of an entry holding tag t names the way t occupied in
// the *child node on t's path* when t last descended through it;
// `empty_wave` means unknown.  FIFO never moves a resident block between
// ways, which is what makes a stored way index trustworthy until eviction.
//
// dew_tree storage — two planes, engineered around the paper walk's access
// pattern:
//
//  * The MRA plane: one dense std::uint64_t per node.  The Property-2 probe
//    reads (and on a DM miss writes) the MRA tag of every node the walk
//    visits — it is by far the hottest field, and most visits touch nothing
//    else.  Packing the tags densely fits eight per cache line, so the
//    shallow levels stay resident and the deep, sparsely-hit levels cost
//    the fewest possible line fills.
//
//  * The record arena: one packed per-node record of everything else —
//    the FIFO/victim cursors, the A way entries, then the victim buffer —
//    at a fixed runtime stride.  A record is only touched when the walk has
//    to resolve an A-way set (a DM miss at that node), and then the cursor,
//    tag list and victim buffer are needed together: one stride computation
//    into one allocation, one or two adjacent lines.  The stride rounds the
//    record up to 32 bytes inside a 64-byte-aligned arena; rounding all the
//    way to 64 was measured slower (a 4-way record is 88 bytes — padding to
//    128 costs a third more footprint and misses than it saves in
//    alignment).
//
// The seed layout segmented one logical node across three parallel vectors
// (headers, ways, victims), so resolving one set gathered three distant
// lines; bench/seed_baseline.hpp preserves that layout as the perf
// baseline.
//
// Extension over the paper: the single MRE entry generalises to a small
// per-node *victim buffer* of `victim_depth` (tag, wave) entries holding
// the most recently evicted tags.  Depth 1 is exactly the paper's MRE
// entry; depth 0 disables Property 4; larger depths prove more misses
// without a search and preserve more wave pointers across evict/re-fetch
// cycles, at one extra comparison per probed entry.  The ablation bench
// measures the trade.
#ifndef DEW_DEW_TREE_HPP
#define DEW_DEW_TREE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "cache/set_model.hpp" // invalid_tag

namespace dew::core {

inline constexpr std::uint32_t empty_wave = ~std::uint32_t{0};

struct way_entry {
    std::uint64_t tag{cache::invalid_tag};
    std::uint32_t wave{empty_wave};
};

// The non-MRA scalar state of one node, leading its record in the arena.
struct node_header {
    std::uint32_t cursor{0};        // FIFO insertion pointer (ways)
    std::uint32_t victim_cursor{0}; // round-robin victim-buffer slot
};

// The record layout below hard-codes these sizes when computing strides
// and offsets.
static_assert(sizeof(node_header) == 8);
static_assert(sizeof(way_entry) == 16);

// Mutable view of one node: its MRA tag (dense plane), its cursor header,
// its A-entry tag list, and its victim buffer (nullptr when
// victim_depth == 0).
struct node_ref {
    std::uint64_t& mra; // most recently accessed tag
    node_header& header;
    way_entry* ways;    // [associativity]
    way_entry* victims; // [victim_depth], most recently evicted tags
};

class dew_tree {
public:
    // Levels 0..max_level inclusive; every node has `associativity` ways
    // and `victim_depth` victim-buffer entries (1 = the paper's MRE).
    dew_tree(unsigned max_level, std::uint32_t associativity,
             std::uint32_t victim_depth = 1);

    // The record arena is a raw aligned allocation, so copying must clone
    // it by hand (all record types are trivially copyable); moves transfer
    // the buffer.
    dew_tree(const dew_tree& other);
    dew_tree& operator=(const dew_tree& other);
    dew_tree(dew_tree&&) noexcept = default;
    dew_tree& operator=(dew_tree&&) noexcept = default;
    ~dew_tree() = default;

    // Register-resident view of the tree's layout for the walk's inner
    // loop.  The walk stores block numbers (std::uint64_t) through node
    // references, and under type-based aliasing such a store may alias any
    // same-typed member (stride_, arena_bytes_ are 64-bit unsigned too) —
    // so going through the dew_tree members would reload them after every
    // node mutation.  A walker snapshots the plane pointers and stride
    // into locals once, making the per-level lookup pure arithmetic.
    class walker {
    public:
        explicit walker(dew_tree& tree) noexcept
            : mra_{tree.mra_.data()},
              base_{tree.storage_.get()},
              stride_{tree.stride_},
              victim_offset_{tree.victim_offset_},
              has_victims_{tree.victim_depth_ != 0} {}

        // Node at a flat slot (level_offset(level) + index).
        [[nodiscard]] node_ref at(std::uint64_t slot) const noexcept {
            std::byte* const base = base_ + slot * stride_;
            return {mra_[slot],
                    *std::launder(reinterpret_cast<node_header*>(base)),
                    std::launder(reinterpret_cast<way_entry*>(
                        base + sizeof(node_header))),
                    has_victims_
                        ? std::launder(reinterpret_cast<way_entry*>(
                              base + victim_offset_))
                        : nullptr};
        }

    private:
        std::uint64_t* mra_;
        std::byte* base_;
        std::size_t stride_;
        std::size_t victim_offset_;
        bool has_victims_;
    };

    [[nodiscard]] walker make_walker() noexcept { return walker{*this}; }

    [[nodiscard]] node_ref node(unsigned level, std::uint64_t index) noexcept {
        return make_walker().at(level_offset(level) + index);
    }

    [[nodiscard]] unsigned max_level() const noexcept { return max_level_; }
    [[nodiscard]] std::uint32_t associativity() const noexcept { return assoc_; }
    [[nodiscard]] std::uint32_t victim_depth() const noexcept {
        return victim_depth_;
    }
    [[nodiscard]] std::uint64_t node_count() const noexcept {
        return node_count_;
    }

    // Bytes between consecutive records in the arena (the packed record
    // rounded up to 32 bytes).
    [[nodiscard]] std::size_t node_stride_bytes() const noexcept {
        return stride_;
    }
    // Total footprint in bytes: the dense MRA plane plus the record arena.
    [[nodiscard]] std::size_t storage_bytes() const noexcept {
        return mra_.size() * sizeof(std::uint64_t) + arena_bytes_;
    }

    // Reset all nodes to the cold state.
    void clear();

    // The paper's storage accounting (Section 5): bits per tree node and per
    // whole level, assuming 32-bit tags and 32-bit wave pointers.  The
    // paper's 96 + 64*A decomposes as 32 (MRA) + 64 (one MRE entry) +
    // 64*A (tag list); the general form substitutes the victim depth.
    [[nodiscard]] static constexpr std::uint64_t
    paper_bits_per_node(std::uint32_t associativity) noexcept {
        return 96 + std::uint64_t{64} * associativity;
    }
    [[nodiscard]] constexpr std::uint64_t bits_per_node() const noexcept {
        return 32 + std::uint64_t{64} * victim_depth_ +
               std::uint64_t{64} * assoc_;
    }
    [[nodiscard]] std::uint64_t paper_bits_per_level(unsigned level) const noexcept;
    [[nodiscard]] std::uint64_t paper_bits_total() const noexcept;

private:
    // Nodes of level l live at flat offsets [2^l - 1, 2^(l+1) - 1): the
    // classic implicit layout for a complete binary hierarchy of levels.
    [[nodiscard]] static constexpr std::uint64_t
    level_offset(unsigned level) noexcept {
        return (std::uint64_t{1} << level) - 1;
    }

    static constexpr std::size_t arena_alignment = 64;

    struct arena_delete {
        void operator()(std::byte* p) const noexcept {
            ::operator delete[](p, std::align_val_t{arena_alignment});
        }
    };
    using arena_ptr = std::unique_ptr<std::byte[], arena_delete>;

    [[nodiscard]] static arena_ptr allocate_arena(std::size_t bytes) {
        return arena_ptr{static_cast<std::byte*>(::operator new[](
            bytes, std::align_val_t{arena_alignment}))};
    }

    unsigned max_level_;
    std::uint32_t assoc_;
    std::uint32_t victim_depth_;
    std::uint64_t node_count_;
    std::size_t stride_;        // bytes per node record, multiple of 32
    std::size_t victim_offset_; // byte offset of the victim buffer in a record
    std::size_t arena_bytes_;   // node_count_ * stride_
    std::vector<std::uint64_t> mra_; // dense MRA plane, invalid_tag when cold
    // Packed records: one contiguous 64-byte-aligned byte allocation (a
    // single provided-storage region, so a record never straddles distinct
    // storage objects).
    arena_ptr storage_;
};

// The lean walk's tree: per node one record of A + 2 words,
//     word 0          the MRA tag (Property 2, and the direct-mapped set),
//     word 1          the FIFO cursor, read modulo A,
//     words 2..A + 1  the A-way set's tags, contiguous for the search,
// where level l holds a block's tag as block >> l: the set index takes the
// low l bits, so the rest tells two blocks of one set apart.
//
// The words are 32 bits wide while every block the pass has seen fits one
// (`fits_narrow`: below 2^32 - 1, so no tag reaches the all-ones
// sentinel), which makes a node 72 bytes at A = 16.  The first block that
// does not fit widens the tree once, exactly, to 64-bit words (`widen`):
// each word zero-extends and the 32-bit sentinel becomes
// cache::invalid_tag, so the wide walk goes on from the same state.
// clear() returns to 32-bit words.
//
// A cold record is all sentinel, so construction and clear() are one fill.
// The cold cursor therefore names way A - 1 first rather than way 0: FIFO
// only needs the cursor to name the oldest (or an empty) way, and any
// start gives the same misses.  Tag positions, unlike tag sets, are not
// those of dew_tree.
class lean_tree {
public:
    static constexpr std::size_t mra_word = 0;
    static constexpr std::size_t cursor_word = 1;
    static constexpr std::size_t first_tag_word = 2;
    // The record stride; the walk calls this with a compile-time A, so
    // its slot-to-record multiply folds to shifts and adds.
    [[nodiscard]] static constexpr std::size_t
    words_per_record(std::uint64_t associativity) noexcept {
        return first_tag_word + associativity;
    }

    static constexpr std::uint32_t narrow_sentinel = ~std::uint32_t{0};
    // Whether every tag of `block` (block >> l) fits a 32-bit word below
    // the sentinel.
    [[nodiscard]] static constexpr bool fits_narrow(std::uint64_t block) noexcept {
        return block < narrow_sentinel;
    }

    // Levels 0..max_level inclusive, `associativity` tags per node; the
    // words start 32 bits wide.
    lean_tree(unsigned max_level, std::uint32_t associativity);

    [[nodiscard]] bool wide() const noexcept { return !wide_.empty(); }
    // Turns every word into its 64-bit form; the tree must be narrow.
    void widen();

    // The node at flat slot s starts at records<Word>() + s * record_words(),
    // where Word is std::uint32_t while narrow and std::uint64_t once wide.
    // The walk keeps the base in a local, for the aliasing reason
    // dew_tree::walker gives.
    template <class Word> [[nodiscard]] Word* records() noexcept {
        if constexpr (std::is_same_v<Word, std::uint32_t>) {
            return narrow_.data();
        } else {
            return wide_.data();
        }
    }
    [[nodiscard]] std::size_t record_words() const noexcept {
        return record_words_;
    }
    // Word `which` of the node for set `index` at `level`, as the wide
    // tree holds it, at either width.
    [[nodiscard]] std::uint64_t word(unsigned level, std::uint64_t index,
                                     std::size_t which) const noexcept;

    [[nodiscard]] std::uint64_t node_count() const noexcept {
        return node_count_;
    }

    // Reset all nodes to the cold state, in 32-bit words.
    void clear();

private:
    std::size_t record_words_; // words_per_record(associativity)
    std::uint64_t node_count_;
    std::vector<std::uint32_t> narrow_; // empty once wide
    std::vector<std::uint64_t> wide_;   // empty while narrow
};

} // namespace dew::core

#endif // DEW_DEW_TREE_HPP
