// The DEW simulator: exact, single-pass, multi-configuration level-1 cache
// simulation under FIFO replacement (Section 4 of the paper).
//
// One instance simulates, in a single pass over the trace, every cache
// configuration with
//     set count      S = 2^0 .. 2^max_level,
//     associativity  A (the constructor argument)  *and*  A = 1,
//     block size     B (the constructor argument),
// producing exact hit/miss counts for all of them.  The associativity-1
// results come for free: each node's MRA tag *is* the content of the
// direct-mapped cache set it represents, so the MRA probe that implements
// Property 2 simultaneously resolves the direct-mapped configuration — this
// is the paper's "DEW automatically simulates [direct mapped] while
// simulating any other associativity".
//
// Why each property is sound under FIFO:
//  * MRA stop (P2): if the request equals node.mra, the *previous* request
//    mapping to this set was the same block; every deeper set on the path
//    sees a subsequence of this set's requests, so that block was also the
//    last request there, is still resident (hits change no FIFO state), and
//    the walk can stop with a hit certified for all deeper levels.
//  * Wave pointer (P3): FIFO never relocates a resident block, so the way
//    recorded when the tag last visited the child either still holds the
//    tag (hit) or the tag was evicted (miss).  One comparison decides.
//  * MRE entry (P4): a block matching the most-recently-evicted tag cannot
//    be resident (re-insertion would have displaced the MRE entry first),
//    so the match proves a miss; the swap returns the preserved wave
//    pointer, keeping P3 effective across evict/re-fetch cycles.  This
//    library generalises the entry to a k-deep victim buffer
//    (dew_options::mre_depth; k = 1 is the paper, bit-for-bit).
//
// The instrumentation policy (see dew/counters.hpp) picks one of two walks.
// Both produce bit-identical miss counts for every geometry, trace and
// chunking (tests/dew/policy_equivalence_test.cpp).
//  * The paper walk, under `full_counters` (`dew_simulator`): Algorithms 1
//    and 2 with all four properties on dew_tree, counting every node visit
//    and tag comparison.  It is the reference for Tables 3 and 4, the
//    ablation bench and the tag-comparison metrics, and the only walk that
//    reads dew_options.
//  * The lean walk, under `fast` (`fast_dew_simulator`): the walk that
//    run_sweep, the session, the service and the explorer run, on
//    lean_tree.  At each level it probes the MRA tag (a match is the P2
//    stop), searches the A contiguous tags on a direct-mapped miss, and
//    inserts at the FIFO cursor on an A-way miss.  It keeps no wave
//    pointers and no victim buffer: they save comparisons, but their
//    bookkeeping costs more time than the searches they avoid
//    (docs/PERF.md).  So it ignores use_mra_stop, use_wave, use_mre and
//    mre_depth, which change the paper walk's work and never a miss.
//    Level l stores block >> l in 32-bit words, and the search compares
//    four tags per vector compare (SSE2 at the baseline x86-64 ISA), until
//    the pass meets a block of 2^32 - 1 or more: that block widens the
//    tree once, exactly, and the same walk goes on over 64-bit words
//    (lean_tree).  The width follows from the input; nothing sets it.
#ifndef DEW_DEW_SIMULATOR_HPP
#define DEW_DEW_SIMULATOR_HPP

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "cache/config.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/hints.hpp"
#include "dew/counters.hpp"
#include "dew/options.hpp"
#include "dew/result.hpp"
#include "dew/tree.hpp"
#include "trace/record.hpp"

namespace dew::core {

template <class Instrumentation = full_counters>
class basic_dew_simulator {
public:
    // True when this instantiation maintains dew_counters on the hot path.
    static constexpr bool counted = Instrumentation::counted;
    // The counted paper walk runs on dew_tree, the lean walk on lean_tree.
    using tree_type = std::conditional_t<counted, dew_tree, lean_tree>;

    // Simulates set counts 2^0..2^max_level at associativities {1, assoc}
    // and block size block_size (bytes, power of two).
    basic_dew_simulator(unsigned max_level, std::uint32_t assoc,
                        std::uint32_t block_size, dew_options options = {});

    // Simulate a single byte address / reference / whole trace.
    void access(std::uint64_t address) { access_block(address >> block_bits_); }
    void access(const trace::mem_access& reference) { access(reference.address); }
    void simulate(const trace::mem_trace& trace) {
        simulate_chunk({trace.data(), trace.size()});
    }

    // The uniform incremental step of the streaming pipeline: simulating a
    // trace in chunks of any size — through any interleaving of
    // simulate_chunk, simulate_blocks and access calls — yields bit-identical
    // state and results to one whole-trace simulate() call.  The tree carries
    // all state between chunks; nothing is finalised until result() is read.
    void simulate_chunk(std::span<const trace::mem_access> chunk);

    // The hot entry points on pre-decoded block numbers (address >>
    // log2(block size)).  run_sweep computes one such stream per block size
    // and feeds it to every associativity pass, so per-pass work never
    // touches 16-byte mem_access records again.
    void access_block(std::uint64_t block) { simulate_blocks({&block, 1}); }
    void simulate_blocks(std::span<const std::uint64_t> blocks);

    // Exact per-configuration results (valid at any point of the pass).
    [[nodiscard]] dew_result result() const;

    // With the `fast` policy this is an all-zero struct (no bookkeeping
    // exists to report); use requests() for the request count.
    [[nodiscard]] const dew_counters& counters() const noexcept {
        if constexpr (counted) {
            return instrumentation_.counters;
        } else {
            static const dew_counters none{};
            return none;
        }
    }
    [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
    [[nodiscard]] unsigned max_level() const noexcept { return max_level_; }
    [[nodiscard]] std::uint32_t associativity() const noexcept { return assoc_; }
    [[nodiscard]] std::uint32_t block_size() const noexcept { return block_size_; }
    [[nodiscard]] const dew_options& options() const noexcept { return options_; }
    [[nodiscard]] const tree_type& tree() const noexcept { return tree_; }

    // Reset the tree and all counters to the cold state.
    void reset();

private:
    enum class mre_knowledge : std::uint8_t {
        unknown,    // victim buffer not yet probed for this request
        matched,    // probe matched at `matched_slot` (swap required)
        mismatched, // probe came up empty (plain insert)
    };

    // probe_victims() returns this when `block` is in no buffer slot.
    static constexpr std::uint32_t no_victim_match = ~std::uint32_t{0};

    // Runs first in the constructor, so misuse throws before anything is
    // allocated.  Both policies accept the same arguments, although only
    // the paper walk reads the options.
    DEW_NOINLINE static unsigned validated_max_level(
        unsigned max_level, std::uint32_t assoc, std::uint32_t block_size,
        const dew_options& options) {
        DEW_EXPECTS(max_level < 32);
        DEW_EXPECTS(is_pow2(assoc));
        DEW_EXPECTS(is_pow2(block_size));
        DEW_EXPECTS(!options.use_mre || options.mre_depth >= 1);
        return max_level;
    }

    [[nodiscard]] static tree_type make_tree(unsigned max_level,
                                             std::uint32_t assoc,
                                             const dew_options& options) {
        if constexpr (counted) {
            return dew_tree{max_level, assoc, options.effective_mre_depth()};
        } else {
            return lean_tree{max_level, assoc};
        }
    }

    // Associativity is a loop bound in the search and a mask in the FIFO
    // cursor wrap; baking the common powers of two in as compile-time
    // constants lets the optimiser unroll the tag scan and fold the masks.
    // StaticAssoc == 0 is the generic fallback reading assoc_ at runtime.
    // Results are identical across all instantiations.
    template <class F>
    static decltype(auto) with_static_assoc(std::uint32_t assoc, F&& f) {
        switch (assoc) {
        case 1: return f(std::integral_constant<std::uint32_t, 1>{});
        case 2: return f(std::integral_constant<std::uint32_t, 2>{});
        case 4: return f(std::integral_constant<std::uint32_t, 4>{});
        case 8: return f(std::integral_constant<std::uint32_t, 8>{});
        case 16: return f(std::integral_constant<std::uint32_t, 16>{});
        default: return f(std::integral_constant<std::uint32_t, 0>{});
        }
    }

    // Same trick for the victim-buffer depth: depth 1 (the paper's MRE) is
    // the overwhelmingly common configuration, and baking it in turns the
    // buffer probe into a single compare and the round-robin aging into a
    // fixed-slot store.  runtime_depth (~0) reads mre_depth_ at runtime.
    static constexpr std::uint32_t runtime_depth = ~std::uint32_t{0};

    template <class F>
    static decltype(auto) with_static_depth(std::uint32_t depth, F&& f) {
        switch (depth) {
        case 1: return f(std::integral_constant<std::uint32_t, 1>{});
        default:
            return f(std::integral_constant<std::uint32_t, runtime_depth>{});
        }
    }

    // And for the property switches: full DEW (P2+P3+P4 all on, the
    // default) folds every per-level `options_.use_*` test away; ablation
    // configurations take the generic runtime-checked walk.
    template <class F>
    static decltype(auto) with_static_options(const dew_options& options,
                                              F&& f) {
        if (options.use_mra_stop && options.use_wave && options.use_mre) {
            return f(std::true_type{});
        }
        return f(std::false_type{});
    }

    // Calls f(assoc, depth, options) with the walk's compile-time shape,
    // resolved once per call.  Only the paper walk reads the depth and the
    // options; the lean walk is dispatched on associativity alone.
    template <class F>
    void with_static_walk(F&& f) {
        with_static_assoc(assoc_, [&](auto a) {
            if constexpr (counted) {
                with_static_depth(mre_depth_, [&](auto d) {
                    with_static_options(options_,
                                        [&](auto o) { f(a, d, o); });
                });
            } else {
                f(a, std::integral_constant<std::uint32_t, runtime_depth>{},
                  std::false_type{});
            }
        });
    }

    // The walks are force-inlined into the stream loops: as a standalone
    // call a walk reloads members (options, tree base, stride, counters)
    // per access; inlined, they are hoisted into registers across the
    // whole trace — measured at ~25% of hot-loop time on the micro trace.
    // Plain `inline` is not enough: GCC declines on the runtime-depth
    // specialisations.

    // Algorithms 1 and 2 as published, counting every node visit and tag
    // comparison (full_counters only).
    template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth,
              bool AllOpts>
    DEW_ALWAYS_INLINE void paper_walk(std::uint64_t block);

    // MRA stop, contiguous tag search, FIFO insert (fast only), on the
    // tree's words of type Word.
    template <std::uint32_t StaticAssoc, class Word>
    DEW_ALWAYS_INLINE void lean_walk(Word* records, std::uint64_t block);

    // Whether `tag` is one of the A tags at `tags`.
    template <std::uint32_t StaticAssoc, class Word>
    DEW_ALWAYS_INLINE static bool holds(const Word* tags, Word tag,
                                        std::uint64_t assoc);

    // The block number of one stream element: streams are pre-decoded
    // block numbers or mem_access records.
    [[nodiscard]] static std::uint64_t block_of(std::uint64_t block,
                                                unsigned) noexcept {
        return block;
    }
    [[nodiscard]] static std::uint64_t
    block_of(const trace::mem_access& reference, unsigned block_bits) noexcept {
        return reference.address >> block_bits;
    }

    // The lean walk over [first, last) on words of type Word, advancing
    // `first` past every block it accepts.  A 32-bit stream stops at the
    // first block that does not fit its words.
    template <std::uint32_t StaticAssoc, class Word, class Input>
    DEW_ALWAYS_INLINE void lean_stream(Word* records, const Input*& first,
                                       const Input* last, unsigned block_bits);

    // The one stream loop behind access, simulate_chunk and
    // simulate_blocks, per static shape and element type.  noinline keeps
    // each specialisation a compact standalone function.
    // dewlint: hot-loop begin dew-stream
    template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth,
              bool AllOpts, class Input>
    DEW_NOINLINE void run(const Input* first, const Input* const last) {
        const Input* const begin = first;
        const unsigned block_bits = block_bits_;
        try {
            if constexpr (counted) {
                for (; first != last; ++first) {
                    paper_walk<StaticAssoc, StaticDepth, AllOpts>(
                        block_of(*first, block_bits));
                }
            } else {
                if (!tree_.wide()) {
                    lean_stream<StaticAssoc>(
                        tree_.template records<std::uint32_t>(), first, last,
                        block_bits);
                    if (first != last) {
                        tree_.widen();
                    }
                }
                // Nothing is left when the 32-bit stream took it all.
                lean_stream<StaticAssoc>(
                    tree_.template records<std::uint64_t>(), first, last,
                    block_bits);
            }
        } catch (...) {
            note_requests(static_cast<std::uint64_t>(first - begin));
            throw;
        }
        note_requests(static_cast<std::uint64_t>(last - begin));
    }

    // Request bookkeeping, hoisted out of the per-access walk: one bulk
    // update per stream instead of a member read-modify-write per access.
    // Only blocks the walk accepted count: a loop that a rejected block
    // (the sentinel) ends by a throw counts the prefix before it.
    void note_requests(std::uint64_t count) {
        requests_ += count;
        if constexpr (counted) {
            instrumentation_.counters.requests += count;
            // Paper Table 4 column 2: per-configuration simulation evaluates
            // one set per configuration per request — levels x {1, A}
            // configurations (30 for the paper's parameters), versus one
            // tree node per level for DEW.
            instrumentation_.counters.unoptimized_evaluations +=
                count * (max_level_ + 1) * (assoc_ == 1 ? 1 : 2);
        }
    }
    // dewlint: hot-loop end dew-stream

    // Scans the node's victim buffer for `block` (Property 4, generalised
    // to mre_depth entries), counting comparisons.
    template <std::uint32_t StaticDepth>
    DEW_ALWAYS_INLINE std::uint32_t probe_victims(node_ref node, std::uint64_t block);

    // Algorithm 2 ("Handle_miss"): picks the FIFO victim, performs either
    // the victim-buffer swap or a plain insert with victim-buffer update,
    // and returns the way the requested block now occupies.
    template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth,
              bool AllOpts>
    DEW_ALWAYS_INLINE std::uint32_t insert_on_miss(node_ref node, std::uint64_t block,
                                 mre_knowledge known,
                                 std::uint32_t matched_slot = no_victim_match);

    unsigned max_level_;
    std::uint32_t assoc_;
    std::uint32_t way_mask_; // assoc - 1
    std::uint32_t block_size_;
    unsigned block_bits_;
    // options_.effective_mre_depth(), cached so the per-access loops never
    // re-derive it.
    std::uint32_t mre_depth_;
    dew_options options_;
    tree_type tree_;
    // Empty under the `fast` policy; [[no_unique_address]] keeps it free.
    [[no_unique_address]] Instrumentation instrumentation_{};
    std::uint64_t requests_{0};
    // Exact miss counts per level, for associativity `assoc_` and for the
    // piggybacked direct-mapped (associativity 1) configurations.
    std::vector<std::uint64_t> misses_assoc_;
    std::vector<std::uint64_t> misses_dm_;
};

// The counted simulator runs the paper walk: the seed-compatible default
// every test and bench table uses.  `fast` runs the lean walk, the
// production configuration.
using dew_simulator = basic_dew_simulator<full_counters>;
using fast_dew_simulator = basic_dew_simulator<fast>;

// --- implementation ---------------------------------------------------------

template <class Instrumentation>
basic_dew_simulator<Instrumentation>::basic_dew_simulator(
    unsigned max_level, std::uint32_t assoc, std::uint32_t block_size,
    dew_options options)
    : max_level_{validated_max_level(max_level, assoc, block_size, options)},
      assoc_{assoc},
      way_mask_{assoc - 1},
      block_size_{block_size},
      block_bits_{log2_exact(block_size)},
      mre_depth_{options.effective_mre_depth()},
      options_{options},
      tree_{make_tree(max_level, assoc, options)},
      misses_assoc_(max_level + 1, 0),
      misses_dm_(max_level + 1, 0) {}

// The per-access walks and the chunk/block stream loops: every instruction
// here runs once per trace reference.  dewlint's hot-loop rule bans
// allocation, container growth, formatted I/O and wall-clock reads inside
// the region — the walks must stay pure loads, stores and compares.
// dewlint: hot-loop begin dew-walk
// Scans the node's victim buffer for `block`, counting one tag comparison
// per valid entry examined.  Returns the matching slot or `no_victim_match`.
template <class Instrumentation>
template <std::uint32_t StaticDepth>
std::uint32_t
basic_dew_simulator<Instrumentation>::probe_victims(node_ref node,
                                                    std::uint64_t block) {
    const std::uint32_t depth =
        StaticDepth == runtime_depth ? mre_depth_ : StaticDepth;
    for (std::uint32_t slot = 0; slot < depth; ++slot) {
        if (node.victims[slot].tag == cache::invalid_tag) {
            continue; // never filled: no comparison performed
        }
        ++instrumentation_.counters.tag_comparisons;
        if (node.victims[slot].tag == block) {
            return slot;
        }
    }
    return no_victim_match;
}

template <class Instrumentation>
template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth, bool AllOpts>
std::uint32_t basic_dew_simulator<Instrumentation>::insert_on_miss(
    node_ref node, std::uint64_t block, mre_knowledge known,
    std::uint32_t matched_slot) {
    const std::uint32_t way_mask =
        StaticAssoc == 0 ? way_mask_ : StaticAssoc - 1;
    const std::uint32_t depth =
        StaticDepth == runtime_depth ? mre_depth_ : StaticDepth;
    const bool use_mre = AllOpts || options_.use_mre;
    // Algorithm 2, lines 3-9.  The FIFO victim is the circular cursor: cold
    // ways fill in order first, then replacement is round-robin — the
    // "least recently inserted" position of line 3.
    const std::uint32_t victim = node.header.cursor;
    node.header.cursor = (victim + 1) & way_mask;
    way_entry& slot = node.ways[victim];

    if (known == mre_knowledge::unknown && use_mre) {
        // Algorithm 2, line 4, generalised to the victim buffer.
        matched_slot = probe_victims<StaticDepth>(node, block);
        if (matched_slot != no_victim_match) {
            known = mre_knowledge::matched;
            ++instrumentation_.counters.mre_swaps;
        }
    }

    if (known == mre_knowledge::matched) {
        // Line 5: exchange the victim way with the matching buffer entry.
        // The incoming block regains the wave pointer it had when it was
        // evicted — still valid, because FIFO never moved it in the child
        // meanwhile.
        DEW_ASSERT(matched_slot < depth);
        way_entry& buffered = node.victims[matched_slot];
        const way_entry displaced = slot;
        slot = buffered;
        buffered = displaced;
    } else {
        // Lines 7-8: plain insert; the displaced tag (if any) joins the
        // victim buffer together with its wave pointer, aging out the
        // oldest buffered victim.
        if (use_mre && slot.tag != cache::invalid_tag) {
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

template <class Instrumentation>
template <std::uint32_t StaticAssoc, std::uint32_t StaticDepth, bool AllOpts>
void basic_dew_simulator<Instrumentation>::paper_walk(std::uint64_t block) {
    const std::uint32_t assoc = StaticAssoc == 0 ? assoc_ : StaticAssoc;
    // AllOpts folds the property switches to constants (full DEW); the
    // generic instantiation reads them per access for the ablations.
    const bool use_mra_stop = AllOpts || options_.use_mra_stop;
    const bool use_wave = AllOpts || options_.use_wave;
    const bool use_mre = AllOpts || options_.use_mre;
    // The all-ones block number is the empty-way sentinel; a real request
    // can only produce it from the top bytes of the address space at tiny
    // block sizes, and accepting it would corrupt the tree silently.
    DEW_EXPECTS(block != cache::invalid_tag);
    dew_counters& counters = instrumentation_.counters;
    const unsigned levels = max_level_ + 1;

    // The wave pointer chain: entry holding `block` in the previous
    // (parent) level's node, or null at the root / after a P2 continue.
    way_entry* parent_entry = nullptr;

    // Flat tree slot, tracked incrementally: level l's node for this block
    // lives at (2^l - 1) + (block & (2^l - 1)), so each level adds
    // bit + (block & bit) — two adds instead of two shifts and two masks.
    const dew_tree::walker nodes = tree_.make_walker();
    std::uint64_t slot = 0;
    std::uint64_t bit = 1;

    for (unsigned level = 0; level < levels;
         ++level, slot += bit + (block & bit), bit <<= 1) {
        const node_ref node = nodes.at(slot);
        ++counters.node_evaluations;

        // Property 2 probe.  This same comparison yields the exact
        // direct-mapped (associativity 1) outcome for set count 2^level,
        // because the MRA tag equals the last block that mapped here.
        ++counters.tag_comparisons;
        if (node.mra == block) {
            ++counters.mra_hits;
            if (use_mra_stop) {
                // Hit certified at this level and every deeper level, for
                // both associativity A and 1.  Hits are implicit
                // (requests - misses), so there is nothing to count.
                return;
            }
            // Ablation mode: the certificate still applies at this node (the
            // request is a hit, FIFO state is untouched), but the way
            // position is unknown, so the wave chain breaks for the child.
            parent_entry = nullptr;
            continue;
        }
        // Direct-mapped miss at this set count; also Algorithm 1/2 line 1-2.
        ++misses_dm_[level];
        node.mra = block;

        std::uint32_t way = 0;
        bool determined = false;

        // Property 3: one probe at the wave pointer decides hit or miss.
        if (use_wave && parent_entry != nullptr &&
            parent_entry->wave != empty_wave) {
            const std::uint32_t pointed = parent_entry->wave;
            DEW_ASSERT(pointed < assoc);
            ++counters.wave_checks;
            ++counters.tag_comparisons;
            determined = true;
            if (node.ways[pointed].tag == block) {
                ++counters.wave_hit_determinations;
                way = pointed;
            } else {
                ++counters.wave_miss_determinations;
                ++misses_assoc_[level];
                way = insert_on_miss<StaticAssoc, StaticDepth, AllOpts>(
                    node, block, mre_knowledge::unknown);
            }
        }

        if (!determined) {
            // Property 4: a victim-buffer match proves the miss without a
            // search.
            std::uint32_t matched_slot = no_victim_match;
            if (use_mre) {
                matched_slot = probe_victims<StaticDepth>(node, block);
            }
            if (matched_slot != no_victim_match) {
                ++counters.mre_determinations;
                ++misses_assoc_[level];
                way = insert_on_miss<StaticAssoc, StaticDepth, AllOpts>(
                    node, block, mre_knowledge::matched, matched_slot);
            } else {
                // Full tag-list search.  Valid entries form a prefix under
                // FIFO fill, and skipped invalid ways cost no comparison —
                // the exact Table-3 counting convention.
                bool found = false;
                ++counters.searches;
                for (std::uint32_t i = 0; i < assoc; ++i) {
                    if (node.ways[i].tag == cache::invalid_tag) {
                        continue;
                    }
                    ++counters.tag_comparisons;
                    if (node.ways[i].tag == block) {
                        found = true;
                        way = i;
                        break;
                    }
                }
                if (!found) {
                    ++misses_assoc_[level];
                    way = insert_on_miss<StaticAssoc, StaticDepth, AllOpts>(
                        node, block,
                        use_mre ? mre_knowledge::mismatched
                                : mre_knowledge::unknown);
                }
            }
        }

        // Algorithm 1/2, lines 10-11: publish this node's way position into
        // the parent's matching entry and carry our own entry downwards.
        if (parent_entry != nullptr) {
            parent_entry->wave = way;
        }
        parent_entry = &node.ways[way];
    }
}

template <class Instrumentation>
template <std::uint32_t StaticAssoc, class Word>
bool basic_dew_simulator<Instrumentation>::holds(const Word* tags,
                                                 const Word tag,
                                                 const std::uint64_t assoc) {
    // A cold way holds the sentinel, never a real tag, so the search is an
    // or-reduction over all A ways, with no data-dependent branch per way.
    // 32-bit tags are compared four lanes at a time (SSE2 at the baseline
    // x86-64 ISA, plain GCC/Clang vector extensions) whenever A is a
    // multiple of four: A = 4, 8, 16 and the generic walk, which runs only
    // A >= 32.  64-bit tags are compared one by one, as SSE2 has no 64-bit
    // lane compare.
    if constexpr (std::is_same_v<Word, std::uint32_t> && StaticAssoc != 1 &&
                  StaticAssoc != 2) {
        using lanes = std::uint32_t __attribute__((vector_size(16)));
        // A lane compare yields all-ones or zero per lane.
        using lane_masks = std::int32_t __attribute__((vector_size(16)));
        const lanes key = {tag, tag, tag, tag};
        lane_masks found{};
        for (std::uint64_t way = 0; way < assoc; way += 4) {
            lanes four;
            std::memcpy(&four, tags + way, sizeof four);
            found |= four == key;
        }
        std::uint64_t halves[2];
        std::memcpy(halves, &found, sizeof halves);
        return (halves[0] | halves[1]) != 0;
    }
    bool resident = false;
    for (std::uint64_t way = 0; way < assoc; ++way) {
        resident |= tags[way] == tag;
    }
    return resident;
}

template <class Instrumentation>
template <std::uint32_t StaticAssoc, class Word>
void basic_dew_simulator<Instrumentation>::lean_walk(Word* const records,
                                                     const std::uint64_t block) {
    // A tag scan is bounded by A and a cursor wraps modulo A; both are
    // 64-bit, as wide as any associativity the constructor accepts.
    const std::uint64_t assoc = StaticAssoc == 0 ? assoc_ : StaticAssoc;
    const unsigned levels = max_level_ + 1;
    // Locals, not members: each tag store may alias a same-typed member.
    const std::uint64_t record_words = lean_tree::words_per_record(assoc);
    std::uint64_t* const misses_dm = misses_dm_.data();
    std::uint64_t* const misses_assoc = misses_assoc_.data();

    std::uint64_t slot = 0;
    std::uint64_t bit = 1;
    // Level l holds block >> l; the caller has checked that it fits Word.
    auto tag = static_cast<Word>(block);
    for (unsigned level = 0; level < levels;
         ++level, slot += bit + (block & bit), bit <<= 1, tag >>= 1) {
        Word* const node = records + slot * record_words;
        // Property 2: a hit here and at every deeper level, for A and 1.
        if (node[lean_tree::mra_word] == tag) {
            return;
        }
        // A direct-mapped miss: the MRA tag is that set's one block.
        ++misses_dm[level];
        node[lean_tree::mra_word] = tag;

        if (!holds<StaticAssoc>(node + lean_tree::first_tag_word, tag,
                                assoc)) {
            ++misses_assoc[level];
            const std::uint64_t victim =
                node[lean_tree::cursor_word] & (assoc - 1);
            node[lean_tree::first_tag_word + victim] = tag;
            node[lean_tree::cursor_word] = static_cast<Word>(victim + 1);
        }
    }
}

template <class Instrumentation>
template <std::uint32_t StaticAssoc, class Word, class Input>
void basic_dew_simulator<Instrumentation>::lean_stream(
    Word* const records, const Input*& first, const Input* const last,
    const unsigned block_bits) {
    for (; first != last; ++first) {
        const std::uint64_t block = block_of(*first, block_bits);
        if constexpr (std::is_same_v<Word, std::uint32_t>) {
            // The width test: the caller widens the tree and goes on.
            if (!lean_tree::fits_narrow(block)) {
                return;
            }
        } else {
            // Every cold word holds the all-ones sentinel, which this
            // block number would match as a resident tag and as an MRA
            // certificate.  Only a 64-bit stream can meet it.
            DEW_EXPECTS(block != cache::invalid_tag);
        }
        lean_walk<StaticAssoc>(records, block);
    }
}

template <class Instrumentation>
void basic_dew_simulator<Instrumentation>::simulate_chunk(
    std::span<const trace::mem_access> chunk) {
    // Resolve the static dispatch once for the whole chunk.
    with_static_walk([&](auto a, auto d, auto o) {
        this->template run<a(), d(), o()>(chunk.data(),
                                          chunk.data() + chunk.size());
    });
}

template <class Instrumentation>
void basic_dew_simulator<Instrumentation>::simulate_blocks(
    std::span<const std::uint64_t> blocks) {
    with_static_walk([&](auto a, auto d, auto o) {
        this->template run<a(), d(), o()>(blocks.data(),
                                          blocks.data() + blocks.size());
    });
}
// dewlint: hot-loop end dew-walk

template <class Instrumentation>
dew_result basic_dew_simulator<Instrumentation>::result() const {
    dew_counters snapshot{};
    if constexpr (counted) {
        snapshot = instrumentation_.counters;
    } else {
        // No bookkeeping exists; report the one quantity that is tracked
        // regardless so hits stay derivable from the result alone.
        snapshot.requests = requests_;
    }
    return dew_result{max_level_, assoc_,      block_size_, requests_,
                      misses_assoc_, misses_dm_, snapshot};
}

template <class Instrumentation>
void basic_dew_simulator<Instrumentation>::reset() {
    tree_.clear();
    instrumentation_ = {};
    requests_ = 0;
    std::fill(misses_assoc_.begin(), misses_assoc_.end(), 0);
    std::fill(misses_dm_.begin(), misses_dm_.end(), 0);
}

// The only two policies; instantiated once in simulator.cpp so the fifty-odd
// consumer translation units do not each re-instantiate the simulator.
extern template class basic_dew_simulator<full_counters>;
extern template class basic_dew_simulator<fast>;

} // namespace dew::core

#endif // DEW_DEW_SIMULATOR_HPP
