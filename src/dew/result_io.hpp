// Serialisation of DEW results: CSV for spreadsheets/scripts, an aligned
// text table for terminals, and the binary "DSWR" record the wire and the
// sweep service's cache file carry.  Kept separate from dew_result so the
// core stays I/O-free.
#ifndef DEW_DEW_RESULT_IO_HPP
#define DEW_DEW_RESULT_IO_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/codec.hpp"
#include "dew/result.hpp"
#include "dew/sweep.hpp"

namespace dew::core {

// CSV: header "sets,assoc,block,misses,hits,miss_rate" + one row per
// covered configuration (direct-mapped rows included once).
void write_csv(std::ostream& out, const dew_result& result);
void write_csv(std::ostream& out, const sweep_result& result);

// Aligned, human-readable table of the same rows.
void write_table(std::ostream& out, const dew_result& result);

// One-line instrumentation summary (the Table 3/4 quantities).
void write_counters(std::ostream& out, const dew_counters& counters);

// --- The "DSWR" record ----------------------------------------------------
// The binary form of a sweep_result, inside every served `result` frame
// and every DSCF cache entry.  sweep_fields below is the layout: one field
// list (common/codec.hpp) that the wire and the cache file walk in place.
// All integers little-endian:
//   magic "DSWR", version u32 (1)
//   payload_bytes u64   the exact size of everything after it, 20 B..64 MiB
//   requests u64, seconds f64 (IEEE-754 bit pattern), pass count u32
//   per pass: max_level u32 (< 32), associativity u32 (> 0),
//             block size u32 (> 0), requests u64,
//             (max_level + 1) x u64 A-way misses,
//             (max_level + 1) x u64 direct-mapped misses,
//             11 x u64 dew_counters fields in declaration order
//
// Reading is strict: a truncated record, a bad magic or version, an
// implausible field (max_level >= 32, a zero associativity or block size,
// a pass count the payload cannot hold) or a payload_bytes that disagrees
// with the decoded structure, short or over-long, throws the reading
// cursor's error naming the field and the byte offset.  A pass's miss
// arrays are read in place, into the result's inline storage, once
// max_level is checked; no partial result is returned.
inline constexpr char result_magic[4] = {'D', 'S', 'W', 'R'};
inline constexpr std::uint32_t result_version = 1;

struct sweep_record_fields {
    template <class V, class S> void operator()(V& v, S& sweep) const {
        v.magic(result_magic, result_version);
        // Real records are kilobytes (a whole paper-grid pass is under a
        // KiB); the ceiling keeps a corrupt length from claiming GiBs.
        v.sized("payload_bytes", 20, std::uint64_t{64} << 20, [&] {
            v.u64("requests", sweep.requests);
            v.f64("seconds", sweep.seconds);
            v.list("pass count", sweep.passes,
                   codec::unbounded<std::uint32_t>, [](auto& e, auto& pass) {
                       e.u32("pass max_level", pass.max_level_, 0, 31);
                       e.u32("pass associativity", pass.assoc_, 1);
                       e.u32("pass block size", pass.block_size_, 1);
                       e.u64("pass requests", pass.requests_);
                       e.levels("pass assoc misses", pass.misses_assoc_,
                                pass.max_level_);
                       e.levels("pass dm misses", pass.misses_dm_,
                                pass.max_level_);
                       auto& c = pass.counters_;
                       e.u64("counter requests", c.requests);
                       e.u64("counter node_evaluations", c.node_evaluations);
                       e.u64("counter unoptimized_evaluations",
                             c.unoptimized_evaluations);
                       e.u64("counter mra_hits", c.mra_hits);
                       e.u64("counter wave_checks", c.wave_checks);
                       e.u64("counter mre_determinations",
                             c.mre_determinations);
                       e.u64("counter searches", c.searches);
                       e.u64("counter wave_hit_determinations",
                             c.wave_hit_determinations);
                       e.u64("counter wave_miss_determinations",
                             c.wave_miss_determinations);
                       e.u64("counter mre_swaps", c.mre_swaps);
                       e.u64("counter tag_comparisons", c.tag_comparisons);
                   });
        });
    }
};
inline constexpr sweep_record_fields sweep_fields{};

// One record on its own.  decode_sweep_record reads the record at the
// front of `bytes`, throws std::runtime_error with record-relative
// offsets, and advances `bytes` past it: records concatenate.
[[nodiscard]] std::string encode_sweep_record(const sweep_result& sweep);
[[nodiscard]] sweep_result decode_sweep_record(std::string_view& bytes);

} // namespace dew::core

#endif // DEW_DEW_RESULT_IO_HPP
