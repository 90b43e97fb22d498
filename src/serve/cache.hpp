// Sharded, capacity-bounded result cache of the sweep service.
//
// The map is (trace digest, request fingerprint) -> answered result.  Keys
// spread over independently-locked shards (the key hash is already
// avalanche-mixed, so the low bits shard evenly) and each shard evicts in
// FIFO order once its slice of the capacity fills — the same replacement
// discipline the simulated caches use, and the right one here too: sweep
// answers do not age, they are either still asked for or not.
//
// Values are shared_ptr-to-const: a hit hands out a reference to the cached
// payload, eviction never invalidates a result a caller still holds, and
// concurrent readers share one immutable object.  Hit/miss/insert/evict
// counters are atomics readable while the cache is hot.
//
// Persistence is the "DSCF" file (layout in cache.cpp), built in one
// string and parsed from one resident image by the shared field-list codec
// (common/codec.hpp), with every entry's answer as a "DSWR" sweep record
// (dew/result_io.hpp).  save() writes every entry and checksums each entry
// plus the whole file.  load() is transactional
// in strict mode — a malformed or checksum-failing image throws a
// std::runtime_error naming the field and the byte offset, and inserts
// NOTHING — and crash-tolerant in salvage mode: every entry framed and
// checksummed before the first fault byte is recovered, the rest
// reported, never a partial or unverified entry.
#ifndef DEW_SERVE_CACHE_HPP
#define DEW_SERVE_CACHE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dew/sweep.hpp"
#include "serve/key.hpp"

namespace dew::serve {

struct cache_options {
    // Independently-locked shards; rounded up to a power of two, >= 1.
    std::size_t shards{8};
    // Maximum cached entries across all shards (split evenly; each shard
    // holds at least one).  Must be > 0.
    std::size_t capacity{1024};
};

// How load() treats a damaged file.
enum class load_mode : std::uint8_t {
    // All-or-nothing: any framing fault, checksum mismatch or trailing
    // garbage throws std::runtime_error (byte-offset-naming) and the cache
    // is left exactly as it was — no partially-loaded state.
    strict = 0,
    // Crash recovery: keep every entry up to the first fault byte, skip
    // the rest, report what happened instead of throwing.  Entries are
    // inserted only after their framing AND per-entry checksum verify, so
    // a salvaged cache never serves a damaged answer.
    salvage = 1,
};

struct cache_load_report {
    std::size_t loaded{0};  // entries inserted into the cache
    std::size_t skipped{0}; // declared entries not recovered (salvage only)
    // True iff a fault was tolerated (salvage mode); salvaged_at is then
    // the byte offset of the first byte that could not be used — every
    // loaded entry was framed entirely inside [0, salvaged_at).
    bool salvaged{false};
    std::uint64_t salvaged_at{0};
    // Whole-file footer checksum verified.  Always true in strict mode (a
    // mismatch throws); in salvage mode false means the file was damaged
    // even if every recovered entry passed its own checksum.
    bool checksum_ok{true};
};

struct cache_stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
    std::uint64_t evictions{0};
    std::uint64_t entries{0}; // current
};

class result_cache {
public:
    // Throws std::invalid_argument on zero shards or capacity.
    explicit result_cache(cache_options options = {});

    // The answered sweep, or nullptr on miss.  Counts a hit or a miss.
    [[nodiscard]] std::shared_ptr<const core::sweep_result>
    find(const request_key& key);

    // Inserts (or replaces — idempotent for identical keys, which concurrent
    // duplicate computations can produce) and evicts the shard's oldest
    // entry when its slice of the capacity is full.
    void insert(const request_key& key,
                std::shared_ptr<const core::sweep_result> value);

    [[nodiscard]] cache_stats stats() const;
    [[nodiscard]] std::size_t size() const;
    void clear();

    // Every entry, as one DSCF image (version 2: per-entry
    // checksums + a whole-file footer checksum).  load() takes a whole
    // image and stages every entry before inserting any: strict mode is
    // transactional (throws on any fault, cache untouched), salvage mode
    // recovers the verified prefix and reports the rest (see load_mode /
    // cache_load_report).
    [[nodiscard]] std::string save() const;
    cache_load_report load(std::string_view image,
                           load_mode mode = load_mode::strict);

private:
    struct shard {
        mutable std::mutex mutex; // dewlint: lock-order serve-cache-shard 70
        std::unordered_map<request_key,
                           std::shared_ptr<const core::sweep_result>,
                           request_key_hash>
            map;
        std::deque<request_key> fifo; // insertion order, oldest first
    };

    [[nodiscard]] shard& shard_of(const request_key& key) noexcept;
    [[nodiscard]] const shard& shard_of(const request_key& key) const noexcept;

    std::size_t shard_capacity_;
    std::vector<std::unique_ptr<shard>> shards_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> insertions_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace dew::serve

#endif // DEW_SERVE_CACHE_HPP
