#include "serve/cache.hpp"

#include <bit>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/bits.hpp"
#include "common/codec.hpp"
#include "dew/result_io.hpp"

namespace dew::serve {

// Cache file layout, version 2 (all integers little-endian), walked by the
// shared field-list codec (common/codec.hpp):
//   magic   4 bytes  "DSCF"
//   version u32      currently 2
//   count   u64      number of entries
//   entries count x { key 4 x u64 (trace digest words, fingerprint words),
//                     one "DSWR" sweep record (dew/result_io.hpp),
//                     checksum u64 of this entry's key + record bytes }
//   footer  u64      checksum of every preceding byte of the file
// The per-entry checksums are what make salvage loading safe: an entry
// whose bytes rotted but still happen to frame is caught entry-precisely,
// so recovery keeps exactly the verified prefix.  The footer catches
// header/count damage and (in strict mode) any trailing garbage.
namespace {

constexpr char cache_magic[4] = {'D', 'S', 'C', 'F'};
constexpr std::uint32_t cache_version = 2;

// FNV-1a over the bytes, splitmix-finalised so short/regular inputs still
// avalanche.  Not cryptographic — it detects truncation and bit rot, not
// adversaries (the cache file is a local artifact, not an input channel).
std::uint64_t checksum64(std::string_view data) noexcept {
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ull;
    }
    return mix64(hash);
}

// One entry's key and record: the bytes its checksum covers.  Entries are
// walked one at a time, not as a list: a count checked up front would
// reject a torn file whose verified prefix salvage must keep.
template <class V, class K, class S>
void entry_fields(V& v, K& key, S& sweep) {
    v.u64("trace digest word 0", key.trace.words[0]);
    v.u64("trace digest word 1", key.trace.words[1]);
    v.u64("request fingerprint word 0", key.request[0]);
    v.u64("request fingerprint word 1", key.request[1]);
    core::sweep_fields(v, sweep);
}

} // namespace

result_cache::result_cache(cache_options options) {
    if (options.shards == 0) {
        throw std::invalid_argument{"cache_options::shards must be > 0"};
    }
    if (options.capacity == 0) {
        throw std::invalid_argument{"cache_options::capacity must be > 0"};
    }
    const std::size_t shard_count = std::bit_ceil(options.shards);
    shard_capacity_ =
        (options.capacity + shard_count - 1) / shard_count; // >= 1
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
        shards_.push_back(std::make_unique<shard>());
    }
}

result_cache::shard&
result_cache::shard_of(const request_key& key) noexcept {
    return *shards_[request_key_hash{}(key) & (shards_.size() - 1)];
}

const result_cache::shard&
result_cache::shard_of(const request_key& key) const noexcept {
    return *shards_[request_key_hash{}(key) & (shards_.size() - 1)];
}

std::shared_ptr<const core::sweep_result>
result_cache::find(const request_key& key) {
    shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock{s.mutex};
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void result_cache::insert(const request_key& key,
                          std::shared_ptr<const core::sweep_result> value) {
    shard& s = shard_of(key);
    const std::lock_guard<std::mutex> lock{s.mutex};
    const auto [it, inserted] = s.map.try_emplace(key, std::move(value));
    if (!inserted) {
        // A duplicate of an existing answer (two racing computations of the
        // same key compute bit-identical payloads); keep the incumbent and
        // its FIFO position.
        return;
    }
    insertions_.fetch_add(1, std::memory_order_relaxed);
    s.fifo.push_back(key);
    while (s.map.size() > shard_capacity_) {
        s.map.erase(s.fifo.front());
        s.fifo.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

cache_stats result_cache::stats() const {
    cache_stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.entries = size();
    return out;
}

std::size_t result_cache::size() const {
    std::size_t total = 0;
    for (const std::unique_ptr<shard>& s : shards_) {
        const std::lock_guard<std::mutex> lock{s->mutex};
        total += s->map.size();
    }
    return total;
}

void result_cache::clear() {
    for (const std::unique_ptr<shard>& s : shards_) {
        const std::lock_guard<std::mutex> lock{s->mutex};
        s->map.clear();
        s->fifo.clear();
    }
}

std::string result_cache::save() const {
    // Snapshot the entries shard by shard; persistence is an offline
    // operation, so briefly holding each shard lock in turn is fine.
    std::vector<
        std::pair<request_key, std::shared_ptr<const core::sweep_result>>>
        entries;
    for (const std::unique_ptr<shard>& s : shards_) {
        const std::lock_guard<std::mutex> lock{s->mutex};
        for (const request_key& key : s->fifo) {
            entries.emplace_back(key, s->map.at(key));
        }
    }
    codec::writer w;
    w.magic(cache_magic, cache_version);
    w.u64("entry count", entries.size());
    for (const auto& [key, value] : entries) {
        const std::size_t start = w.out.size();
        entry_fields(w, key, *value);
        w.u64("entry checksum",
              checksum64(std::string_view{w.out}.substr(start)));
    }
    w.u64("footer checksum", checksum64(w.out));
    return std::move(w.out);
}

cache_load_report result_cache::load(std::string_view image,
                                     load_mode mode) {
    // One resident image: salvage needs byte-exact fault offsets, strict
    // needs all-or-nothing semantics, and the footer checksum covers every
    // byte.
    cache_load_report report;
    // Entries parse and verify into here first; nothing touches the cache
    // until the mode's acceptance rule has run (strict: the whole file;
    // salvage: the verified prefix).
    std::vector<
        std::pair<request_key, std::shared_ptr<const core::sweep_result>>>
        staged;

    // In salvage mode a fault ends parsing instead of escaping; `fail`
    // routes every fault through one place so the two modes cannot drift.
    const auto fail = [&](std::uint64_t offset, const std::string& what) {
        if (mode == load_mode::strict) {
            throw std::runtime_error{what};
        }
        report.salvaged = true;
        report.salvaged_at = offset;
        report.checksum_ok = false;
    };

    codec::cursor<std::runtime_error> in{image, "cache file"};
    std::uint64_t count = 0;
    bool header_ok = false;
    try {
        in.magic(cache_magic, cache_version);
        in.u64("entry count", count);
        header_ok = true;
    } catch (const std::runtime_error& error) {
        fail(0, error.what());
    }

    if (header_ok) {
        for (std::uint64_t entry = 0; entry < count; ++entry) {
            const std::uint64_t start = in.offset();
            try {
                request_key key;
                core::sweep_result sweep;
                entry_fields(in, key, sweep);
                const std::uint64_t end = in.offset();
                std::uint64_t want = 0;
                in.u64("entry checksum", want);
                if (want != checksum64(image.substr(start, end - start))) {
                    throw std::runtime_error{
                        "entry checksum mismatch over bytes [" +
                        std::to_string(start) + ", " + std::to_string(end) +
                        ") at byte offset " + std::to_string(end)};
                }
                staged.emplace_back(
                    key, std::make_shared<const core::sweep_result>(
                             std::move(sweep)));
            } catch (const std::runtime_error& error) {
                // The entry ordinal locates the fault among variable-length
                // entries, the cursor's message the byte.
                fail(start, "cache file entry " + std::to_string(entry) +
                                " of " + std::to_string(count) + ": " +
                                error.what());
                break;
            }
        }
    }

    if (header_ok && !report.salvaged) {
        // Footer: 8 bytes checksumming everything before them.
        const std::uint64_t footer_at = in.offset();
        try {
            std::uint64_t want = 0;
            in.u64("footer checksum", want);
            if (want != checksum64(image.substr(0, footer_at))) {
                throw std::runtime_error{
                    "footer checksum mismatch at byte offset " +
                    std::to_string(footer_at) +
                    " (header or entry framing bytes are damaged)"};
            }
            report.checksum_ok = true;
        } catch (const std::runtime_error& error) {
            fail(footer_at, error.what());
        }
        if (!report.salvaged && !in.at_end()) {
            // Entries and footer verified but bytes follow: corruption by
            // construction (the image is the whole file).  Strict rejects;
            // salvage keeps the verified entries and flags the tail.
            if (mode == load_mode::strict) {
                throw std::runtime_error{
                    "over-long cache file: trailing bytes after the "
                    "declared " + std::to_string(count) +
                    " entries at byte offset " + std::to_string(in.offset())};
            }
            report.salvaged = true;
            report.salvaged_at = in.offset();
        }
    }

    for (auto& [key, value] : staged) {
        insert(key, std::move(value));
    }
    report.loaded = staged.size();
    report.skipped = static_cast<std::size_t>(count) > report.loaded
                         ? static_cast<std::size_t>(count) - report.loaded
                         : 0;
    return report;
}

} // namespace dew::serve
