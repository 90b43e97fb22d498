// The field-list codec shared by every binary format the library reads
// whole from memory: the DSNW wire payloads (net/wire.cpp), the DSWR sweep
// record (dew/result_io.hpp) and the DSCF cache file (serve/cache.cpp).
//
// A format is one field list: a generic callable `(v, m)` that names each
// field once, in order, with its width and its bound.  `writer` walks it to
// encode (`m` const) and `cursor` to decode, so the two cannot disagree.
// The kinds (all integers little-endian):
//   u32(label, x[, least, most]) four bytes; a decoded value outside
//                                [least, most] is rejected
//   u64 / f64                    eight bytes; u64 also carries size_t and
//                                the i64 deadline
//   boolean                      one byte, 0 or 1
//   enum8(label, e, max)         one byte, at most `max`
//   bytes(label, s, limit)       a length as wide as `limit`'s type and at
//                                most `limit`, then that many bytes
//   list(label, c, limit, f)     a count as wide as `limit`'s type and at
//                                most `limit`, then each element walked by f
//   optional(label, p, f)        a presence byte, then `*p` walked by f
//   magic(m, version)            four magic bytes and a u32 version, both
//                                exact
//   sized(label, least, most, f) a u64 length in [least, most], then the
//                                body f walks, which must fill exactly that
//                                length
//   levels(label, v, max_level)  levels 0..max_level of the array v, as
//                                max_level + 1 u64s, no prefix of their own;
//                                read in place, with max_level already
//                                checked against v's size
//
// The cursor differs per format in three things only: the exception it
// throws (its template argument), the format name its messages start with,
// and the base of the byte offsets it reports.  Every fault names the field
// and the byte offset.  A count or length is checked against its bound and
// against the bytes that remain before anything is reserved, so a forged
// one can neither wrap a product nor allocate more than the input holds.
#ifndef DEW_COMMON_CODEC_HPP
#define DEW_COMMON_CODEC_HPP

#include <bit>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"

namespace dew::codec {

template <std::size_t Width>
void store_le(char* bytes, std::uint64_t value) noexcept {
    static_assert(Width <= 8);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &value, Width);
    } else {
        for (std::size_t i = 0; i < Width; ++i) {
            bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
        }
    }
}

template <std::size_t Width>
void put_le(std::string& out, std::uint64_t value) {
    char bytes[Width];
    store_le<Width>(bytes, value);
    out.append(bytes, Width);
}

template <std::size_t Width>
[[nodiscard]] std::uint64_t load_le(const char* bytes) noexcept {
    static_assert(Width <= 8);
    std::uint64_t value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, bytes, Width);
    } else {
        for (std::size_t i = Width; i-- > 0;) {
            value = (value << 8) | static_cast<unsigned char>(bytes[i]);
        }
    }
    return value;
}

template <class T>
inline constexpr T unbounded = std::numeric_limits<T>::max();

template <class T, class F> std::size_t min_wire_bytes(F fields);

struct writer {
    std::string out;

    void u32(const char*, std::uint32_t value, std::uint32_t = 0,
             std::uint32_t = unbounded<std::uint32_t>) {
        put_le<4>(out, value);
    }
    void u64(const char*, std::uint64_t value) { put_le<8>(out, value); }
    void u64(const char*, std::chrono::nanoseconds value) {
        put_le<8>(out, static_cast<std::uint64_t>(value.count()));
    }
    void f64(const char*, double value) {
        put_le<8>(out, std::bit_cast<std::uint64_t>(value));
    }
    void boolean(const char*, bool value) { put_le<1>(out, value ? 1 : 0); }
    template <class E, class Max> void enum8(const char*, E value, Max) {
        put_le<1>(out, static_cast<std::uint8_t>(value));
    }
    template <class Limit>
    void bytes(const char*, std::string_view value, Limit) {
        put_le<sizeof(Limit)>(out, value.size());
        out.append(value);
    }
    template <class Limit, class C, class F>
    void list(const char*, const C& values, Limit, F fields) {
        put_le<sizeof(Limit)>(out, values.size());
        out.reserve(out.size() + values.size() *
                                     min_wire_bytes<typename C::value_type>(
                                         fields));
        for (const auto& value : values) {
            fields(*this, value);
        }
    }
    template <class T, class F>
    void optional(const char*, const std::shared_ptr<const T>& value,
                  F fields) {
        put_le<1>(out, value ? 1 : 0);
        if (value) {
            fields(*this, *value);
        }
    }
    void magic(const char (&magic)[4], std::uint32_t version) {
        out.append(magic, sizeof magic);
        put_le<4>(out, version);
    }
    // The length is patched in once the body is written.
    template <class F>
    void sized(const char*, std::uint64_t, std::uint64_t, F body) {
        const std::size_t at = out.size();
        put_le<8>(out, 0);
        body();
        store_le<8>(out.data() + at, out.size() - at - 8);
    }
    void levels(const char*, std::span<const std::uint64_t> values,
                std::uint32_t max_level) {
        DEW_EXPECTS(max_level < values.size());
        const std::size_t at = out.size();
        out.resize(at + 8 * (std::size_t{max_level} + 1));
        for (std::size_t level = 0; level <= max_level; ++level) {
            store_le<8>(out.data() + at + 8 * level, values[level]);
        }
    }
};

template <class M, class F> std::string encode(const M& message, F fields) {
    writer w;
    fields(w, message);
    return std::move(w.out);
}

// The least wire size of a list element: the encoding of a default one,
// whose every length, count and presence byte is zero.
template <class T, class F> std::size_t min_wire_bytes(F fields) {
    static const std::size_t least = encode(T{}, fields).size();
    return least;
}

// Bounds-checked decoder over one resident image.  `Error` is the
// exception every fault throws, `name` starts its message, and `base` is
// the byte offset the image's first byte has in whatever the caller
// reports (a frame's payload sits after its header).
template <class Error> class cursor {
public:
    cursor(std::string_view bytes, const char* name, std::uint64_t base = 0)
        : begin_{bytes.data()},
          next_{begin_},
          end_{begin_ + bytes.size()},
          name_{name},
          base_{base} {}

    void u32(const char* field, std::uint32_t& value, std::uint32_t least = 0,
             std::uint32_t most = unbounded<std::uint32_t>) {
        value = static_cast<std::uint32_t>(get_le<4>(field));
        check_range(field, value, 4, least, most);
    }
    template <std::unsigned_integral T> void u64(const char* field, T& value) {
        value = static_cast<T>(get_le<8>(field));
    }
    void u64(const char* field, std::chrono::nanoseconds& value) {
        value = std::chrono::nanoseconds{
            static_cast<std::int64_t>(get_le<8>(field))};
    }
    void f64(const char* field, double& value) {
        value = std::bit_cast<double>(get_le<8>(field));
    }
    void boolean(const char* field, bool& value) { enum8(field, value, 1); }
    template <class E, class Max>
    void enum8(const char* field, E& value, Max max) {
        const std::uint64_t raw = get_le<1>(field);
        check_range(field, raw, 1, 0, static_cast<std::uint64_t>(max));
        value = static_cast<E>(raw);
    }
    template <class Limit>
    void bytes(const char* field, std::string& value, Limit limit) {
        const std::uint64_t length = get_count(field, limit, 1);
        value.assign(next_, static_cast<std::size_t>(length));
        next_ += length;
    }
    template <class Limit, class C, class F>
    void list(const char* field, C& values, Limit limit, F fields) {
        const std::uint64_t count = get_count(
            field, limit, min_wire_bytes<typename C::value_type>(fields));
        values.clear(); // a default service_request carries default grids
        values.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
            fields(*this, values.emplace_back());
        }
    }
    template <class T, class F>
    void optional(const char* field, std::shared_ptr<const T>& value,
                  F fields) {
        bool present = false;
        boolean(field, present);
        if (present) {
            T decoded{};
            fields(*this, decoded);
            value = std::make_shared<const T>(std::move(decoded));
        }
    }
    void magic(const char (&magic)[4], std::uint32_t version) {
        const std::string_view want{magic, sizeof magic};
        if (get_le<4>("magic") != load_le<4>(magic)) {
            fail("bad magic" + at(offset() - 4) + " (want \"" +
                 std::string{want} + "\")");
        }
        const std::uint64_t got = get_le<4>("version");
        if (got != version) {
            fail("unsupported \"" + std::string{want} + "\" version " +
                 std::to_string(got) + at(offset() - 4) + " (want " +
                 std::to_string(version) + ")");
        }
    }
    template <class F>
    void sized(const char* field, std::uint64_t least, std::uint64_t most,
               F body) {
        const std::uint64_t length = get_le<8>(field);
        check_range(field, length, 8, least, most);
        if (length > remaining()) {
            truncated(std::string{field} + " " + std::to_string(length) +
                      at(offset() - 8) + " ends" + at(offset() + length));
        }
        const char* const outer_end = end_;
        end_ = next_ + length;
        body();
        if (next_ != end_) {
            fail("over-long " + std::string{field} + " " +
                 std::to_string(length) + ": the structure ends" +
                 at(offset()) + ", " + std::to_string(end_ - next_) +
                 " bytes before the declared end");
        }
        end_ = outer_end;
    }
    void levels(const char* field, std::span<std::uint64_t> values,
                std::uint32_t max_level) {
        DEW_EXPECTS(max_level < values.size());
        const std::uint64_t count = std::uint64_t{max_level} + 1;
        if (count > remaining() / 8) {
            truncated(std::string{field} + " needs " + std::to_string(count) +
                      " x 8 bytes" + at(offset()));
        }
        for (std::uint64_t level = 0; level < count; ++level) {
            values[level] = load_le<8>(next_);
            next_ += 8;
        }
    }

    // Where the next field starts, as reported in faults.
    [[nodiscard]] std::uint64_t offset() const noexcept {
        return base_ + static_cast<std::uint64_t>(next_ - begin_);
    }
    [[nodiscard]] bool at_end() const noexcept { return next_ == end_; }

    // A whole-image decoder's last step: the image and the decoded
    // structure must agree exactly (trailing bytes are corruption).
    void finish() const {
        if (!at_end()) {
            fail("over-long: " + std::to_string(end_ - next_) +
                 " trailing bytes" + at(offset()));
        }
    }

private:
    [[nodiscard]] std::size_t remaining() const noexcept {
        return static_cast<std::size_t>(end_ - next_);
    }
    static std::string at(std::uint64_t offset) {
        return " at byte offset " + std::to_string(offset);
    }
    [[noreturn]] void fail(const std::string& what) const {
        throw Error{std::string{name_} + ": " + what};
    }
    [[noreturn]] void truncated(const std::string& what) const {
        throw Error{"truncated " + std::string{name_} + ": " + what +
                    ", past the end" +
                    at(base_ + static_cast<std::uint64_t>(end_ - begin_))};
    }
    void check_range(const char* field, std::uint64_t value,
                     std::size_t width, std::uint64_t least,
                     std::uint64_t most) const {
        if (value < least || value > most) {
            fail(std::string{field} + " " + std::to_string(value) +
                 at(offset() - width) + " is out of range [" +
                 std::to_string(least) + ", " + std::to_string(most) + "]");
        }
    }

    template <std::size_t Width> std::uint64_t get_le(const char* field) {
        if (remaining() < Width) {
            truncated(std::string{field} + " needs " + std::to_string(Width) +
                      " bytes" + at(offset()));
        }
        const std::uint64_t value = load_le<Width>(next_);
        next_ += Width;
        return value;
    }
    // A length or count as wide as Limit, at most `limit`, whose entries of
    // at least `least` bytes fit in the rest of the image.
    template <class Limit>
    std::uint64_t get_count(const char* field, Limit limit, std::size_t least) {
        const std::uint64_t count = get_le<sizeof(Limit)>(field);
        if (count > limit || count > remaining() / least) {
            const std::string what = std::string{field} + " " +
                                     std::to_string(count) +
                                     at(offset() - sizeof(Limit));
            if (count > limit) {
                fail("implausible " + what + " (limit " +
                     std::to_string(limit) + ")");
            }
            truncated(what + " needs " + std::to_string(least) +
                      " bytes per entry");
        }
        return count;
    }

    const char* begin_;
    const char* next_;
    const char* end_;
    const char* name_;
    std::uint64_t base_;
};

} // namespace dew::codec

#endif // DEW_COMMON_CODEC_HPP
