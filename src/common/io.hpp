// Little-endian integer stream writers of the DEWT/DEWC trace formats.
// Their readers stay format-local only because the trace formats stream
// millions of records and throw format_error; every binary format read
// whole from memory (DSNW frames, DSWR records, DSCF cache files) is one
// field list over the shared codec in common/codec.hpp instead.
#ifndef DEW_COMMON_IO_HPP
#define DEW_COMMON_IO_HPP

#include <array>
#include <cstdint>
#include <ostream>

namespace dew {

inline void put_u32_le(std::ostream& out, std::uint32_t value) {
    std::array<char, 4> bytes{};
    for (int i = 0; i < 4; ++i) {
        bytes[static_cast<std::size_t>(i)] =
            static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

inline void put_u64_le(std::ostream& out, std::uint64_t value) {
    std::array<char, 8> bytes{};
    for (int i = 0; i < 8; ++i) {
        bytes[static_cast<std::size_t>(i)] =
            static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace dew

#endif // DEW_COMMON_IO_HPP
