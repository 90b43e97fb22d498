// Test helpers over binary images: a sweep's canonical "DSWR" bytes for
// bit-identity checks, and a lowercase hex rendering for golden files.
#ifndef DEW_TESTS_SUPPORT_BYTES_HPP
#define DEW_TESTS_SUPPORT_BYTES_HPP

#include <string>
#include <string_view>

#include "dew/result_io.hpp"
#include "dew/sweep.hpp"

namespace dew::test_support {

// Canonical image for bit-identity comparison.  The wall-clock `seconds`
// field is zeroed first: it is a measurement of the run, not part of the
// answer, and (alone in the record) legitimately differs between a served
// and a direct computation of the same question.
inline std::string sweep_bytes(core::sweep_result result) {
    result.seconds = 0.0;
    return core::encode_sweep_record(result);
}

inline std::string to_hex(std::string_view bytes) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(2 * bytes.size());
    for (const char c : bytes) {
        const auto byte = static_cast<unsigned char>(c);
        out.push_back(digits[byte >> 4]);
        out.push_back(digits[byte & 0xF]);
    }
    return out;
}

} // namespace dew::test_support

#endif // DEW_TESTS_SUPPORT_BYTES_HPP
