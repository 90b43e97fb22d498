// CSV/table serialisation of DEW results and the binary "DSWR" record.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dew/result_io.hpp"
#include "dew/simulator.hpp"
#include "dew/sweep.hpp"
#include "trace/mediabench.hpp"

namespace {

using namespace dew;
using namespace dew::core;

dew_result make_result() {
    dew_simulator sim{4, 2, 16};
    sim.simulate(trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                              5000));
    return sim.result();
}

TEST(ResultIo, CsvShapeAndHeader) {
    std::ostringstream out;
    write_csv(out, make_result());
    std::istringstream lines{out.str()};
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "sets,assoc,block,misses,hits,miss_rate");
    std::size_t rows = 0;
    while (std::getline(lines, line)) {
        ++rows;
        // Six comma-separated fields per row.
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5)
            << line;
    }
    EXPECT_EQ(rows, 10u); // 5 levels x {A=1, A=2}
}

TEST(ResultIo, CsvRoundTripsCounts) {
    const dew_result result = make_result();
    std::ostringstream out;
    write_csv(out, result);
    // Parse back the misses column and compare against the API.
    std::istringstream lines{out.str()};
    std::string line;
    std::getline(lines, line); // header
    while (std::getline(lines, line)) {
        std::uint32_t sets = 0;
        std::uint32_t assoc = 0;
        std::uint32_t block = 0;
        unsigned long long misses = 0;
        unsigned long long hits = 0;
        double rate = 0.0;
        ASSERT_EQ(std::sscanf(line.c_str(), "%u,%u,%u,%llu,%llu,%lf", &sets,
                              &assoc, &block, &misses, &hits, &rate),
                  6)
            << line;
        EXPECT_EQ(misses, result.misses_of({sets, assoc, block})) << line;
        EXPECT_EQ(hits + misses, result.requests()) << line;
    }
}

TEST(ResultIo, SweepCsvCoversAllPasses) {
    sweep_request request;
    request.max_set_exp = 3;
    request.block_sizes = {16, 32};
    request.associativities = {2};
    const sweep_result result = run_sweep(
        trace::make_mediabench_trace(trace::mediabench_app::djpeg, 3000),
        request);
    std::ostringstream out;
    write_csv(out, result);
    std::size_t rows = 0;
    for (const char c : out.str()) {
        rows += c == '\n';
    }
    EXPECT_EQ(rows, 1u + 4u * 2u * 2u); // header + 4 levels x {1,2} x 2 blocks
}

TEST(ResultIo, TableMentionsEveryConfiguration) {
    const dew_result result = make_result();
    std::ostringstream out;
    write_table(out, result);
    for (const config_outcome& outcome : result.outcomes()) {
        EXPECT_NE(out.str().find(cache::to_string(outcome.config)),
                  std::string::npos)
            << cache::to_string(outcome.config);
    }
}

// --- Binary round trip ------------------------------------------------------

sweep_result make_sweep_result() {
    sweep_request request;
    request.max_set_exp = 4;
    request.block_sizes = {16, 32};
    request.associativities = {2, 4};
    request.instrumentation = sweep_instrumentation::full_counters;
    return run_sweep(
        trace::make_mediabench_trace(trace::mediabench_app::djpeg, 4000),
        request);
}

void expect_equal_results(const sweep_result& a, const sweep_result& b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    ASSERT_EQ(a.passes.size(), b.passes.size());
    for (std::size_t i = 0; i < a.passes.size(); ++i) {
        const dew_result& x = a.passes[i];
        const dew_result& y = b.passes[i];
        ASSERT_EQ(x.max_level(), y.max_level());
        EXPECT_EQ(x.associativity(), y.associativity());
        EXPECT_EQ(x.block_size(), y.block_size());
        EXPECT_EQ(x.requests(), y.requests());
        for (unsigned level = 0; level <= x.max_level(); ++level) {
            EXPECT_EQ(x.misses(level, x.associativity()),
                      y.misses(level, y.associativity()));
            EXPECT_EQ(x.misses(level, 1), y.misses(level, 1));
        }
        EXPECT_EQ(x.counters().node_evaluations,
                  y.counters().node_evaluations);
        EXPECT_EQ(x.counters().tag_comparisons, y.counters().tag_comparisons);
        EXPECT_EQ(x.counters().mre_swaps, y.counters().mre_swaps);
    }
}

// One record on its own, as a whole image.
sweep_result decode(std::string_view bytes) {
    return decode_sweep_record(bytes);
}

TEST(ResultIo, BinaryRoundTripsEveryField) {
    const sweep_result original = make_sweep_result();
    expect_equal_results(decode(encode_sweep_record(original)), original);
}

TEST(ResultIo, BinaryRecordsConcatenate) {
    // Trailing bytes after one record stay unread: the cache file format
    // writes records back to back.
    const sweep_result original = make_sweep_result();
    const std::string bytes =
        encode_sweep_record(original) + encode_sweep_record(original);
    std::string_view in{bytes};
    expect_equal_results(decode_sweep_record(in), original);
    expect_equal_results(decode_sweep_record(in), original);
    EXPECT_TRUE(in.empty());
}

TEST(ResultIo, BinaryRejectsBadMagicAndVersion) {
    const sweep_result original = make_sweep_result();
    const std::string payload = encode_sweep_record(original);

    std::string bad_magic = payload;
    bad_magic[0] = 'X';
    EXPECT_THROW((void)decode(bad_magic), std::runtime_error);

    std::string bad_version = payload;
    bad_version[4] = 9;
    EXPECT_THROW((void)decode(bad_version), std::runtime_error);
}

TEST(ResultIo, BinaryRejectsTruncationAtEveryLength) {
    // No prefix of a valid record may parse: every truncation point must
    // throw (naming a byte offset), never return a silently partial result.
    const sweep_result original = make_sweep_result();
    const std::string payload = encode_sweep_record(original);
    ASSERT_GT(payload.size(), 64u);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        try {
            (void)decode(std::string_view{payload}.substr(0, cut));
            FAIL() << "cut at " << cut << " parsed";
        } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string{error.what()}.find("byte offset"),
                      std::string::npos)
                << "cut at " << cut << ": " << error.what();
        }
    }
}

TEST(ResultIo, BinaryRejectsOverLongPayload) {
    // A declared payload longer than the decoded structure is corruption:
    // the reader must not silently skip bytes it cannot attribute.
    const sweep_result original = make_sweep_result();
    std::string payload = encode_sweep_record(original);
    // Grow the declared payload length by 8 and append 8 junk bytes.
    std::uint64_t declared = 0;
    for (std::size_t i = 16; i-- > 8;) {
        declared =
            (declared << 8) | static_cast<unsigned char>(payload[i]);
    }
    declared += 8;
    for (std::size_t i = 8; i < 16; ++i) {
        payload[i] = static_cast<char>((declared >> (8 * (i - 8))) & 0xFF);
    }
    payload.append(8, '\0');
    try {
        (void)decode(payload);
        FAIL() << "over-long payload parsed";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string{error.what()}.find("over-long"),
                  std::string::npos)
            << error.what();
        EXPECT_NE(std::string{error.what()}.find("byte offset"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ResultIo, BinaryRejectsImplausibleFields) {
    const sweep_result original = make_sweep_result();
    std::string payload = encode_sweep_record(original);
    // Pass count lives at payload offset 16 (requests u64 + seconds u64)
    // past the 16-byte header; poison it to a value the payload cannot fit.
    const std::size_t pass_count_at = 16 + 16;
    payload[pass_count_at] = '\xFF';
    payload[pass_count_at + 1] = '\xFF';
    payload[pass_count_at + 2] = '\xFF';
    EXPECT_THROW((void)decode(payload), std::runtime_error);
}

TEST(ResultIo, CountersLineIsComplete) {
    dew_simulator sim{4, 2, 16};
    sim.simulate(trace::make_mediabench_trace(trace::mediabench_app::cjpeg,
                                              5000));
    std::ostringstream out;
    write_counters(out, sim.counters());
    const std::string text = out.str();
    EXPECT_NE(text.find("requests 5,000"), std::string::npos);
    EXPECT_NE(text.find("tag comparisons"), std::string::npos);
    EXPECT_NE(text.find("MRA stops"), std::string::npos);
}

} // namespace
