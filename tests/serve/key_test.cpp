// Request canonicalisation and fingerprinting: the service's cache and
// coalescing identity.
#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/key.hpp"

namespace {

using namespace dew;
using namespace dew::serve;

service_request base_request() {
    service_request request;
    request.sweep.max_set_exp = 8;
    request.sweep.block_sizes = {32, 16};
    request.sweep.associativities = {4, 2};
    return request;
}

TEST(ServeKey, CanonicalSortsAndDeduplicatesGrids) {
    core::sweep_request sweep;
    sweep.block_sizes = {64, 16, 32, 16};
    sweep.associativities = {8, 2, 8};
    sweep.threads = 7;
    const core::sweep_request normal = canonical(sweep);
    EXPECT_EQ(normal.block_sizes, (std::vector<std::uint32_t>{16, 32, 64}));
    EXPECT_EQ(normal.associativities, (std::vector<std::uint32_t>{2, 8}));
    EXPECT_EQ(normal.threads, 0u);
}

TEST(ServeKey, FingerprintIgnoresSpellingButNotSemantics) {
    const service_request a = base_request();

    // Same question, different spelling: reordered grids, duplicate
    // entries, different thread count.
    service_request b = a;
    b.sweep.block_sizes = {16, 32, 16};
    b.sweep.associativities = {2, 4};
    b.sweep.threads = 4;
    EXPECT_EQ(fingerprint(a), fingerprint(b));

    // Different questions: each semantic field moves the fingerprint.
    service_request engine = a;
    engine.sweep.engine = core::sweep_engine::cipar;
    EXPECT_NE(fingerprint(engine), fingerprint(a));

    service_request instrumentation = a;
    instrumentation.sweep.instrumentation =
        core::sweep_instrumentation::full_counters;
    EXPECT_NE(fingerprint(instrumentation), fingerprint(a));

    service_request grid = a;
    grid.sweep.block_sizes = {16, 32, 64};
    EXPECT_NE(fingerprint(grid), fingerprint(a));

    service_request depth = a;
    depth.sweep.max_set_exp = 9;
    EXPECT_NE(fingerprint(depth), fingerprint(a));

    service_request options = a;
    options.sweep.options.use_mre = false;
    EXPECT_NE(fingerprint(options), fingerprint(a));
}

TEST(ServeKey, CiparEngineIgnoresDewOptions) {
    // dew_options select DEW tree properties; the cipar engine never reads
    // them, so they are dead fields of a cipar request and must not
    // fragment the key space.
    service_request a = base_request();
    a.sweep.engine = core::sweep_engine::cipar;
    service_request b = a;
    b.sweep.options.use_mre = false;
    b.sweep.options.use_wave = false;
    b.sweep.options.mre_depth = 4;
    EXPECT_EQ(fingerprint(a), fingerprint(b));

    // On the DEW engine the same fields are semantic (counters differ).
    service_request c = base_request();
    service_request d = base_request();
    d.sweep.options.mre_depth = 4;
    EXPECT_NE(fingerprint(c), fingerprint(d));
}

TEST(ServeKey, RejectsFilteredAndIllFormedRequests) {
    service_request filtered = base_request();
    filtered.sweep.filter =
        [](trace::source&) -> std::unique_ptr<trace::source> {
        return std::make_unique<trace::span_source>(
            std::span<const trace::mem_access>{});
    };
    EXPECT_THROW((void)canonical(filtered), std::invalid_argument);
    EXPECT_THROW((void)fingerprint(filtered), std::invalid_argument);

    service_request bad_grid = base_request();
    bad_grid.sweep.block_sizes = {12};
    EXPECT_THROW((void)fingerprint(bad_grid), std::invalid_argument);
}

TEST(ServeKey, KeySeparatesTraceAndRequest) {
    const trace::trace_digest trace_a{{1, 2}};
    const trace::trace_digest trace_b{{3, 4}};
    const service_request request = base_request();
    service_request other = base_request();
    other.sweep.max_set_exp = 6;

    EXPECT_EQ(make_key(trace_a, request), make_key(trace_a, request));
    EXPECT_NE(make_key(trace_a, request), make_key(trace_b, request));
    EXPECT_NE(make_key(trace_a, request), make_key(trace_a, other));
}

} // namespace
