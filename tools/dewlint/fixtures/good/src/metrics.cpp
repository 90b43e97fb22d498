// Good fixture: every registered metric name appears in this root's
// docs/OBSERVABILITY.md catalogue.
#include <cstdint>
#include <string>
#include <vector>

namespace good {

struct metric_sample {
    std::string name;
    std::uint64_t value{0};
};

// A name table outside the provider body, annotated so its names are
// checked too.
struct series {
    const char* name;
    std::uint64_t value;
};

// dewlint: metric-table
constexpr series table[] = {
    {"good.tabled", 3},
};

// A prototype before the definition: a `;` at the anchor depth must not
// confuse the body walk.
void sample_metrics(std::vector<metric_sample>& out);

void sample_metrics(std::vector<metric_sample>& out) {
    out.push_back({"good.requests", 1});
    out.push_back({"good.latency_ns", 2});
    for (const series& s : table) {
        out.push_back({s.name, s.value});
    }
    const std::string prefix = "good.backend.";
    out.push_back({prefix + "healthy", 1});
    // Prose never matches the name shape, catalogued or not.
    const char* note = "this is not a metric name";
    out.push_back({note, 0});
}

} // namespace good
