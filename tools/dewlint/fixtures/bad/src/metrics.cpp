// Bad fixture: registers metric names the root's docs/OBSERVABILITY.md
// catalogue never mentions — one in a provider body, one in an annotated
// name table the provider exports from.
#include <cstdint>
#include <string>
#include <vector>

namespace bad {

struct metric_sample {
    std::string name;
    std::uint64_t value{0};
};

struct series {
    const char* name;
    std::uint64_t value;
};

// dewlint: metric-table
constexpr series table[] = {
    {"bad.documented", 3},
    {"bad.tabled_phantom", 4},
};

void sample_metrics(std::vector<metric_sample>& out) {
    out.push_back({"bad.documented", 1});
    out.push_back({"bad.phantom_series", 2});
    for (const series& s : table) {
        out.push_back({s.name, s.value});
    }
}

} // namespace bad
