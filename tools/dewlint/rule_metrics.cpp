// metric-catalogue: every string literal registered as a metric or
// histogram name in src/ must appear in docs/OBSERVABILITY.md's metric
// catalogue.  A series that is scrapeable but undocumented is invisible to
// the person staring at a dashboard at 3am — this rule makes the doc a
// build-enforced registry.
//
// Detection is anchored on the `metric_sample` type: a registry provider
// is a function (or lambda) whose signature mentions it.  From each
// `metric_sample` token we walk forward at the same brace depth to the
// first `{` — the provider body — and collect every identifier-like
// string literal inside ([A-Za-z0-9_.]+ with at least one '.'; prose and
// error messages never match).  Each collected name must be a substring
// of docs/OBSERVABILITY.md.  Declarations (a `;` before any `{` at the
// same depth) are skipped, so the struct definition and provider
// prototypes cost nothing.  A name table a provider exports from (the
// service's field-to-series binding) lives outside any provider body, so
// it carries a `dewlint: metric-table` annotation: the braced initializer
// after it is checked the same way.
#include "rules.hpp"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace dewlint::rules {
namespace {

// The catalogue text, or an empty string when the doc is missing — in
// which case every registered name fires, which is the right failure mode
// for a root that grew metrics before growing the doc.
std::string read_catalogue(const std::string& root) {
    std::ifstream in{root + "/docs/OBSERVABILITY.md"};
    if (!in) { return {}; }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// "serve.submitted" (quotes stripped) → true; "port out of range" → false.
bool looks_like_metric_name(std::string_view content) {
    if (content.empty()) { return false; }
    bool has_dot = false;
    for (const char c : content) {
        if (c == '.') {
            has_dot = true;
        } else if (std::isalnum(static_cast<unsigned char>(c)) == 0 &&
                   c != '_') {
            return false;
        }
    }
    return has_dot;
}

// Reports every metric-shaped literal in tokens (open, close) that the
// catalogue lacks, once per name per file (`reported`): a provider that
// registers the same prefix literal for five backends is one omission, not
// five.
void check_names(const source_file& file, std::size_t open,
                 std::size_t close, const std::string& catalogue,
                 std::set<std::string>& reported,
                 std::vector<diagnostic>& out) {
    for (std::size_t j = open + 1; j < close; ++j) {
        const token& lit = file.tokens[j];
        if (lit.kind != token_kind::string || lit.text.size() < 2 ||
            lit.text.front() != '"') {
            continue;
        }
        const std::string name = lit.text.substr(1, lit.text.size() - 2);
        if (!looks_like_metric_name(name)) { continue; }
        if (catalogue.find(name) != std::string::npos) { continue; }
        if (!reported.insert(name).second) { continue; }
        emit(out, file, lit.line, "metric-catalogue",
             "metric '" + name +
                 "' is registered here but absent from "
                 "docs/OBSERVABILITY.md's catalogue");
    }
}

} // namespace

void metric_catalogue(const project& proj, std::vector<diagnostic>& out) {
    const std::string catalogue = read_catalogue(proj.root);
    for (const source_file& file : proj.files) {
        std::set<std::string> reported;
        for (const annotation& a : file.annotations) {
            if (a.kind != annotation_kind::metric_table) { continue; }
            std::size_t open = file.tokens.size();
            for (std::size_t j = 0; j < file.tokens.size(); ++j) {
                const token& t = file.tokens[j];
                if (t.line <= a.line || t.kind != token_kind::punct) {
                    continue;
                }
                if (t.text == "{") { open = j; }
                if (t.text == "{" || t.text == ";") { break; }
            }
            if (open == file.tokens.size()) {
                emit(out, file, a.line, "annotation",
                     "metric-table annotation is not followed by a braced "
                     "table");
                continue;
            }
            check_names(file, open, match_close(file.tokens, open),
                        catalogue, reported, out);
        }
        for (std::size_t i = 0; i < file.tokens.size(); ++i) {
            const token& t = file.tokens[i];
            if (t.kind != token_kind::ident || t.text != "metric_sample") {
                continue;
            }
            const int base = file.depth[i];
            std::size_t open = file.tokens.size();
            for (std::size_t j = i + 1; j < file.tokens.size(); ++j) {
                if (file.tokens[j].kind != token_kind::punct ||
                    file.depth[j] != base) {
                    continue;
                }
                if (file.tokens[j].text == ";") { break; } // declaration
                if (file.tokens[j].text == "{") {
                    open = j;
                    break;
                }
            }
            if (open == file.tokens.size()) { continue; }
            const std::size_t close = match_close(file.tokens, open);
            check_names(file, open, close, catalogue, reported, out);
            i = close; // resume after the provider body
        }
    }
}

} // namespace dewlint::rules
