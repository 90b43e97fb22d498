// Project loading, annotation parsing, token-walk helpers and the rule
// registry.  main.cpp and the tests both drive the analyzer through
// analyze_project(); the helpers are exposed so each rule stays a short
// pattern match instead of re-deriving brace depths.
#ifndef DEW_TOOLS_DEWLINT_ANALYZE_HPP
#define DEW_TOOLS_DEWLINT_ANALYZE_HPP

#include "model.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dewlint {

// ---------------------------------------------------------------- loading

// Lexes one in-memory file and mines its annotations.  Exposed for the
// fixture tests; analyze_project() uses it for every file on disk.
[[nodiscard]] source_file
load_source(std::string rel_path, std::string_view text);

// Loads <root>/src/**/*.{hpp,cpp,h,cc}.  Throws std::runtime_error when
// root/src does not exist.
[[nodiscard]] project load_project(const std::string& root);

// ------------------------------------------------------------------ rules

struct rule {
    std::string_view name;
    std::string_view summary;
    void (*run)(const project&, std::vector<diagnostic>&);
};

[[nodiscard]] const std::vector<rule>& all_rules();

// Runs every rule (or only `only`, when non-empty) over the project,
// applies dewlint-allow suppressions, and returns the sorted survivors.
[[nodiscard]] std::vector<diagnostic>
analyze(const project& proj, const std::vector<std::string>& only = {});

// Convenience: load_project + analyze.
[[nodiscard]] std::vector<diagnostic>
analyze_project(const std::string& root, const std::vector<std::string>& only = {});

// ---------------------------------------------------------------- helpers

// Index of the token matching the opener at `open` ("{", "(", "["), or
// tokens.size() when unbalanced.
[[nodiscard]] std::size_t
match_close(const std::vector<token>& tokens, std::size_t open);

// The last identifier of a member chain ending just before `end`
// (exclusive): for `s.cache_mutex` or `f->mutex` this is the final member
// name.  Empty when the range holds no identifier.
[[nodiscard]] std::string
last_ident(const std::vector<token>& tokens, std::size_t begin, std::size_t end);

// Token range (open brace index, close brace index) of the body of the
// first *definition* of function `name` in `file`, if any.
[[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>>
find_function_body(const source_file& file, std::string_view name);

// True when the body [open, close] has a top-level `try` block with a
// `catch (...)` handler — the thread-hygiene conformance shape.
[[nodiscard]] bool
body_has_toplevel_catch_all(const source_file& file, std::size_t open,
                            std::size_t close);

// True when some token in [begin, end) is an identifier with this text.
[[nodiscard]] bool
range_mentions(const std::vector<token>& tokens, std::size_t begin,
               std::size_t end, std::string_view ident);

} // namespace dewlint

#endif // DEW_TOOLS_DEWLINT_ANALYZE_HPP
