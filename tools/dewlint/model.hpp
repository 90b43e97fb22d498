// Project model shared by every dewlint rule: lexed source files, the
// annotations mined from their comments, and the diagnostic type rules
// emit.  The annotation grammar is documented in docs/ANALYSIS.md; the
// short form is
//
//   dewlint: lock-order <name> <rank>       on a mutex member declaration
//   dewlint: thread-body <name>             approved thread-entry function
//   dewlint: identity-struct                next struct is identity input
//   dewlint: identity-hash                  next function is the fold
//   dewlint: identity-exempt <field> <why>  field deliberately not hashed
//   dewlint: metric-table                   next braced table names metrics
//   dewlint: hot-loop begin <name>          start of an allocation-free region
//   dewlint: hot-loop end <name>            end of that region
//   dewlint-allow(<rule>): <reason>         suppress on this or the next line
#ifndef DEW_TOOLS_DEWLINT_MODEL_HPP
#define DEW_TOOLS_DEWLINT_MODEL_HPP

#include "lexer.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace dewlint {

enum class annotation_kind {
    lock_order,      // args: name, rank
    thread_body,     // args: function name
    identity_struct, // no args
    identity_hash,   // no args
    identity_exempt, // args: field, reason...
    metric_table,    // no args
    hot_loop,        // args: begin|end, region name
    allow,           // args: rule; reason required
};

struct annotation {
    annotation_kind kind{};
    int line{0};
    std::vector<std::string> args;
    std::string reason; // allow / identity-exempt justification text
};

struct source_file {
    std::string path;     // absolute or root-relative path used in diagnostics
    std::string rel_path; // path relative to the project root
    std::vector<token> tokens;
    std::vector<comment> comments;
    std::vector<annotation> annotations;
    // depth[k] = brace depth *before* tokens[k]; same length as tokens.
    std::vector<int> depth;
};

struct project {
    std::string root;
    std::vector<source_file> files;
};

struct diagnostic {
    std::string file; // rel_path
    int line{0};
    std::string rule;
    std::string message;
};

[[nodiscard]] inline bool operator<(const diagnostic& a, const diagnostic& b) {
    if (a.file != b.file) { return a.file < b.file; }
    if (a.line != b.line) { return a.line < b.line; }
    if (a.rule != b.rule) { return a.rule < b.rule; }
    return a.message < b.message;
}

} // namespace dewlint

#endif // DEW_TOOLS_DEWLINT_MODEL_HPP
