// identity-completeness: every field of the structs annotated
// `dewlint: identity-struct` must either be mentioned inside the single
// `dewlint: identity-hash` annotated function (the fingerprint fold) or be
// named by a `dewlint: identity-exempt <field> <reason>` annotation.
// Fields whose type is itself an identity-struct recurse into that
// struct's fields, so nested request structs are flattened to leaves.
//
// This is the rule that makes "add a semantic knob, forget the hash" a
// build failure instead of a silently stale cache hit.
#include "rules.hpp"

#include <map>
#include <set>
#include <string>

namespace dewlint::rules {
namespace {

struct struct_field {
    std::string name;
    std::vector<std::string> type_idents; // identifiers left of the name
    int line{0};
    const source_file* file{nullptr};
};

struct identity_struct {
    std::string name;
    std::vector<struct_field> fields;
};

// Parses the aggregate annotated at `a`: the next `struct`/`class` token
// at or after the annotation line.  Member functions (any declaration
// with a top-level '(') and using/static/friend members are skipped.
[[nodiscard]] std::optional<identity_struct>
parse_struct(const source_file& file, const annotation& a,
             std::vector<diagnostic>& out) {
    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
        if (tokens[i].line < a.line) { continue; }
        if (tokens[i].text != "struct" && tokens[i].text != "class") { continue; }
        if (tokens[i + 1].kind != token_kind::ident) { continue; }

        identity_struct parsed;
        parsed.name = tokens[i + 1].text;
        std::size_t open = i + 2;
        while (open < tokens.size() && tokens[open].text != "{" &&
               tokens[open].text != ";") {
            ++open;
        }
        if (open >= tokens.size() || tokens[open].text == ";") {
            emit(out, file, a.line, "identity-completeness",
                 "identity-struct annotation precedes a declaration "
                 "without a body");
            return std::nullopt;
        }
        const std::size_t close = match_close(tokens, open);

        // Walk the body one member declaration at a time.  A member ends
        // at a top-level ';', except inline member functions whose body
        // brace ends the declaration with no ';' after it.
        std::size_t k = open + 1;
        while (k < close) {
            // Access specifier labels.
            if (tokens[k].kind == token_kind::ident &&
                (tokens[k].text == "public" || tokens[k].text == "private" ||
                 tokens[k].text == "protected") &&
                k + 1 < close && tokens[k + 1].text == ":") {
                k += 2;
                continue;
            }

            bool is_function = false;
            bool skip = false;
            std::string field_name;
            std::vector<std::string> type_idents;
            int field_line = tokens[k].line;
            int angle = 0;
            std::size_t m = k;
            bool value_part = false; // past '=' in a default initializer
            while (m < close) {
                const std::string& t = tokens[m].text;
                if (t == ";") { ++m; break; }
                if (t == "using" || t == "friend" || t == "typedef" ||
                    t == "static") {
                    skip = true; // not per-request state
                }
                if (t == "<") { ++angle; ++m; continue; }
                if (t == ">") { --angle; ++m; continue; }
                if (angle == 0 && (t == "(" || t == "[")) {
                    if (t == "(") { is_function = true; }
                    m = match_close(tokens, m) + 1;
                    continue;
                }
                if (angle == 0 && t == "{") {
                    m = match_close(tokens, m) + 1;
                    if (is_function || skip) {
                        // Inline body (or nested type): declaration over,
                        // with an optional trailing ';'.
                        if (m < close && tokens[m].text == ";") { ++m; }
                        break;
                    }
                    continue; // brace default-initializer; ';' follows
                }
                if (angle == 0 && t == "=") { value_part = true; }
                if (angle == 0 && !value_part &&
                    tokens[m].kind == token_kind::ident && !is_function) {
                    if (!field_name.empty()) {
                        type_idents.push_back(field_name);
                    }
                    field_name = t;
                    field_line = tokens[m].line;
                }
                ++m;
            }
            if (!is_function && !skip && !field_name.empty() &&
                field_name != parsed.name) {
                struct_field f;
                f.name = std::move(field_name);
                f.type_idents = std::move(type_idents);
                f.line = field_line;
                f.file = &file;
                parsed.fields.push_back(std::move(f));
            }
            k = std::max(m, k + 1);
        }
        return parsed;
    }
    emit(out, file, a.line, "identity-completeness",
         "identity-struct annotation is not followed by a struct");
    return std::nullopt;
}

} // namespace

void identity_completeness(const project& proj, std::vector<diagnostic>& out) {
    std::vector<identity_struct> structs;
    std::map<std::string, std::string> exempt; // field -> reason
    std::map<std::string, int> exempt_line;
    const source_file* hash_file = nullptr;
    std::pair<std::size_t, std::size_t> hash_body{};
    int hash_count = 0;

    for (const source_file& file : proj.files) {
        for (const annotation& a : file.annotations) {
            switch (a.kind) {
            case annotation_kind::identity_struct: {
                auto parsed = parse_struct(file, a, out);
                if (parsed) { structs.push_back(std::move(*parsed)); }
                break;
            }
            case annotation_kind::identity_exempt:
                if (a.args.empty() || a.reason.empty()) {
                    emit(out, file, a.line, "annotation",
                         "'dewlint: identity-exempt' needs <field> <reason>");
                } else {
                    exempt[a.args[0]] = a.reason;
                    exempt_line[a.args[0]] = a.line;
                }
                break;
            case annotation_kind::identity_hash: {
                // The annotated function definition starts at or after the
                // annotation line: find the first function body there.
                const auto& tokens = file.tokens;
                bool found = false;
                for (std::size_t i = 0; i + 1 < tokens.size() && !found; ++i) {
                    if (tokens[i].line < a.line) { continue; }
                    if (tokens[i].kind != token_kind::ident ||
                        tokens[i + 1].text != "(") {
                        continue;
                    }
                    const auto body = find_function_body(file, tokens[i].text);
                    if (body && tokens[body->first].line >= a.line) {
                        hash_file = &file;
                        hash_body = *body;
                        ++hash_count;
                        found = true;
                    }
                }
                if (!found) {
                    emit(out, file, a.line, "identity-completeness",
                         "identity-hash annotation is not followed by a "
                         "function definition");
                }
                break;
            }
            default:
                break;
            }
        }
    }

    if (structs.empty() && hash_count == 0) { return; } // rule not in use
    if (hash_count == 0) {
        diagnostic d;
        d.file = structs.empty() || structs.front().fields.empty()
                     ? std::string{"<project>"}
                     : structs.front().fields.front().file->rel_path;
        d.line = 1;
        d.rule = "identity-completeness";
        d.message = "identity-struct present but no 'dewlint: identity-hash' "
                    "function found";
        out.push_back(std::move(d));
        return;
    }
    if (hash_count > 1) {
        emit(out, *hash_file, hash_file->tokens[hash_body.first].line,
             "identity-completeness",
             "more than one identity-hash function annotated; expected "
             "exactly one fingerprint fold");
    }
    if (structs.empty()) {
        emit(out, *hash_file, hash_file->tokens[hash_body.first].line,
             "identity-completeness",
             "identity-hash present but no 'dewlint: identity-struct' found");
        return;
    }

    std::set<std::string> struct_names;
    for (const identity_struct& s : structs) { struct_names.insert(s.name); }

    for (const identity_struct& s : structs) {
        for (const struct_field& f : s.fields) {
            // Aggregate fields typed as another identity-struct are
            // covered by that struct's own leaf checks.
            bool recurses = false;
            for (const std::string& type_ident : f.type_idents) {
                if (struct_names.count(type_ident) != 0 &&
                    type_ident != s.name) {
                    recurses = true;
                    break;
                }
            }
            if (recurses) { continue; }

            const bool hashed = range_mentions(
                hash_file->tokens, hash_body.first + 1, hash_body.second,
                f.name);
            const auto ex = exempt.find(f.name);
            if (hashed && ex != exempt.end()) {
                emit(out, *f.file, f.line, "identity-completeness",
                     "field '" + f.name + "' of " + s.name +
                         " is both hashed and identity-exempt (line " +
                         std::to_string(exempt_line[f.name]) +
                         "); drop one");
            } else if (!hashed && ex == exempt.end()) {
                emit(out, *f.file, f.line, "identity-completeness",
                     "field '" + f.name + "' of " + s.name +
                         " is neither folded by the identity-hash function "
                         "nor 'dewlint: identity-exempt' listed");
            }
        }
    }
}

} // namespace dewlint::rules
