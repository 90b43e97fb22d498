#include "analyze.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dewlint {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::vector<std::string> split_words(std::string_view text) {
    std::vector<std::string> words;
    std::string current;
    for (char c : text) {
        if (c == ' ' || c == '\t' || c == '\r') {
            if (!current.empty()) { words.push_back(std::move(current)); current.clear(); }
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty()) { words.push_back(std::move(current)); }
    return words;
}

// Parses dewlint annotations out of one comment.  Block comments are
// scanned line by line so each annotation keeps its own line number.
void parse_comment(const comment& com, std::vector<annotation>& out) {
    std::size_t pos = 0;
    int line = com.line;
    const std::string& text = com.text;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::string_view one =
            std::string_view(text).substr(pos, eol == std::string::npos
                                                   ? std::string::npos
                                                   : eol - pos);

        if (const std::size_t at = one.find("dewlint-allow(");
            at != std::string_view::npos) {
            annotation a;
            a.kind = annotation_kind::allow;
            a.line = line;
            const std::size_t open = at + std::string_view("dewlint-allow(").size();
            const std::size_t close = one.find(')', open);
            if (close != std::string_view::npos) {
                a.args.emplace_back(one.substr(open, close - open));
                std::size_t rs = close + 1;
                if (rs < one.size() && one[rs] == ':') { ++rs; }
                while (rs < one.size() && one[rs] == ' ') { ++rs; }
                a.reason.assign(one.substr(rs));
            }
            out.push_back(std::move(a));
        } else if (const std::size_t mark = one.find("dewlint:");
                   mark != std::string_view::npos) {
            const auto words =
                split_words(one.substr(mark + std::string_view("dewlint:").size()));
            annotation a;
            a.line = line;
            bool known = true;
            if (words.empty()) {
                known = false;
            } else if (words[0] == "lock-order") {
                a.kind = annotation_kind::lock_order;
                a.args.assign(words.begin() + 1, words.end());
            } else if (words[0] == "thread-body") {
                a.kind = annotation_kind::thread_body;
                a.args.assign(words.begin() + 1, words.end());
            } else if (words[0] == "identity-struct") {
                a.kind = annotation_kind::identity_struct;
            } else if (words[0] == "identity-hash") {
                a.kind = annotation_kind::identity_hash;
            } else if (words[0] == "identity-exempt") {
                a.kind = annotation_kind::identity_exempt;
                if (words.size() >= 2) { a.args.push_back(words[1]); }
                for (std::size_t k = 2; k < words.size(); ++k) {
                    if (!a.reason.empty()) { a.reason.push_back(' '); }
                    a.reason += words[k];
                }
            } else if (words[0] == "metric-table") {
                a.kind = annotation_kind::metric_table;
            } else if (words[0] == "hot-loop") {
                a.kind = annotation_kind::hot_loop;
                a.args.assign(words.begin() + 1, words.end());
            } else {
                known = false;
            }
            if (known) { out.push_back(std::move(a)); }
        }

        if (eol == std::string::npos) { break; }
        pos = eol + 1;
        ++line;
    }
}

[[nodiscard]] std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("dewlint: cannot read " + path.string());
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return std::move(buffer).str();
}

} // namespace

source_file load_source(std::string rel_path, std::string_view text) {
    source_file file;
    file.rel_path = std::move(rel_path);
    file.path = file.rel_path;
    lex_result lexed = lex(text);
    file.tokens = std::move(lexed.tokens);
    file.comments = std::move(lexed.comments);
    for (const comment& com : file.comments) {
        parse_comment(com, file.annotations);
    }
    file.depth.resize(file.tokens.size());
    int depth = 0;
    for (std::size_t i = 0; i < file.tokens.size(); ++i) {
        file.depth[i] = depth;
        const std::string& t = file.tokens[i].text;
        if (t == "{") {
            ++depth;
        } else if (t == "}") {
            depth = std::max(0, depth - 1);
        }
    }
    return file;
}

project load_project(const std::string& root) {
    project proj;
    proj.root = root;
    const fs::path src = fs::path(root) / "src";
    if (!fs::is_directory(src)) {
        throw std::runtime_error("dewlint: no src/ directory under " + root);
    }

    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() &&
            (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")) {
            paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
        source_file file = load_source(
            fs::relative(path, root).generic_string(), read_file(path));
        file.path = path.generic_string();
        proj.files.push_back(std::move(file));
    }
    return proj;
}

std::size_t match_close(const std::vector<token>& tokens, std::size_t open) {
    if (open >= tokens.size()) { return tokens.size(); }
    const std::string& opener = tokens[open].text;
    std::string closer;
    if (opener == "{") { closer = "}"; }
    else if (opener == "(") { closer = ")"; }
    else if (opener == "[") { closer = "]"; }
    else { return tokens.size(); }
    int nesting = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        const std::string& t = tokens[i].text;
        if (t == opener) { ++nesting; }
        else if (t == closer && --nesting == 0) { return i; }
    }
    return tokens.size();
}

std::string last_ident(const std::vector<token>& tokens, std::size_t begin,
                       std::size_t end) {
    std::string found;
    for (std::size_t i = begin; i < end && i < tokens.size(); ++i) {
        if (tokens[i].kind == token_kind::ident) { found = tokens[i].text; }
    }
    return found;
}

std::optional<std::pair<std::size_t, std::size_t>>
find_function_body(const source_file& file, std::string_view name) {
    const auto& tokens = file.tokens;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != token_kind::ident || tokens[i].text != name ||
            tokens[i + 1].text != "(") {
            continue;
        }
        const std::size_t params_close = match_close(tokens, i + 1);
        if (params_close >= tokens.size()) { continue; }
        // Skip cv-qualifiers, ref-qualifiers, noexcept(...), attributes and
        // trailing return types between the parameter list and the body.
        std::size_t j = params_close + 1;
        bool is_body = false;
        while (j < tokens.size()) {
            const std::string& t = tokens[j].text;
            if (t == "{") { is_body = true; break; }
            if (t == ";" || t == "," || t == ")" || t == "=") { break; }
            if (t == "(" || t == "[") { j = match_close(tokens, j) + 1; continue; }
            ++j;
        }
        if (!is_body) { continue; }
        const std::size_t body_close = match_close(tokens, j);
        if (body_close >= tokens.size()) { continue; }
        return std::make_pair(j, body_close);
    }
    return std::nullopt;
}

bool body_has_toplevel_catch_all(const source_file& file, std::size_t open,
                                 std::size_t close) {
    const auto& tokens = file.tokens;
    if (open >= tokens.size() || close >= tokens.size()) { return false; }
    const int body_depth = file.depth[open] + 1;
    for (std::size_t i = open + 1; i < close; ++i) {
        if (file.depth[i] != body_depth) { continue; }
        if (tokens[i].kind != token_kind::ident || tokens[i].text != "try") {
            continue;
        }
        // try { ... } catch (T) { ... } catch (...) { ... }
        std::size_t j = i + 1;
        while (j < close && tokens[j].text != "{") { ++j; }
        if (j >= close) { return false; }
        std::size_t block_close = match_close(tokens, j);
        while (block_close < close && block_close + 1 < tokens.size() &&
               tokens[block_close + 1].text == "catch") {
            const std::size_t paren = block_close + 2;
            if (paren >= tokens.size() || tokens[paren].text != "(") { break; }
            const std::size_t paren_close = match_close(tokens, paren);
            bool catch_all = true;
            for (std::size_t k = paren + 1; k < paren_close; ++k) {
                if (tokens[k].text != ".") { catch_all = false; break; }
            }
            if (catch_all && paren_close > paren + 1) { return true; }
            std::size_t handler = paren_close + 1;
            if (handler >= tokens.size() || tokens[handler].text != "{") { break; }
            block_close = match_close(tokens, handler);
        }
    }
    return false;
}

bool range_mentions(const std::vector<token>& tokens, std::size_t begin,
                    std::size_t end, std::string_view ident) {
    for (std::size_t i = begin; i < end && i < tokens.size(); ++i) {
        if (tokens[i].kind == token_kind::ident && tokens[i].text == ident) {
            return true;
        }
    }
    return false;
}

std::vector<diagnostic> analyze(const project& proj,
                                const std::vector<std::string>& only) {
    std::vector<diagnostic> found;
    for (const rule& r : all_rules()) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), r.name) == only.end()) {
            continue;
        }
        r.run(proj, found);
    }

    // Apply suppressions: a dewlint-allow(<rule>) on the diagnostic's line
    // or the line directly above it silences the finding, but only when a
    // reason is given — an unexplained suppression is itself a finding.
    std::vector<diagnostic> kept;
    for (diagnostic& d : found) {
        bool suppressed = false;
        for (const source_file& file : proj.files) {
            if (file.rel_path != d.file) { continue; }
            for (const annotation& a : file.annotations) {
                if (a.kind != annotation_kind::allow) { continue; }
                if (a.args.empty() || a.args[0] != d.rule) { continue; }
                if (a.line != d.line && a.line != d.line - 1) { continue; }
                if (a.reason.empty()) {
                    diagnostic bad;
                    bad.file = file.rel_path;
                    bad.line = a.line;
                    bad.rule = "annotation";
                    bad.message = "dewlint-allow(" + d.rule +
                                  ") needs a reason after the colon";
                    kept.push_back(std::move(bad));
                    continue;
                }
                suppressed = true;
            }
            break;
        }
        if (!suppressed) { kept.push_back(std::move(d)); }
    }

    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end(),
                           [](const diagnostic& a, const diagnostic& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.message == b.message;
                           }),
               kept.end());
    return kept;
}

std::vector<diagnostic> analyze_project(const std::string& root,
                                        const std::vector<std::string>& only) {
    return analyze(load_project(root), only);
}

} // namespace dewlint
