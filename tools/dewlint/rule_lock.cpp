// lock-order: every RAII mutex acquisition must resolve to a mutex member
// annotated `dewlint: lock-order <name> <rank>`, a scope may only acquire
// strictly increasing ranks, and the project-wide acquisition graph (the
// union of every observed held→acquired edge plus the rank ordering) must
// be acyclic.
//
// The analysis is intraprocedural: a guard taken in one function is not
// seen by its callees, so a nesting that crosses a function call (e.g. a
// cache probe under the flights lock) is invisible here and relies on the
// TSan job.  docs/ANALYSIS.md spells out this limitation.
#include "rules.hpp"

#include <map>
#include <set>
#include <string>

namespace dewlint::rules {
namespace {

struct lock_decl {
    std::string name; // annotation name, e.g. "serve-flights"
    long rank{0};
    const source_file* file{nullptr};
    int line{0};
};

// member identifier -> declarations seen (may collide across files).
using decl_map = std::map<std::string, std::vector<lock_decl>>;

[[nodiscard]] bool line_declares_mutex(const source_file& file, int line,
                                       std::string& member_out) {
    // A mutex member declaration line looks like
    //   [mutable] std::mutex NAME;   or   std::shared_mutex NAME;
    // The member name is the last identifier before the terminating ';'.
    const auto& tokens = file.tokens;
    bool saw_mutex_type = false;
    std::string member;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].line != line) { continue; }
        const std::string& t = tokens[i].text;
        // Only the first mutex-type token is the type; a member may itself
        // be named `mutex`.
        if (!saw_mutex_type && tokens[i].kind == token_kind::ident &&
            (t == "mutex" || t == "shared_mutex" || t == "recursive_mutex" ||
             t == "timed_mutex")) {
            saw_mutex_type = true;
            continue;
        }
        if (saw_mutex_type && tokens[i].kind == token_kind::ident) {
            member = t;
        }
        if (saw_mutex_type && t == ";") { break; }
    }
    if (saw_mutex_type && !member.empty()) {
        member_out = member;
        return true;
    }
    return false;
}

// Binds each lock-order annotation to the mutex member declared on the
// annotation's line or the next line.
void collect_decls(const project& proj, decl_map& by_member,
                   std::map<std::string, long>& rank_by_name,
                   std::vector<diagnostic>& out) {
    for (const source_file& file : proj.files) {
        for (const annotation& a : file.annotations) {
            if (a.kind != annotation_kind::lock_order) { continue; }
            if (a.args.size() < 2) {
                emit(out, file, a.line, "annotation",
                     "'dewlint: lock-order' needs <name> <rank>");
                continue;
            }
            long rank = 0;
            try {
                rank = std::stol(a.args[1]);
            } catch (...) {
                emit(out, file, a.line, "annotation",
                     "lock-order rank '" + a.args[1] + "' is not a number");
                continue;
            }
            std::string member;
            if (!line_declares_mutex(file, a.line, member) &&
                !line_declares_mutex(file, a.line + 1, member)) {
                emit(out, file, a.line, "lock-order",
                     "lock-order annotation '" + a.args[0] +
                         "' is not attached to a mutex declaration");
                continue;
            }
            const auto [it, inserted] =
                rank_by_name.emplace(a.args[0], rank);
            if (!inserted && it->second != rank) {
                emit(out, file, a.line, "lock-order",
                     "lock '" + a.args[0] + "' annotated with rank " +
                         std::to_string(rank) + " here but rank " +
                         std::to_string(it->second) + " elsewhere");
                continue;
            }
            by_member[member].push_back({a.args[0], rank, &file, a.line});
        }
    }
}

// Resolves a mutex member identifier at an acquisition site to its
// annotation: same file first, then the paired header/source (foo.cpp can
// lock a mutex declared in foo.hpp), then a globally unique declaration.
[[nodiscard]] const lock_decl* resolve(const decl_map& by_member,
                                       const source_file& site,
                                       const std::string& member) {
    const auto it = by_member.find(member);
    if (it == by_member.end()) { return nullptr; }
    const std::vector<lock_decl>& decls = it->second;
    for (const lock_decl& d : decls) {
        if (d.file == &site) { return &d; }
    }
    const auto stem_of = [](const std::string& rel) {
        const std::size_t dot = rel.rfind('.');
        return dot == std::string::npos ? rel : rel.substr(0, dot);
    };
    const std::string site_stem = stem_of(site.rel_path);
    for (const lock_decl& d : decls) {
        if (stem_of(d.file->rel_path) == site_stem) { return &d; }
    }
    std::set<std::string> names;
    for (const lock_decl& d : decls) { names.insert(d.name); }
    return names.size() == 1 ? &decls.front() : nullptr;
}

struct held_lock {
    std::string name;
    long rank{0};
    int depth{0}; // brace depth the guard was declared at
    int line{0};
};

[[nodiscard]] bool is_guard_type(const std::string& t) {
    return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
           t == "shared_lock";
}

void scan_acquisitions(const source_file& file, const decl_map& by_member,
                       std::map<std::string, std::set<std::string>>& edges,
                       std::vector<diagnostic>& out) {
    const auto& tokens = file.tokens;
    std::vector<held_lock> held;
    int depth = 0;

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string& t = tokens[i].text;
        if (t == "{") { ++depth; continue; }
        if (t == "}") {
            --depth;
            while (!held.empty() && held.back().depth > depth) {
                held.pop_back();
            }
            continue;
        }
        if (tokens[i].kind != token_kind::ident || !is_guard_type(t)) {
            continue;
        }
        // std::lock_guard[<...>] NAME {args} / (args)
        std::size_t j = i + 1;
        if (j < tokens.size() && tokens[j].text == "<") {
            int angle = 0;
            while (j < tokens.size()) {
                if (tokens[j].text == "<") { ++angle; }
                else if (tokens[j].text == ">" && --angle == 0) { ++j; break; }
                ++j;
            }
        }
        if (j < tokens.size() && tokens[j].kind == token_kind::ident) { ++j; }
        if (j >= tokens.size() ||
            (tokens[j].text != "{" && tokens[j].text != "(")) {
            continue; // a declaration/using mention, not an acquisition
        }
        const std::size_t args_close = match_close(tokens, j);
        const int line = tokens[i].line;

        // Each top-level argument is one mutex (std::scoped_lock takes
        // several); tag arguments such as std::adopt_lock are skipped.
        std::size_t arg_begin = j + 1;
        for (std::size_t k = j + 1; k <= args_close && k < tokens.size(); ++k) {
            const bool at_end = k == args_close;
            const bool at_comma =
                !at_end && tokens[k].text == "," && file.depth[k] == file.depth[j + 1];
            if (tokens[k].text == "(" || tokens[k].text == "[" ||
                tokens[k].text == "{") {
                k = match_close(tokens, k);
                continue;
            }
            if (!at_end && !at_comma) { continue; }
            const std::string member = last_ident(tokens, arg_begin, k);
            arg_begin = k + 1;
            if (member.empty() || member == "defer_lock" ||
                member == "adopt_lock" || member == "try_to_lock") {
                continue;
            }
            const lock_decl* decl = resolve(by_member, file, member);
            if (decl == nullptr) {
                emit(out, file, line, "lock-order",
                     "acquisition of '" + member +
                         "' which has no (unambiguous) 'dewlint: "
                         "lock-order' annotation");
                continue;
            }
            for (const held_lock& h : held) {
                edges[h.name].insert(decl->name);
                if (decl->rank <= h.rank && decl->name != h.name) {
                    emit(out, file, line, "lock-order",
                         "acquires '" + decl->name + "' (rank " +
                             std::to_string(decl->rank) + ") while holding '" +
                             h.name + "' (rank " + std::to_string(h.rank) +
                             ", taken line " + std::to_string(h.line) +
                             "); ranks must strictly increase");
                } else if (decl->name == h.name) {
                    emit(out, file, line, "lock-order",
                         "re-acquires '" + decl->name +
                             "' already held since line " +
                             std::to_string(h.line));
                }
            }
            held.push_back({decl->name, decl->rank, depth, line});
        }
    }
}

// Reports any cycle in the observed acquisition graph.  With globally
// unique integer ranks a cycle always implies a rank violation too, but
// the graph check survives rank edits (e.g. two locks given equal ranks)
// and names the loop explicitly.
void check_cycles(const std::map<std::string, std::set<std::string>>& edges,
                  const project& proj, std::vector<diagnostic>& out) {
    std::set<std::string> done;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;

    auto dfs = [&](auto&& self, const std::string& node) -> bool {
        stack.push_back(node);
        on_stack.insert(node);
        const auto it = edges.find(node);
        if (it != edges.end()) {
            for (const std::string& next : it->second) {
                if (next == node) { continue; }
                if (on_stack.count(next) != 0) {
                    std::string loop;
                    bool in_loop = false;
                    for (const std::string& n : stack) {
                        if (n == next) { in_loop = true; }
                        if (in_loop) { loop += n + " -> "; }
                    }
                    loop += next;
                    diagnostic d;
                    d.file = proj.files.empty() ? std::string{"<project>"}
                                                : proj.files.front().rel_path;
                    d.line = 1;
                    d.rule = "lock-order";
                    d.message = "acquisition graph has a cycle: " + loop;
                    out.push_back(std::move(d));
                    return true;
                }
                if (done.count(next) == 0 && self(self, next)) { return true; }
            }
        }
        on_stack.erase(node);
        stack.pop_back();
        done.insert(node);
        return false;
    };

    for (const auto& [node, targets] : edges) {
        (void)targets;
        if (done.count(node) == 0 && dfs(dfs, node)) { return; }
    }
}

} // namespace

void lock_order(const project& proj, std::vector<diagnostic>& out) {
    decl_map by_member;
    std::map<std::string, long> rank_by_name;
    collect_decls(proj, by_member, rank_by_name, out);

    std::map<std::string, std::set<std::string>> edges;
    for (const source_file& file : proj.files) {
        scan_acquisitions(file, by_member, edges, out);
    }
    check_cycles(edges, proj, out);
}

} // namespace dewlint::rules
