// thread-hygiene: no detach(), and every thread body must route escaping
// exceptions somewhere deliberate instead of std::terminate.
//
// A launch site is either a direct `std::thread{...}` / `std::thread(...)`
// construction with arguments, or an emplace_back/push_back into a member
// previously declared as `std::vector<std::thread>`.  A site conforms when
// its entry lambda has a top-level `try` whose handlers include
// `catch (...)`, or when the body delegates to a function annotated
// `dewlint: thread-body <name>` — and that function itself must have the
// top-level catch-all, checked here, so the annotation is a pointer to the
// conforming shape rather than an unverified waiver.
#include "rules.hpp"

#include <set>
#include <string>

namespace dewlint::rules {
namespace {

// Collects names declared as std::vector<std::thread> members anywhere in
// the project (thread containers are few; a project-wide name set keeps
// the matching simple and the false-positive risk negligible).
[[nodiscard]] std::set<std::string> thread_container_names(const project& proj) {
    std::set<std::string> names;
    for (const source_file& file : proj.files) {
        const auto& tokens = file.tokens;
        for (std::size_t i = 0; i + 7 < tokens.size(); ++i) {
            // std :: vector < std :: thread > NAME
            if (tokens[i].text == "vector" && tokens[i + 1].text == "<" &&
                tokens[i + 2].text == "std" && tokens[i + 3].text == "::" &&
                tokens[i + 4].text == "thread" && tokens[i + 5].text == ">" &&
                tokens[i + 6].kind == token_kind::ident) {
                names.insert(tokens[i + 6].text);
            }
        }
    }
    return names;
}

[[nodiscard]] std::set<std::string> thread_body_names(const source_file& file) {
    std::set<std::string> names;
    for (const annotation& a : file.annotations) {
        if (a.kind == annotation_kind::thread_body && !a.args.empty()) {
            names.insert(a.args[0]);
        }
    }
    return names;
}

// Token index just past the lambda introducer and parameter list: the `{`
// opening the lambda body, or tokens.size() when `begin` is not a lambda.
[[nodiscard]] std::size_t lambda_body_open(const std::vector<token>& tokens,
                                           std::size_t begin, std::size_t end) {
    if (begin >= end || tokens[begin].text != "[") { return tokens.size(); }
    std::size_t i = match_close(tokens, begin) + 1;
    if (i < end && tokens[i].text == "(") { i = match_close(tokens, i) + 1; }
    while (i < end && tokens[i].text != "{") {
        // mutable / noexcept / attributes / trailing return type tokens.
        if (tokens[i].text == "(" || tokens[i].text == "[") {
            i = match_close(tokens, i) + 1;
        } else {
            ++i;
        }
    }
    return i < end ? i : tokens.size();
}

// True when the lambda body [open, close] either traps everything itself
// or forwards to an annotated thread-body function of this file.
[[nodiscard]] bool lambda_conforms(const source_file& file, std::size_t open,
                                   std::size_t close,
                                   const std::set<std::string>& bodies) {
    if (body_has_toplevel_catch_all(file, open, close)) { return true; }
    for (const std::string& name : bodies) {
        if (range_mentions(file.tokens, open + 1, close, name)) { return true; }
    }
    return false;
}

void check_launch(const source_file& file, std::size_t args_open,
                  const std::set<std::string>& bodies,
                  std::vector<diagnostic>& out) {
    const auto& tokens = file.tokens;
    const std::size_t args_close = match_close(tokens, args_open);
    if (args_close >= tokens.size() || args_close == args_open + 1) {
        return; // default-constructed member, e.g. `std::thread handler;`
    }
    const int line = tokens[args_open].line;
    if (tokens[args_open + 1].text == "[") {
        const std::size_t body_open =
            lambda_body_open(tokens, args_open + 1, args_close);
        if (body_open >= tokens.size()) {
            emit(out, file, line, "thread-hygiene",
                 "cannot parse thread entry lambda");
            return;
        }
        const std::size_t body_close = match_close(tokens, body_open);
        if (!lambda_conforms(file, body_open, body_close, bodies)) {
            emit(out, file, line, "thread-hygiene",
                 "thread entry lambda has no top-level catch(...) and does "
                 "not call a 'dewlint: thread-body' annotated function");
        }
        return;
    }
    // Non-lambda entry (function pointer, bind result): conforms only when
    // the first argument names an annotated thread-body function.
    const std::string entry = last_ident(tokens, args_open + 1, args_close);
    if (bodies.count(entry) == 0) {
        emit(out, file, line, "thread-hygiene",
             "thread entry '" + entry +
                 "' is not annotated 'dewlint: thread-body'");
    }
}

} // namespace

void thread_hygiene(const project& proj, std::vector<diagnostic>& out) {
    const std::set<std::string> containers = thread_container_names(proj);

    for (const source_file& file : proj.files) {
        const auto& tokens = file.tokens;
        const std::set<std::string> bodies = thread_body_names(file);

        // Every annotated thread-body function must exist here and have
        // the top-level catch-all it promises.
        for (const annotation& a : file.annotations) {
            if (a.kind != annotation_kind::thread_body) { continue; }
            if (a.args.empty()) {
                emit(out, file, a.line, "annotation",
                     "'dewlint: thread-body' needs a function name");
                continue;
            }
            const auto body = find_function_body(file, a.args[0]);
            if (!body) {
                emit(out, file, a.line, "thread-hygiene",
                     "thread-body '" + a.args[0] +
                         "' has no definition in this file");
            } else if (!body_has_toplevel_catch_all(file, body->first,
                                                    body->second)) {
                emit(out, file, tokens[body->first].line, "thread-hygiene",
                     "thread-body '" + a.args[0] +
                         "' lacks a top-level catch(...)");
            }
        }

        for (std::size_t i = 0; i < tokens.size(); ++i) {
            // .detach() / ->detach() — never allowed, joinability is how
            // every subsystem here guarantees shutdown.
            if (tokens[i].kind == token_kind::ident &&
                tokens[i].text == "detach" && i > 0 &&
                (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
                i + 1 < tokens.size() && tokens[i + 1].text == "(") {
                emit(out, file, tokens[i].line, "thread-hygiene",
                     "std::thread::detach() is banned; keep threads "
                     "joinable so shutdown can drain them");
            }

            // std::thread{...} / std::thread(...) with arguments.
            if (tokens[i].text == "thread" && i >= 2 &&
                tokens[i - 1].text == "::" && tokens[i - 2].text == "std" &&
                i + 1 < tokens.size() &&
                (tokens[i + 1].text == "{" || tokens[i + 1].text == "(")) {
                check_launch(file, i + 1, bodies, out);
            }

            // <thread container>.emplace_back(...) / .push_back(...).
            if (tokens[i].kind == token_kind::ident &&
                (tokens[i].text == "emplace_back" ||
                 tokens[i].text == "push_back") &&
                i >= 2 &&
                (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
                containers.count(tokens[i - 2].text) != 0 &&
                i + 1 < tokens.size() && tokens[i + 1].text == "(") {
                check_launch(file, i + 1, bodies, out);
            }
        }
    }
}

} // namespace dewlint::rules
