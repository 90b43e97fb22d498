// hot-loop hygiene: between `dewlint: hot-loop begin <name>` and
// `dewlint: hot-loop end <name>` no token may be an identifier from the
// banned list — randomness, wall-clock time, iostream, printf-family, and
// anything that allocates (new/delete/malloc, make_unique, container
// growth).  These are the per-record simulation paths; the paper's
// throughput claims die the day an allocation or a syscall lands in one.
#include "rules.hpp"

#include <set>
#include <string>

namespace dewlint::rules {
namespace {

const std::set<std::string>& banned_idents() {
    static const std::set<std::string> banned{
        // randomness / time
        "rand", "srand", "rand_r", "random", "drand48", "time", "clock",
        "gettimeofday", "localtime", "gmtime", "strftime",
        // iostream / stdio
        "cout", "cerr", "cin", "clog", "endl", "printf", "fprintf",
        "sprintf", "snprintf", "vprintf", "puts", "putchar", "getchar",
        "scanf", "fscanf", "getline", "fopen", "fread", "fwrite", "fclose",
        "system", "stringstream", "ostringstream", "istringstream",
        "ofstream", "ifstream", "fstream",
        // allocation
        "new", "delete", "malloc", "calloc", "realloc", "free", "strdup",
        "make_unique", "make_shared", "push_back", "emplace_back",
        "pop_back", "resize", "reserve", "shrink_to_fit",
    };
    return banned;
}

struct region {
    std::string name;
    int begin_line{0};
    int end_line{0}; // 0 while unterminated
};

} // namespace

void hot_loop(const project& proj, std::vector<diagnostic>& out) {
    for (const source_file& file : proj.files) {

        std::vector<region> regions;
        std::vector<region> open;
        for (const annotation& a : file.annotations) {
            if (a.kind != annotation_kind::hot_loop) { continue; }
            if (a.args.size() < 2 ||
                (a.args[0] != "begin" && a.args[0] != "end")) {
                emit(out, file, a.line, "annotation",
                     "'dewlint: hot-loop' needs 'begin <name>' or "
                     "'end <name>'");
                continue;
            }
            if (a.args[0] == "begin") {
                open.push_back({a.args[1], a.line, 0});
                continue;
            }
            bool matched = false;
            for (auto it = open.rbegin(); it != open.rend(); ++it) {
                if (it->name == a.args[1]) {
                    it->end_line = a.line;
                    regions.push_back(*it);
                    open.erase(std::next(it).base());
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                emit(out, file, a.line, "hot-loop",
                     "hot-loop end '" + a.args[1] + "' has no matching begin");
            }
        }
        for (const region& r : open) {
            emit(out, file, r.begin_line, "hot-loop",
                 "hot-loop region '" + r.name + "' is never closed with "
                 "'dewlint: hot-loop end " + r.name + "'");
        }

        if (regions.empty()) { continue; }
        for (const token& t : file.tokens) {
            if (t.kind != token_kind::ident ||
                banned_idents().count(t.text) == 0) {
                continue;
            }
            for (const region& r : regions) {
                if (t.line > r.begin_line && t.line < r.end_line) {
                    emit(out, file, t.line, "hot-loop",
                         "'" + t.text + "' inside hot-loop region '" +
                             r.name +
                             "' (allocation/IO/clock calls are banned on "
                             "the per-record path)");
                    break;
                }
            }
        }
    }
}

} // namespace dewlint::rules
