// dewlint's own test suite: every rule must fire on the bad fixture, stay
// quiet on the good fixture (which exercises each conforming shape plus a
// reasoned dewlint-allow), and the real repository must analyze clean.
// The final test is the acceptance criterion of the analyzer itself:
// deleting one fold from serve/key.cpp must fail identity-completeness.
//
// Fixture paths arrive as compile definitions (tests/CMakeLists.txt):
//   DEWLINT_FIXTURES_DIR  — tools/dewlint/fixtures
//   DEWLINT_REPO_ROOT     — the repository root
#include "analyze.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using dewlint::diagnostic;

std::string fixture(const char* which) {
    return std::string{DEWLINT_FIXTURES_DIR} + "/" + which;
}

// True when some finding carries this rule and mentions `needle`.
bool has(const std::vector<diagnostic>& findings, const std::string& rule,
         const std::string& needle) {
    for (const diagnostic& d : findings) {
        if (d.rule == rule && d.message.find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

std::string render(const std::vector<diagnostic>& findings) {
    std::ostringstream out;
    for (const diagnostic& d : findings) {
        out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
            << "\n";
    }
    return out.str();
}

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(Dewlint, GoodFixtureIsClean) {
    const auto findings = dewlint::analyze_project(fixture("good"));
    EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(Dewlint, BadFixtureFiresThreadHygiene) {
    const auto findings =
        dewlint::analyze_project(fixture("bad"), {"thread-hygiene"});
    EXPECT_TRUE(has(findings, "thread-hygiene", "detach() is banned"))
        << render(findings);
    EXPECT_TRUE(has(findings, "thread-hygiene",
                    "no top-level catch(...) and does not call"));
    EXPECT_TRUE(has(findings, "thread-hygiene",
                    "'do_work' is not annotated"));
    EXPECT_TRUE(has(findings, "thread-hygiene",
                    "'leaky_body' lacks a top-level catch(...)"));
    EXPECT_TRUE(has(findings, "thread-hygiene",
                    "'missing_body' has no definition in this file"));
}

TEST(Dewlint, BadFixtureFiresLockOrder) {
    const auto findings =
        dewlint::analyze_project(fixture("bad"), {"lock-order"});
    EXPECT_TRUE(has(findings, "lock-order", "ranks must strictly increase"))
        << render(findings);
    EXPECT_TRUE(has(findings, "lock-order",
                    "no (unambiguous) 'dewlint: lock-order' annotation"));
    EXPECT_TRUE(has(findings, "lock-order", "re-acquires 'first'"));
    EXPECT_TRUE(has(findings, "lock-order",
                    "cycle: first -> second -> first"));
}

TEST(Dewlint, BadFixtureFiresIdentityCompleteness) {
    const auto findings =
        dewlint::analyze_project(fixture("bad"), {"identity-completeness"});
    EXPECT_TRUE(has(findings, "identity-completeness",
                    "field 'forgotten' of query is neither folded"))
        << render(findings);
    EXPECT_TRUE(has(findings, "identity-completeness",
                    "field 'both' of query is both hashed and"));
}

TEST(Dewlint, BadFixtureFiresHotLoop) {
    const auto findings = dewlint::analyze_project(fixture("bad"), {"hot-loop"});
    EXPECT_TRUE(has(findings, "hot-loop",
                    "'push_back' inside hot-loop region 'walk'"))
        << render(findings);
    EXPECT_TRUE(has(findings, "hot-loop", "'forever' is never closed"));
    EXPECT_TRUE(has(findings, "hot-loop", "'nowhere' has no matching begin"));
    // The reason-less allow targeting the push_back does not suppress it and
    // is reported itself.
    EXPECT_TRUE(has(findings, "annotation", "needs a reason after the colon"));
}

TEST(Dewlint, BadFixtureFiresMetricCatalogue) {
    const auto findings =
        dewlint::analyze_project(fixture("bad"), {"metric-catalogue"});
    EXPECT_TRUE(has(findings, "metric-catalogue",
                    "metric 'bad.phantom_series' is registered here but "
                    "absent from docs/OBSERVABILITY.md"))
        << render(findings);
    // A name in a `metric-table` annotated table, outside any provider
    // body, is checked the same way.
    EXPECT_TRUE(has(findings, "metric-catalogue",
                    "metric 'bad.tabled_phantom' is registered here but "
                    "absent from docs/OBSERVABILITY.md"))
        << render(findings);
    // The documented sibling in the same provider body stays quiet.
    EXPECT_FALSE(has(findings, "metric-catalogue", "bad.documented"))
        << render(findings);
}

TEST(Dewlint, ReasonedAllowSuppresses) {
    // good/src/threads.cpp detaches a thread under a reasoned
    // dewlint-allow(thread-hygiene); the rule alone must stay quiet.
    const auto findings =
        dewlint::analyze_project(fixture("good"), {"thread-hygiene"});
    EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(Dewlint, RepositoryAnalyzesClean) {
    const auto findings = dewlint::analyze_project(DEWLINT_REPO_ROOT);
    EXPECT_TRUE(findings.empty()) << render(findings);
}

// The acceptance criterion: the real identity files, minus the one line
// folding mre_depth, must fail identity-completeness — proving the rule
// guards serve/key.cpp, nested identity structs included, not just the
// synthetic fixture.
TEST(Dewlint, DeletingAHashedFieldFromKeyCppFails) {
    const std::string root{DEWLINT_REPO_ROOT};
    const std::vector<std::string> rel_paths{
        "src/serve/key.hpp", "src/serve/key.cpp", "src/dew/sweep.hpp",
        "src/dew/options.hpp"};

    dewlint::project intact;
    intact.root = root;
    for (const std::string& rel : rel_paths) {
        intact.files.push_back(
            dewlint::load_source(rel, slurp(root + "/" + rel)));
    }
    const auto before = dewlint::analyze(intact, {"identity-completeness"});
    ASSERT_TRUE(before.empty()) << render(before);

    dewlint::project mutated;
    mutated.root = root;
    for (const std::string& rel : rel_paths) {
        std::string text = slurp(root + "/" + rel);
        if (rel == "src/serve/key.cpp") {
            const std::string line = "fold(normal.sweep.options.mre_depth);";
            const std::size_t at = text.find(line);
            ASSERT_NE(at, std::string::npos)
                << "key.cpp no longer folds mre_depth by that exact "
                   "spelling; update this test alongside it";
            text.erase(at, line.size());
        }
        mutated.files.push_back(dewlint::load_source(rel, std::move(text)));
    }
    const auto after = dewlint::analyze(mutated, {"identity-completeness"});
    EXPECT_TRUE(has(after, "identity-completeness",
                    "field 'mre_depth' of dew_options is neither folded"))
        << render(after);
}

} // namespace
