// Internal header shared by the rule translation units.
#ifndef DEW_TOOLS_DEWLINT_RULES_HPP
#define DEW_TOOLS_DEWLINT_RULES_HPP

#include "analyze.hpp"

namespace dewlint::rules {

void thread_hygiene(const project& proj, std::vector<diagnostic>& out);
void lock_order(const project& proj, std::vector<diagnostic>& out);
void identity_completeness(const project& proj, std::vector<diagnostic>& out);
void hot_loop(const project& proj, std::vector<diagnostic>& out);
void metric_catalogue(const project& proj, std::vector<diagnostic>& out);

inline void emit(std::vector<diagnostic>& out, const source_file& file,
                 int line, std::string rule, std::string message) {
    diagnostic d;
    d.file = file.rel_path;
    d.line = line;
    d.rule = std::move(rule);
    d.message = std::move(message);
    out.push_back(std::move(d));
}

} // namespace dewlint::rules

#endif // DEW_TOOLS_DEWLINT_RULES_HPP
