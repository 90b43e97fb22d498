#include "rules.hpp"

namespace dewlint {

const std::vector<rule>& all_rules() {
    static const std::vector<rule> rules{
        {"thread-hygiene",
         "no detach(); every thread body traps exceptions", &rules::thread_hygiene},
        {"lock-order",
         "annotated mutex ranks must strictly increase per scope", &rules::lock_order},
        {"identity-completeness",
         "every request field is hashed or explicitly exempt", &rules::identity_completeness},
        {"hot-loop",
         "no allocation/IO/clock identifiers in marked hot regions", &rules::hot_loop},
        {"metric-catalogue",
         "every registered metric name appears in docs/OBSERVABILITY.md", &rules::metric_catalogue},
    };
    return rules;
}

} // namespace dewlint
