#include "dew/result_io.hpp"

#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/format.hpp"

namespace dew::core {

namespace {

void write_csv_rows(std::ostream& out,
                    const std::vector<config_outcome>& outcomes) {
    for (const config_outcome& outcome : outcomes) {
        out << outcome.config.set_count << ','
            << outcome.config.associativity << ','
            << outcome.config.block_size << ',' << outcome.misses << ','
            << outcome.hits << ',' << std::setprecision(6) << std::fixed
            << outcome.miss_rate() << '\n';
        out.unsetf(std::ios::fixed);
    }
}

} // namespace

void write_csv(std::ostream& out, const dew_result& result) {
    out << "sets,assoc,block,misses,hits,miss_rate\n";
    write_csv_rows(out, result.outcomes());
}

void write_csv(std::ostream& out, const sweep_result& result) {
    out << "sets,assoc,block,misses,hits,miss_rate\n";
    write_csv_rows(out, result.outcomes());
}

void write_table(std::ostream& out, const dew_result& result) {
    out << std::left << std::setw(24) << "configuration" << std::right
        << std::setw(14) << "misses" << std::setw(12) << "miss rate" << '\n';
    for (const config_outcome& outcome : result.outcomes()) {
        out << std::left << std::setw(24)
            << cache::to_string(outcome.config) << std::right
            << std::setw(14) << with_commas(outcome.misses) << std::setw(11)
            << fixed_decimal(100.0 * outcome.miss_rate(), 3) << "%\n";
    }
}

std::string encode_sweep_record(const sweep_result& sweep) {
    return codec::encode(sweep, sweep_fields);
}

sweep_result decode_sweep_record(std::string_view& bytes) {
    codec::cursor<std::runtime_error> in{bytes, "sweep result"};
    sweep_result sweep;
    sweep_fields(in, sweep);
    bytes.remove_prefix(static_cast<std::size_t>(in.offset()));
    return sweep;
}

void write_counters(std::ostream& out, const dew_counters& counters) {
    out << "requests " << with_commas(counters.requests)
        << ", node evaluations " << with_commas(counters.node_evaluations)
        << " (per-config would need "
        << with_commas(counters.unoptimized_evaluations) << "), MRA stops "
        << with_commas(counters.mra_hits) << ", wave determinations "
        << with_commas(counters.wave_checks) << ", MRE determinations "
        << with_commas(counters.mre_determinations) << ", searches "
        << with_commas(counters.searches) << ", tag comparisons "
        << with_commas(counters.tag_comparisons) << '\n';
}

} // namespace dew::core
