// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <paper_grid|dse_mix|fleet_warm> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics;
// --trace 1 runs the per-layer ledger of every path (the named workload's
// ledger also measures the tracing overhead) and writes the benchmark's
// spans to --spans.  The last line of stdout is one JSON object; run.py
// builds this program, checks that object and prints the result.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper_grid|dse_mix|fleet_warm> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n",
                 why);
    std::exit(2);
}

perfbench::run_options parse(int argc, char** argv) {
    perfbench::run_options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.traced = std::stoi(value) != 0;
            } else if (flag == "--spans") {
                options.span_path = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (options.workload != "paper_grid" && options.workload != "dse_mix" &&
        options.workload != "fleet_warm") {
        usage("unknown or missing --workload");
    }
    if (options.seconds <= 0.0) {
        usage("--seconds must be positive");
    }
    if (options.traced && options.span_path.empty()) {
        usage("--trace 1 needs --spans");
    }
    return options;
}

} // namespace

int main(int argc, char** argv) {
    // Setting glibc's mmap threshold (to its default, 128 KiB) turns off
    // its dynamic growth, so large blocks always go back to the system when
    // freed.  Otherwise the threshold's history, which follows the timing of
    // the worker threads, decides how much freed memory stays resident, and
    // peak_rss_mib on dse_mix swings by 40 MiB between runs of one seed.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const perfbench::run_options options = parse(argc, argv);
    perfbench::report out;
    try {
        if (!options.traced) {
            if (options.workload == "paper_grid") {
                perfbench::paper_grid_e2e(options, out);
            } else if (options.workload == "dse_mix") {
                perfbench::dse_mix_e2e(options, out);
            } else {
                perfbench::fleet_warm_e2e(options, out);
            }
        } else {
            perfbench::tracer spans{true};
            perfbench::paper_grid_ledger(
                options, spans, options.workload == "paper_grid", out);
            perfbench::dse_mix_ledger(options, spans,
                                      options.workload == "dse_mix", out);
            perfbench::fleet_warm_ledger(
                options, spans, options.workload == "fleet_warm", out);
            spans.write_chrome_trace(options.span_path);
            out.note("spans", static_cast<double>(spans.size()));
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                     error.what());
        return 1;
    }
    std::printf("%s\n", out.json(options).c_str());
    return 0;
}
