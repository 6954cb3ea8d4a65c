/// \file main.cpp
/// \brief perfbench: the paper's workloads timed end to end.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///   perfbench --selftest [--seed <n>]
///
/// Workloads: cfpq-table4, rpq-fig2, square-e1, rpq-churn (see README.md).
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --selftest [--seed <n>]\n"
                 "workloads:");
    for (const auto& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opts;
    // The pool is fixed at two workers (fewer on a smaller host): on the
    // 4-core reference host two workers beat four on cfpq-table4.
    opts.pool_size = std::min<std::size_t>(2, std::max(1u, std::thread::hardware_concurrency()));
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest") {
            selftest = true;
        } else if (arg == "--workload" && has_value) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opts.trace = std::string{argv[++i]} == "1";
        } else {
            return usage();
        }
    }
    try {
        if (selftest) return perfbench::run_selftest(opts);
        if (!perfbench::make_workload(opts.workload) || !(opts.seconds > 0.0)) return usage();
        return perfbench::run_benchmark(opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
