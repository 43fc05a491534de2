/**
 * @file
 * perfbench: the repository benchmark's one binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--inject-mismatch]
 *
 * Workloads: doc-events, doc-skips, ndjson-fanout, serve-mixed (see
 * perfbench/README.md). With --trace 0 the last stdout line carries the
 * end-to-end metrics; with --trace 1 the per-layer metrics. Every output
 * is checked against an oracle; a failed or mismatched operation makes
 * the run report correct=false and exit 1.
 */
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Result;

void usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload doc-events|doc-skips|ndjson-fanout|"
                 "serve-mixed --seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--inject-mismatch]\n");
}

bool parse_args(int argc, char** argv, Options& options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char*& out) {
            if (i + 1 >= argc) {
                return false;
            }
            out = argv[++i];
            return true;
        };
        const char* text = nullptr;
        if (arg == "--workload" && value(text)) {
            options.workload = text;
        } else if (arg == "--seed" && value(text)) {
            options.seed = std::strtoull(text, nullptr, 10);
        } else if (arg == "--seconds" && value(text)) {
            options.seconds = std::strtod(text, nullptr);
        } else if (arg == "--trace" && value(text)) {
            options.trace = std::strcmp(text, "0") != 0;
        } else if (arg == "--out-dir" && value(text)) {
            options.out_dir = text;
        } else if (arg == "--inject-mismatch") {
            options.inject_mismatch = true;
        } else {
            return false;
        }
    }
    return !options.workload.empty() && options.seconds > 0;
}

std::string metrics_json(const Result& result)
{
    std::ostringstream out;
    out.precision(10);
    out << "{";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric& metric = result.metrics[i];
        out << (i == 0 ? "" : ", ") << "\"" << metric.name
            << "\": {\"value\": " << metric.value << ", \"unit\": \""
            << metric.unit << "\"}";
    }
    out << "}";
    return out.str();
}

}  // namespace

int main(int argc, char** argv)
{
    Options options;
    if (!parse_args(argc, argv, options)) {
        usage();
        return 2;
    }
    ::mkdir(options.out_dir.c_str(), 0755);

    const std::string env = perfbench::environment_json();
    std::printf("perfbench env %s\n", env.c_str());
    if (!perfbench::release_build()) {
        std::printf("perfbench WARNING: non-Release build, numbers are not "
                    "comparable\n");
    }
    std::fflush(stdout);

    Result result;
    try {
        if (options.workload == "doc-events") {
            result = perfbench::run_doc_workload(options, /*skip_bound=*/false);
        } else if (options.workload == "doc-skips") {
            result = perfbench::run_doc_workload(options, /*skip_bound=*/true);
        } else if (options.workload == "ndjson-fanout") {
            result = perfbench::run_ndjson_workload(options);
        } else if (options.workload == "serve-mixed") {
            result = perfbench::run_serve_workload(options);
        } else {
            usage();
            return 2;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
    if (result.attempted == 0) {
        std::fprintf(stderr, "perfbench: no operation was attempted\n");
        return 1;
    }
    const bool correct = result.failed == 0;

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    for (const perfbench::Metric& metric : result.metrics) {
        std::printf("  %-34s %14.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    std::printf("  %-34s %14.6g %s (%llu failed / %llu attempted)\n",
                "error_rate", result.error_rate(), "ratio",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));

    const std::string metrics = metrics_json(result);
    const std::string record_path = options.out_dir + "/result-" +
                                    options.workload + "-seed" +
                                    std::to_string(options.seed) + "-trace" +
                                    (options.trace ? "1" : "0") + ".json";
    std::ofstream record(record_path);
    record << "{\"workload\": \"" << options.workload
           << "\", \"seed\": " << options.seed << ", \"trace\": "
           << (options.trace ? 1 : 0) << ", \"env\": " << env
           << ", \"error_rate\": " << result.error_rate()
           << ", \"metrics\": " << metrics << "}\n";

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    return correct ? 0 : 1;
}
