// The benchmark's three workloads against the real serving stack.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path state_dir;  ///< server state directories
    std::filesystem::path out_dir;    ///< trace files
};

/// One reported number. NaN marks a metric that does not apply to the
/// workload (printed as null).
struct Metric {
    std::string name;
    double value = std::numeric_limits<double>::quiet_NaN();
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::vector<std::string> problems;  ///< failed end-state checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// JSON object describing the workload as run (threads, sizes, rate).
    std::string workload_json;
    std::string trace_file;

    void check(bool ok, const std::string& what) {
        if (!ok) {
            correct = false;
            problems.push_back(what);
        }
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back(Metric{std::move(name), value, std::move(unit)});
    }
};

/// Runs `options.workload`; throws std::invalid_argument for an unknown
/// workload name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
