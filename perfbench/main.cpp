// Repository benchmark program: runs one workload against the real MIE
// serving stack and prints a human-readable table followed, as the last
// line, by one JSON report (`{"report": {...}}`) holding the environment,
// the workload as run, every metric, and the end-state check results.
//
//   perfbench --workload ingest|search|fleet_mixed --seed N --seconds S
//             --trace 0|1 [--state-dir DIR] [--out-dir DIR]
//
// perfbench/run.py builds this program and turns the report into the
// benchmark's result line; see perfbench/README.md for what each
// workload is and why it was chosen.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "exec/exec.hpp"
#include "kernels/kernels.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace fs = std::filesystem;

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Type and mount point of the file system holding `path`, from the
/// longest matching /proc/mounts entry.
std::pair<std::string, std::string> filesystem_of(const fs::path& path) {
    const std::string target = fs::weakly_canonical(path).string();
    std::ifstream mounts("/proc/mounts");
    std::string device, mount, type, rest;
    std::string best_mount, best_type = "unknown";
    while (mounts >> device >> mount >> type && std::getline(mounts, rest)) {
        const bool prefix =
            target.compare(0, mount.size(), mount) == 0 &&
            (mount == "/" || target.size() == mount.size() ||
             target[mount.size()] == '/');
        if (prefix && mount.size() >= best_mount.size()) {
            best_mount = mount;
            best_type = type;
        }
    }
    return {best_type, best_mount};
}

std::string environment_json(const fs::path& state_dir) {
    const auto [fs_type, fs_mount] = filesystem_of(state_dir);
    const char* level_env = std::getenv("MIE_KERNEL_LEVEL");
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream out;
    out << "{\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
        << ",\"mie_kernel_level\":"
        << json_string(mie::kernels::level_name(mie::kernels::active_level()))
        << ",\"mie_kernel_level_env\":"
        << (level_env ? json_string(level_env) : "null")
        << ",\"exec_max_threads\":" << mie::exec::max_threads()
        << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
        << ",\"compiler\":" << json_string(compiler)
        << ",\"state_filesystem\":" << json_string(fs_type)
        << ",\"state_mount\":" << json_string(fs_mount) << "}";
    return out.str();
}

const char* flag(int argc, char** argv, const char* name) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions options;
    const char* workload = flag(argc, argv, "--workload");
    if (workload == nullptr) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--state-dir D] [--out-dir D]\n";
        return 2;
    }
    options.workload = workload;
    if (const char* v = flag(argc, argv, "--seed")) {
        options.seed = std::strtoull(v, nullptr, 10);
    }
    if (const char* v = flag(argc, argv, "--seconds")) {
        options.seconds = std::strtod(v, nullptr);
    }
    if (const char* v = flag(argc, argv, "--trace")) {
        options.trace = std::strcmp(v, "0") != 0;
    }
    const char* state = flag(argc, argv, "--state-dir");
    options.state_dir = state ? state : ".bench_state";
    const char* out = flag(argc, argv, "--out-dir");
    options.out_dir = out ? out : ".bench_out";
    if (options.seconds <= 0.0) {
        std::cerr << "perfbench: --seconds must be positive\n";
        return 2;
    }
    // Every parallel region and exec::TaskGroup runs on its calling thread.
    // TaskGroup::run_slot compares its done count against a total read
    // before later run() calls, so the waiter of a group whose tasks were
    // added while a helper finished can miss its wakeup and hang (seen in
    // MieServer::ranked_search, whose two scoring tasks are added one by
    // one). Width 1 gives a TaskGroup no helpers. Requests still run
    // concurrently on the reactor's pool workers.
    mie::exec::set_max_threads(1);
    options.state_dir /= options.workload + "-" + std::to_string(::getpid());
    fs::remove_all(options.state_dir);
    fs::create_directories(options.state_dir);
    const std::string environment = environment_json(options.state_dir);

    perfbench::RunResult result;
    try {
        result = perfbench::run_workload(options);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << options.workload << " failed: "
                  << e.what() << "\n";
        fs::remove_all(options.state_dir);
        return 1;
    }
    fs::remove_all(options.state_dir);

    std::printf("%s seed=%llu seconds=%g trace=%d  correct=%s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                result.correct ? "yes" : "NO");
    for (const auto& problem : result.problems) {
        std::printf("  CHECK FAILED: %s\n", problem.c_str());
    }
    for (const auto& m : result.metrics) {
        if (std::isfinite(m.value)) {
            std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        } else {
            std::printf("  %-32s %16s %s\n", m.name.c_str(), "n/a",
                        m.unit.c_str());
        }
    }

    std::ostringstream report;
    report << "{\"report\":{\"workload\":" << json_string(options.workload)
           << ",\"seed\":" << options.seed
           << ",\"seconds\":" << json_number(options.seconds)
           << ",\"trace\":" << (options.trace ? 1 : 0)
           << ",\"environment\":" << environment
           << ",\"workload_as_run\":" << result.workload_json
           << ",\"wal_sync_policy\":\"kEveryRecord\""
           << ",\"correct\":" << (result.correct ? "true" : "false")
           << ",\"problems\":[";
    for (std::size_t i = 0; i < result.problems.size(); ++i) {
        report << (i ? "," : "") << json_string(result.problems[i]);
    }
    report << "],\"attempted\":" << result.attempted
           << ",\"failed\":" << result.failed << ",\"trace_file\":"
           << (result.trace_file.empty() ? "null"
                                         : json_string(result.trace_file))
           << ",\"metrics\":{";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto& m = result.metrics[i];
        report << (i ? "," : "") << json_string(m.name)
               << ":{\"value\":" << json_number(m.value)
               << ",\"unit\":" << json_string(m.unit) << "}";
    }
    report << "}}}";
    std::printf("%s\n", report.str().c_str());
    return 0;
}
