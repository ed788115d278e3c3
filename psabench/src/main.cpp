// psabench — the psaflow benchmark harness. See psabench/README.md.
//
//   psabench --workload cold_compile|warm_serve|routed_warm --seed <n>
//            --seconds <s> --trace 0|1 --bin-dir <build> --expected <file>
//            [--work-dir <dir>]
//   psabench --check-expected <file> --bin-dir <build>
//   psabench --record-expected <file> --bin-dir <build>
//
// The last line of a workload run is one JSON object: correct, attempted,
// failed and metrics (each {"value", "unit"}). --trace 0 reports the
// end-to-end metrics of the workload; --trace 1 runs the traced passes and
// reports the per-layer metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "bench.hpp"
#include "proc.hpp"
#include "support/json.hpp"

namespace fs = std::filesystem;
namespace json = psaflow::json;
using namespace psabench;

namespace {

/// A run that has not printed its result by now is killed by SIGALRM; the
/// children die with it (PR_SET_PDEATHSIG).
constexpr unsigned kWatchdogSeconds = 170;

int usage() {
    std::cerr
        << "usage: psabench --workload cold_compile|warm_serve|routed_warm "
           "--seed <n> --seconds <s> --trace 0|1\n"
           "                --bin-dir <build> --expected <file> "
           "[--work-dir <dir>]\n"
           "       psabench --check-expected <file> --bin-dir <build>\n"
           "       psabench --record-expected <file> --bin-dir <build>\n";
    return 2;
}

Result run_traced(const Config& config) {
    // Every traced run measures every layer, each on the workload that
    // exercises it (README "Per-layer metrics"); trace.overhead_ratio
    // belongs to the workload the run was asked for.
    const double seconds = config.seconds / 3.0;
    Layers cold = trace_cold(config, seconds);
    Layers warm = trace_serving(config, seconds, false);
    Layers routed = trace_serving(config, seconds, true);

    Result result;
    for (const Result* pass : {&cold.result, &warm.result, &routed.result}) {
        result.absorb(*pass);
        result.metrics.insert(result.metrics.end(), pass->metrics.begin(),
                              pass->metrics.end());
    }
    const double ratio = config.workload == "cold_compile" ? cold.overhead_ratio
                         : config.workload == "warm_serve"
                             ? warm.overhead_ratio
                             : routed.overhead_ratio;
    result.add("trace.overhead_ratio", "ratio", ratio);
    return result;
}

int check_or_record(const std::string& path, const std::string& bin_dir,
                    const std::string& work_dir, bool record) {
    std::string error;
    auto fresh = record_fresh(bin_dir + "/psaflowc", work_dir, &error);
    if (!fresh.has_value()) {
        std::cerr << "psabench: " << error << "\n";
        return 1;
    }
    std::string load_error;
    const auto current = load_expected(path, &load_error);
    if (record) {
        // Shard names and their reason are chosen by hand; keep them.
        if (current.has_value()) {
            fresh->shards = current->shards;
            fresh->shard_reason = current->shard_reason;
        } else {
            fresh->shards = {"a", "b"};
        }
        std::ofstream(path) << to_json_text(*fresh);
        std::cout << "psabench: recorded " << fresh->keys.size()
                  << " keys into " << path << "\n";
        return 0;
    }
    if (!current.has_value()) {
        std::cerr << "psabench: " << load_error << "\n";
        return 1;
    }
    int mismatches = 0;
    for (const PoolKey& key : current->keys) {
        const PoolKey* got = nullptr;
        for (const PoolKey& f : fresh->keys)
            if (f.app == key.app) got = &f;
        if (got == nullptr || got->files != key.files ||
            got->interp_runs != key.interp_runs ||
            got->cas_writes != key.cas_writes) {
            std::cout << "MISMATCH " << key.app << "\n";
            ++mismatches;
        } else {
            std::cout << "ok " << key.app << ": " << key.files.size()
                      << " design file(s), interp.runs " << key.interp_runs
                      << ", cas.writes " << key.cas_writes << "\n";
        }
    }
    return mismatches == 0 ? 0 : 1;
}

json::Value metric_value(const Metric& m) {
    json::Value v = json::Value::object();
    // JSON has no NaN or infinity; such a value only arises in a run that
    // is already marked incorrect.
    v.set("value", json::Value::number(std::isfinite(m.value) ? m.value : -1));
    v.set("unit", json::Value::string(m.unit));
    return v;
}

} // namespace

int main(int argc, char** argv) {
    Config config;
    std::string expected_path;
    std::string work_root = ".bench_work";
    std::string check_path;
    std::string record_path;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            config.workload = value;
        } else if (flag == "--seed") {
            config.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') return usage();
        } else if (flag == "--seconds") {
            config.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(config.seconds > 0.0)) return usage();
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return usage();
            config.trace = value == "1";
        } else if (flag == "--bin-dir") {
            config.bin_dir = value;
        } else if (flag == "--expected") {
            expected_path = value;
        } else if (flag == "--work-dir") {
            work_root = value;
        } else if (flag == "--check-expected") {
            check_path = value;
        } else if (flag == "--record-expected") {
            record_path = value;
        } else {
            return usage();
        }
    }
    if (config.bin_dir.empty()) return usage();
    config.work_dir = work_root + "/" + std::to_string(::getpid());
    fs::remove_all(config.work_dir);
    fs::create_directories(config.work_dir);

    if (!check_path.empty() || !record_path.empty()) {
        const int rc = check_or_record(
            record_path.empty() ? check_path : record_path, config.bin_dir,
            config.work_dir, !record_path.empty());
        fs::remove_all(config.work_dir);
        return rc;
    }

    if (!have_seconds || expected_path.empty() ||
        (config.workload != "cold_compile" &&
         config.workload != "warm_serve" && config.workload != "routed_warm"))
        return usage();
    std::string error;
    auto expected = load_expected(expected_path, &error);
    if (!expected.has_value()) {
        std::cerr << "psabench: " << error << "\n";
        return 1;
    }
    config.expected = std::move(*expected);
    ::alarm(kWatchdogSeconds);

    const HostInfo host = host_info();
    const double probe_start = host_probe_ms();
    Result result = config.trace ? run_traced(config)
                    : config.workload == "cold_compile"
                        ? run_cold(config)
                        : run_serving(config, config.workload == "routed_warm");
    const double probe_end = host_probe_ms();
    fs::remove_all(config.work_dir);
    if (result.attempted == 0) {
        // A run whose set-up failed counts as one failed attempt.
        result.problem("no op was attempted");
        result.attempted = 1;
        result.failed = 1;
    }

    json::Value host_doc = json::Value::object();
    host_doc.set("nproc", json::Value::number(double(host.nproc)));
    host_doc.set("build_type", json::Value::string(host.build_type));
    host_doc.set("compiler", json::Value::string(host.compiler));
    host_doc.set("host.probe_ms_start", json::Value::number(probe_start));
    host_doc.set("host.probe_ms_end", json::Value::number(probe_end));
    std::cout << "psabench: workload " << config.workload << ", seed "
              << config.seed << ", " << config.seconds << " s, trace "
              << (config.trace ? 1 : 0) << "\n"
              << "host: " << json::dump(host_doc) << "\n";
    for (const std::string& note : result.notes)
        std::cout << "note: " << note << "\n";
    for (const std::string& problem : result.problems)
        std::cout << "problem: " << problem << "\n";
    for (const Metric& m : result.metrics) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-30s %14.6g %s\n", m.name.c_str(),
                      m.value, m.unit.c_str());
        std::cout << line;
    }

    json::Value metrics = json::Value::object();
    for (const Metric& m : result.metrics) metrics.set(m.name, metric_value(m));
    json::Value doc = json::Value::object();
    doc.set("correct", json::Value::boolean(result.correct));
    doc.set("attempted", json::Value::number(double(result.attempted)));
    doc.set("failed", json::Value::number(double(result.failed)));
    doc.set("metrics", std::move(metrics));
    std::cout << json::dump(doc) << std::endl;
    return 0;
}
