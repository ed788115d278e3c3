// What every workload shares: the run configuration, the result each run
// prints, and the end-to-end metric set.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "expected.hpp"
#include "stats.hpp"

namespace psabench {

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string bin_dir;  ///< build tree holding psaflowd, psaflow-router
    std::string work_dir; ///< this run's scratch directory (relative)
    Expected expected;
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Result {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems; ///< why `correct` is false
    std::vector<std::string> notes;    ///< context printed before the result

    /// Mark the run incorrect; the first few reasons are kept.
    void problem(std::string what) {
        correct = false;
        if (problems.size() < 10) problems.push_back(std::move(what));
    }
    void add(std::string name, std::string unit, double value) {
        metrics.push_back({std::move(name), std::move(unit), value});
    }
    /// Fold another pass's op accounting and problems into this result.
    void absorb(const Result& other);
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// The fastest of `reps` calls of `fn`, in ms: a probe's cost on a quiet
/// host.
template <typename Fn>
double min_ms(int reps, Fn&& fn) {
    double best = kMissed;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        fn();
        const double ms = ms_since(start);
        best = ms < best ? ms : best;
    }
    return best;
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order:
/// setup_s, latency_ms_p50, latency_ms_p90, ops_per_s, ok_ratio,
/// peak_rss_mb. Also fills attempted/failed from `ops`.
void add_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const OpLog& ops, double window_s, double peak_rss_mb);

/// End-to-end runs.
[[nodiscard]] Result run_cold(const Config& config);
[[nodiscard]] Result run_serving(const Config& config, bool routed);

/// A traced pass of one workload (see README "Per-layer metrics"): its
/// ops, problems and per-layer metrics, and traced over untraced p50.
struct Layers {
    Result result;
    double overhead_ratio = 0.0;
};
/// Each pass gets `seconds` of ops.
[[nodiscard]] Layers trace_cold(const Config& config, double seconds);
[[nodiscard]] Layers trace_serving(const Config& config, double seconds,
                                   bool routed);

} // namespace psabench
