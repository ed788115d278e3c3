#include "bench.hpp"

namespace psabench {

void Result::absorb(const Result& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (!other.correct) correct = false;
    for (const std::string& p : other.problems) problem(p);
    notes.insert(notes.end(), other.notes.begin(), other.notes.end());
}

void add_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const OpLog& ops, double window_s, double peak_rss_mb) {
    result.attempted = ops.attempted();
    result.failed = ops.failed();
    if (ops.attempted() == 0) result.problem("no op was attempted");
    if (!percentile_supported(ops.attempted(), 0.9))
        result.notes.push_back(
            "latency_ms_p90 rests on fewer than ten samples beyond it (" +
            std::to_string(ops.attempted()) + " ops)");
    result.add("setup_s", "s", median(setup_s));
    result.add("latency_ms_p50", "ms", ops.percentile(0.5));
    result.add("latency_ms_p90", "ms", ops.percentile(0.9));
    result.add("ops_per_s", "1/s", double(ops.correct()) / window_s);
    result.add("ok_ratio", "ratio", ops.ok_ratio());
    result.add("peak_rss_mb", "MB", peak_rss_mb);
}

} // namespace psabench
