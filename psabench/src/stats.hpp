// Sample accounting shared by every workload: the op log (correct, failed
// and refused ops), nearest-rank percentiles with the "ten samples beyond"
// rule, and the seeded whole-round order the closed loops walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace psabench {

/// Latency recorded for an op that failed or was refused: it counts as
/// missing every latency limit, so it sorts after every real sample.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

enum class OpStatus {
    Ok,      ///< completed, and its output matched the expected file
    Failed,  ///< transport error, error response or wrong output
    Refused, ///< the server answered "overloaded"
};

/// Every op one run attempted.
class OpLog {
public:
    void record(OpStatus status, double latency_ms);
    void merge(const OpLog& other);

    [[nodiscard]] std::size_t attempted() const { return samples_.size(); }
    [[nodiscard]] std::size_t correct() const { return correct_; }
    [[nodiscard]] std::size_t failed() const { return attempted() - correct_; }
    /// Correct ops over attempted ops (0 when nothing was attempted).
    [[nodiscard]] double ok_ratio() const;
    /// Nearest-rank percentile over every attempted op; failed and refused
    /// ops take part as kMissed.
    [[nodiscard]] double percentile(double q) const;

private:
    std::vector<double> samples_;
    std::size_t correct_ = 0;
};

/// Nearest-rank percentile (q in (0, 1]) of `samples`, which need not be
/// sorted: the value at rank ceil(q * n). NaN when `samples` is empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// How many of n samples lie strictly beyond the nearest-rank q-percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// A percentile is reported only when at least ten samples lie beyond it.
[[nodiscard]] bool percentile_supported(std::size_t n, double q);

/// Median of `values` (mean of the middle two for an even count).
[[nodiscard]] double median(std::vector<double> values);

/// The keys of round `round` in their seeded order: a Fisher-Yates
/// permutation of 0..n-1 drawn from (seed, stream, round), so every key runs
/// exactly once per round and the same seed gives the same order.
[[nodiscard]] std::vector<std::size_t> round_order(std::uint64_t seed,
                                                   std::uint64_t stream,
                                                   std::uint64_t round,
                                                   std::size_t n);

/// True when `per_key` (ops counted per key) describes whole rounds: every
/// key ran, and equally often.
[[nodiscard]] bool whole_rounds(const std::vector<std::size_t>& per_key);

} // namespace psabench
