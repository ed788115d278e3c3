#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace psabench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t nearest_rank(std::size_t n, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * double(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

void OpLog::record(OpStatus status, double latency_ms) {
    if (status == OpStatus::Ok) {
        ++correct_;
        samples_.push_back(latency_ms);
    } else {
        samples_.push_back(kMissed);
    }
}

void OpLog::merge(const OpLog& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    correct_ += other.correct_;
}

double OpLog::ok_ratio() const {
    return samples_.empty() ? 0.0 : double(correct_) / double(attempted());
}

double OpLog::percentile(double q) const {
    return psabench::percentile(samples_, q);
}

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return std::nan("");
    const std::size_t rank = nearest_rank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + long(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
    return samples_beyond(n, q) >= 10;
}

double median(std::vector<double> values) {
    if (values.empty()) return std::nan("");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<std::size_t> round_order(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t round, std::size_t n) {
    std::uint64_t state = seed;
    state ^= splitmix64(state) + stream;
    state ^= splitmix64(state) + round;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[splitmix64(state) % i]);
    return order;
}

bool whole_rounds(const std::vector<std::size_t>& per_key) {
    if (per_key.empty() || per_key.front() == 0) return false;
    return std::all_of(per_key.begin(), per_key.end(),
                       [&](std::size_t c) { return c == per_key.front(); });
}

} // namespace psabench
