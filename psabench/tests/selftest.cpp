// Self-tests of the harness's accounting: the percentile rule, whole-round
// composition, ok_ratio with failed and refused ops, and the expected-file
// comparison. Run with `python3 psabench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench.hpp"
#include "expected.hpp"
#include "stats.hpp"

using namespace psabench;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
    if (!ok) {
        std::printf("FAIL line %d: %s\n", line, what);
        ++failures;
    }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

void percentile_rule() {
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i) ten.push_back(double(11 - i));
    CHECK(percentile(ten, 0.5) == 5.0);
    CHECK(percentile(ten, 0.9) == 9.0);
    CHECK(percentile(ten, 1.0) == 10.0);
    CHECK(std::isnan(percentile({}, 0.5)));

    // At least ten samples strictly beyond the nearest-rank percentile.
    CHECK(samples_beyond(100, 0.9) == 10);
    CHECK(percentile_supported(100, 0.9));
    CHECK(samples_beyond(99, 0.9) == 9);
    CHECK(!percentile_supported(99, 0.9));
    CHECK(percentile_supported(1000, 0.99));
    CHECK(!percentile_supported(999, 0.99));
    CHECK(!percentile_supported(0, 0.5));
}

void whole_round_composition() {
    const std::size_t n = 5;
    std::vector<std::size_t> per_key(n, 0);
    for (std::uint64_t round = 0; round < 40; ++round) {
        const auto order = round_order(7, 0, round, n);
        CHECK(std::set<std::size_t>(order.begin(), order.end()).size() == n);
        for (std::size_t k : order) ++per_key[k];
    }
    CHECK(whole_rounds(per_key));
    ++per_key[2]; // one op of an unfinished round
    CHECK(!whole_rounds(per_key));
    CHECK(!whole_rounds({0, 0, 0}));
    CHECK(!whole_rounds({}));

    // The seed fixes the order; other seeds and streams give other orders.
    CHECK(round_order(7, 0, 3, n) == round_order(7, 0, 3, n));
    bool differs = false;
    for (std::uint64_t round = 0; round < 8; ++round)
        differs = differs || round_order(7, 0, round, n) !=
                                 round_order(8, 0, round, n);
    CHECK(differs);
    differs = false;
    for (std::uint64_t round = 0; round < 8; ++round)
        differs = differs || round_order(7, 1, round, n) !=
                                 round_order(7, 2, round, n);
    CHECK(differs);
}

void ok_ratio_accounting() {
    OpLog log;
    for (int i = 1; i <= 8; ++i) log.record(OpStatus::Ok, double(i));
    log.record(OpStatus::Failed, 0.5);
    log.record(OpStatus::Refused, 0.1);
    CHECK(log.attempted() == 10);
    CHECK(log.correct() == 8);
    CHECK(log.failed() == 2);
    CHECK(log.ok_ratio() == 0.8);
    // Failed and refused ops miss every latency limit, however fast the
    // refusal came back.
    CHECK(log.percentile(0.5) == 5.0);
    CHECK(log.percentile(0.9) == kMissed);

    Result result;
    add_end_to_end(result, {0.3, 0.1, 0.2}, log, 2.0, 10.0);
    CHECK(result.attempted == 10);
    CHECK(result.failed == 2);
    const char* names[] = {"setup_s", "ops_per_s", "ok_ratio"};
    const double values[] = {0.2, 4.0, 0.8};
    for (int i = 0; i < 3; ++i) {
        bool found = false;
        for (const Metric& m : result.metrics)
            if (m.name == names[i]) found = m.value == values[i];
        CHECK(found);
    }
    CHECK(result.metrics.size() == 6);

    OpLog other;
    other.record(OpStatus::Ok, 1.0);
    log.merge(other);
    CHECK(log.attempted() == 11 && log.correct() == 9);
}

void expected_comparison() {
    CHECK(digest("") == "cbf29ce484222325-0");
    CHECK(digest("a") == "af63dc4c8601ec8c-1");
    PoolKey key;
    key.app = "demo";
    key.files["demo.cpp"] = digest("int x;\n");
    CHECK(!check_sources(key, {{"demo.cpp", "int x;\n"}}).has_value());
    CHECK(check_sources(key, {{"demo.cpp", "int y;\n"}}).has_value());
    CHECK(check_sources(key, {{"other.cpp", "int x;\n"}}).has_value());
    CHECK(check_sources(key, {}).has_value());
    CHECK(check_sources(key, {{"demo.cpp", "int x;\n"}, {"b.cpp", ""}})
              .has_value());
}

} // namespace

int main() {
    percentile_rule();
    whole_round_composition();
    ok_ratio_accounting();
    expected_comparison();
    if (failures == 0) std::printf("psabench self-tests: all passed\n");
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
