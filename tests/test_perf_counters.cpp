// Deterministic work counters of each app's first compile, pinned exactly.
// A first compile with empty caches always does the same work: the same
// interpreter runs of the same step counts, the same profile-cache misses
// and the same CAS writes. An extra interpretation, a changed charge or a
// lost cache hit changes a number here and fails without any timing. Wall
// time is measured by psabench, never gated here.
//
// When a change alters these counts on purpose, update the table and say
// why in CHANGES.md; psabench/expected.json pins interp.runs and cas.writes
// per app as well.
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/profile_cache.hpp"
#include "apps/apps.hpp"
#include "core/psaflow.hpp"
#include "support/cas/cas.hpp"
#include "support/trace.hpp"

namespace psaflow {
namespace {

namespace fs = std::filesystem;

struct Pinned {
    const char* app;
    std::uint64_t interp_runs;
    std::uint64_t interp_steps;
    std::uint64_t profile_cache_misses;
    std::uint64_t cas_writes;
};

// app, interp.runs, interp.steps, profile_cache.misses, cas.writes
constexpr Pinned kPinned[] = {
    {"rushlarsen", 3, 9088356, 3, 5},
    {"nbody", 5, 3461060, 5, 7},
    {"bezier", 5, 6675352, 5, 7},
    {"adpredictor", 5, 717331, 5, 7},
    {"kmeans", 5, 8955954, 5, 6},
};

class FirstCompileCounters : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("psaflow-perf-counters-" + std::to_string(::getpid()));
        fs::remove_all(dir_);
        flow::SessionOptions options;
        options.jobs = 1; // what a psaflowd worker runs with
        options.cache_dir = (dir_ / "cas").string();
        session_ = std::make_unique<flow::FlowSession>(options);
    }

    void TearDown() override {
        session_.reset();
        fs::remove_all(dir_);
    }

    /// Counters of one compile that starts from empty process-wide caches.
    std::map<std::string, std::uint64_t> first_compile(
        const apps::Application& app) {
        analysis::ProfileCache::global().clear();
        if (cas::CasStore* store = cas::store()) store->clear();
        trace::Registry registry;
        {
            trace::ScopedRegistry scope(registry);
            (void)psaflow::compile(*session_, app);
        }
        return registry.counters();
    }

    fs::path dir_;
    std::unique_ptr<flow::FlowSession> session_;
};

std::uint64_t get(const std::map<std::string, std::uint64_t>& counters,
                  const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

/// The pinned counters of one compile (the rest include wall time).
Pinned work(const char* app,
            const std::map<std::string, std::uint64_t>& counters) {
    return Pinned{app, get(counters, "interp.runs"),
                  get(counters, "interp.steps"),
                  get(counters, "profile_cache.misses"),
                  get(counters, "cas.writes")};
}

void expect_equal(const Pinned& got, const Pinned& want) {
    EXPECT_EQ(got.interp_runs, want.interp_runs) << "interp.runs";
    EXPECT_EQ(got.interp_steps, want.interp_steps) << "interp.steps";
    EXPECT_EQ(got.profile_cache_misses, want.profile_cache_misses)
        << "profile_cache.misses";
    EXPECT_EQ(got.cas_writes, want.cas_writes) << "cas.writes";
}

TEST_F(FirstCompileCounters, MatchPinnedValuesForEveryApp) {
    ASSERT_EQ(std::size(kPinned), apps::all_applications().size());
    for (const Pinned& want : kPinned) {
        SCOPED_TRACE(want.app);
        expect_equal(
            work(want.app,
                 first_compile(apps::application_by_name(want.app))),
            want);
    }
}

TEST_F(FirstCompileCounters, RepeatAcrossCompilesInOneProcess) {
    // The same first compile twice in a row: the fixture really empties
    // every cache, so the second is as cold as the first.
    const auto& app = apps::kmeans();
    const Pinned first = work("kmeans", first_compile(app));
    expect_equal(work("kmeans", first_compile(app)), first);
}

} // namespace
} // namespace psaflow
