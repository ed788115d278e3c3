// psaflowd's whole-flow result memo: a bounded, in-memory LRU of what a
// successful compile produced, keyed on everything the flow consumes.
//
// Without it a warm daemon request re-runs the flow although no input
// changed (characterisation on a profile-cache hit, the tasks, DSE, then
// one design-artifact CAS read per design). With a memo, execute_request
// (serve/service.hpp) looks the request up first; a hit skips compile()
// entirely and replays the stored products through the same write loop a
// fresh compile uses, so the design files and summary CSV land in the
// request's own out_dir byte for byte as a fresh compile would write them.
//
// Key: app, mode, budget and threshold_x (as exact bits), flow_json and a
// payload version. Where the output goes (out_dir) and how the request is
// scheduled (deadline_ms, priority, trace members) are not part of it.
//
// Only successful outcomes are stored. Memory is capped by the estimated
// bytes of the stored entries (kDefaultCapacityBytes, no flag or
// environment knob); inserting past the cap evicts least-recently-used
// entries first. The memo is per process and does not survive a restart.
// Thread-safe: one memo is shared by all of a daemon's workers. Two
// concurrent misses on one key may both compute; the second insert keeps
// the first entry (the values are equal by the determinism contract).
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/decision.hpp"
#include "serve/request.hpp"

namespace psaflow::serve {

/// One generated design, as reported back to the client.
struct DesignRow {
    std::string name;
    std::string target;
    std::string device;
    bool synthesizable = false;
    double hotspot_seconds = 0.0;
    double speedup = 0.0;
    double loc_delta = 0.0;
    std::string filename;
};

/// What a successful compile produced, independent of where it is
/// written: the design rows with their source text (sources[i] is the
/// content of designs[i].filename), the summary CSV text and the flow's
/// decision records.
struct FlowProducts {
    std::vector<DesignRow> designs;
    std::vector<std::string> sources;
    std::string summary_csv;
    std::vector<obs::DecisionRecord> decisions;
    double best_speedup = 0.0;
    double reference_seconds = 0.0;
};

class ResultMemo {
public:
    static constexpr std::size_t kDefaultCapacityBytes = 32u << 20;

    /// `capacity_bytes` is a constructor argument so tests can exercise
    /// eviction; psaflowd always uses the default.
    explicit ResultMemo(std::size_t capacity_bytes = kDefaultCapacityBytes);

    ResultMemo(const ResultMemo&) = delete;
    ResultMemo& operator=(const ResultMemo&) = delete;

    /// The memo key of `req` (see header comment). Requests that differ
    /// only in out_dir, deadline_ms, priority or trace share a key.
    [[nodiscard]] static std::string key_of(const CompileRequest& req);

    /// The stored products for `key`, marking the entry most recently
    /// used; null on a miss.
    [[nodiscard]] std::shared_ptr<const FlowProducts>
    lookup(const std::string& key);

    /// Store `products` under `key`, evicting least-recently-used entries
    /// until the total fits the cap. An entry larger than the whole cap is
    /// not stored; an existing entry for `key` is kept.
    void insert(const std::string& key,
                std::shared_ptr<const FlowProducts> products);

    [[nodiscard]] std::size_t entries() const;
    [[nodiscard]] std::size_t bytes() const;
    [[nodiscard]] std::size_t capacity_bytes() const { return capacity_; }

    /// The bytes an entry is charged against the cap: its key, strings and
    /// containers, estimated from their sizes.
    [[nodiscard]] static std::size_t
    entry_bytes(const std::string& key, const FlowProducts& products);

private:
    struct Entry {
        std::string key;
        std::shared_ptr<const FlowProducts> products;
        std::size_t bytes = 0;
    };

    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< most recently used first
    /// Keys view the Entry::key of the list node they point at.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
    std::size_t bytes_ = 0;
};

} // namespace psaflow::serve
