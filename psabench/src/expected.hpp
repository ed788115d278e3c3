// The expected file (psabench/expected.json): for every key in the request
// pool, the digest of each design file a first compile writes, and the
// counters that first compile reports in a fresh process. Recorded once
// from fresh `psaflowc --app` processes; every op of every workload is
// checked against it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace psabench {

struct PoolKey {
    std::string app;
    /// Design file name -> digest (see digest()).
    std::map<std::string, std::string> files;
    /// A first compile in a fresh process: interp.runs and cas.writes.
    std::uint64_t interp_runs = 0;
    std::uint64_t cas_writes = 0;
};

struct Expected {
    std::vector<PoolKey> keys;
    std::vector<std::string> shards; ///< shard names of routed_warm
    std::string shard_reason;        ///< why these names (recorded skew)
};

/// FNV-1a 64 of the bytes plus their length, as "<16 hex>-<length>".
[[nodiscard]] std::string digest(std::string_view bytes);

/// Load and validate the expected file; nullopt + `*error` on failure.
[[nodiscard]] std::optional<Expected> load_expected(const std::string& path,
                                                    std::string* error);

/// Compare design sources (file name -> content) with `key`. Returns a
/// description of the first mismatch, or nullopt when every file matches
/// and no file is missing or extra.
[[nodiscard]] std::optional<std::string>
check_sources(const PoolKey& key,
              const std::map<std::string, std::string>& files);

/// Read the design files `names` from `dir` and compare them with `key`.
[[nodiscard]] std::optional<std::string>
check_files(const PoolKey& key, const std::string& dir,
            const std::vector<std::string>& names);

/// Run a fresh `psaflowc --app <app> --jobs 1` per bundled application
/// (fresh process, fresh cache directory under `work_dir`) and collect
/// each one's design digests and counters. Shard fields stay empty.
[[nodiscard]] std::optional<Expected>
record_fresh(const std::string& psaflowc, const std::string& work_dir,
             std::string* error);

/// The expected file's JSON text.
[[nodiscard]] std::string to_json_text(const Expected& expected);

} // namespace psabench
