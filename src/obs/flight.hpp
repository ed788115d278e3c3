// Flight recorder: a bounded lock-free ring of per-request digests.
//
// Every completed request — daemon compiles and sleeps, router relays,
// psaflowc single-shot/batch runs — drops one fixed-size FlightRecord
// into the ring: trace id, lane, shard, timings (queue wait / execute /
// total), retries, cache hits, the decision winner and the terminal
// status. The ring answers "why was *this* request slow" after the fact:
// dump it over the wire with {"type":"flight"} (psaflow-client --flight),
// and when a request breaches the configured latency SLO its digest is
// auto-snapshotted to the structured log (obs::warn) the moment it
// completes, so the evidence survives even after the ring wraps.
//
// Concurrency: writers claim a slot with one fetch_add and publish
// through a per-slot seqlock (version odd while a write is in flight);
// the record payload lives in atomic words, so concurrent writers that
// lap the ring and concurrent readers are race-free (tsan-clean) — a
// writer that catches a slot mid-write drops its record (counted) rather
// than blocking, and a reader that observes a version change mid-copy
// discards the torn snapshot. Steady-state cost per request is one
// record copy; there is no lock anywhere on the record path.
//
// Knobs: PSAFLOW_SLO_MS seeds the SLO threshold (0/unset = disabled;
// psaflowd --slo-ms overrides), PSAFLOW_FLIGHT_CAPACITY sizes the global
// ring (default 256 records).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace psaflow::obs {

/// One request's digest. Fixed-size (inline char fields, truncating
/// writes) so a record fits in a handful of atomic words and the ring
/// never allocates after construction.
struct FlightRecord {
    std::uint64_t trace_id = 0;      ///< 0 when the request was untraced
    std::uint64_t seq = 0;           ///< stamped by the recorder (1-based)
    std::uint64_t queue_wait_us = 0; ///< admission-queue wait
    std::uint64_t exec_us = 0;       ///< execution wall clock
    std::uint64_t total_us = 0;      ///< queue + execute
    std::uint32_t retries = 0;       ///< relay attempts beyond the first
    std::uint32_t cache_hits = 0;    ///< CAS, profile-cache and memo hits
    std::uint64_t slo_breach = 0;    ///< 1 when total_us exceeded the SLO
    char lane[16] = {};              ///< "interactive" | "batch" | ""
    char shard[32] = {};             ///< serving shard ("host:port" | name)
    char app[24] = {};               ///< compile app / request type
    char winner[32] = {};            ///< decision winner (first branch)
    char status[16] = {};            ///< "ok" | error kind

    void set_lane(std::string_view v) { assign(lane, sizeof lane, v); }
    void set_shard(std::string_view v) { assign(shard, sizeof shard, v); }
    void set_app(std::string_view v) { assign(app, sizeof app, v); }
    void set_winner(std::string_view v) { assign(winner, sizeof winner, v); }
    void set_status(std::string_view v) { assign(status, sizeof status, v); }

private:
    static void assign(char* dst, std::size_t n, std::string_view src) {
        std::memset(dst, 0, n);
        std::memcpy(dst, src.data(), std::min(src.size(), n - 1));
    }
};

class FlightRecorder {
public:
    static constexpr std::size_t kDefaultCapacity = 256;

    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

    /// The process-wide recorder (capacity from PSAFLOW_FLIGHT_CAPACITY).
    [[nodiscard]] static FlightRecorder& global();

    /// Latency SLO in microseconds; 0 disables breach detection.
    /// Constructed from PSAFLOW_SLO_MS (milliseconds).
    void set_slo_us(std::uint64_t us);
    [[nodiscard]] std::uint64_t slo_us() const;

    /// Record one completed request (stamps rec.seq; flags + logs an SLO
    /// breach). Lock-free; may drop the record when another writer holds
    /// the claimed slot mid-write (counted in dropped()).
    void record(FlightRecord rec);

    /// Consistent copies of the live records, oldest-first by seq; at most
    /// `max_records` of the newest when max_records > 0. Lock-free.
    [[nodiscard]] std::vector<FlightRecord>
    snapshot(std::size_t max_records = 0) const;

    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
    /// Records accepted since construction/clear (including overwritten).
    [[nodiscard]] std::uint64_t total() const;
    /// Records dropped on writer-writer slot collisions.
    [[nodiscard]] std::uint64_t dropped() const;
    /// Requests that breached the SLO.
    [[nodiscard]] std::uint64_t breaches() const;

    /// Reset to empty (test helper; callers must be quiescent).
    void clear();

private:
    // Record payload as whole atomic words: sized so a FlightRecord
    // round-trips through memcpy.
    static constexpr std::size_t kWords =
        (sizeof(FlightRecord) + sizeof(std::uint64_t) - 1) /
        sizeof(std::uint64_t);
    struct Slot {
        std::atomic<std::uint64_t> version{0}; ///< odd = write in flight
        std::atomic<std::uint64_t> words[kWords];
    };

    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> next_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> breaches_{0};
    std::atomic<std::uint64_t> slo_us_{0};
};

/// One record as a JSON object (trace_id as 16-hex, timings in
/// microseconds) — the "records" entries of a flight response.
[[nodiscard]] json::Value to_json(const FlightRecord& record);

} // namespace psaflow::obs
