// The request executor shared by every entry point.
//
// `execute_request` is the single code path that turns a CompileRequest
// into designs on disk: the daemon's warm workers, `psaflowc --batch` and
// the single-app CLI all call it, so a request behaves identically however
// it arrives (satellite: the batch driver and the daemon cannot drift).
//
// Each call runs under a private trace::Registry installed as the calling
// thread's sink, so the outcome carries exactly this request's counters and
// task spans — concurrent requests in one daemon process cannot bleed
// metrics into each other — and the private registry is then folded into
// `merge_into` (typically trace::Registry::global()) so process-wide totals
// such as `--trace-out` keep accumulating.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/session.hpp"
#include "obs/decision.hpp"
#include "serve/request.hpp"
#include "serve/result_memo.hpp"
#include "support/cancel.hpp"
#include "support/trace.hpp"

namespace psaflow::serve {

struct CompileOutcome {
    bool ok = false;
    ErrorKind error_kind = ErrorKind::None;
    std::string error;

    std::size_t design_count = 0;
    double best_speedup = 0.0;
    double reference_seconds = 0.0;
    std::string summary_path;
    std::vector<DesignRow> designs;

    std::uint64_t wall_us = 0; ///< execute_request wall clock
    /// This request's counters and task spans only (see header comment).
    std::map<std::string, std::uint64_t> counters;
    std::vector<trace::Span> spans;
    /// Branch-point provenance of the flow (FlowResult::decisions).
    std::vector<obs::DecisionRecord> decisions;
};

/// Distributed-trace coordinates for a request that arrived over the
/// wire (serve/wire_trace.hpp). When present (trace_id != 0),
/// execute_request adopts the trace: the request's task spans parent
/// under a synthetic `serve:execute` span, and outcome.spans gains the
/// hop spans `serve:request` (rooted on the remote parent_span, covering
/// queue wait + execution) with `serve:queue-wait` / `serve:execute`
/// children — based at t=0, ready for attach_response_trace. The
/// synthetic hop spans stay out of `merge_into` (they describe the wire
/// hop, not this process's work).
struct RequestTrace {
    std::uint64_t trace_id = 0;      ///< 0 = untraced
    std::uint64_t parent_span = 0;   ///< requester's span to root under
    std::uint64_t queue_wait_us = 0; ///< admission-queue wait to account
};

/// Compile `req` through `session`, write the design sources and the
/// summary CSV under `req.out_dir`, and classify any failure.
///
/// `cancel` (nullable, not owned) is threaded through the flow; a fired
/// token surfaces as ErrorKind::DeadlineExceeded. When `cancel` is null
/// and `req.deadline_ms > 0`, a token is armed here — entry points that
/// queue requests (the daemon) instead arm their own token at *receipt*
/// so queue wait counts against the deadline.
///
/// `memo` (nullable, not owned; serve/result_memo.hpp) answers a request
/// whose key it holds without running the flow: the stored products go
/// through the same write loop into `req.out_dir`, and the request counts
/// `flow_cache.hits`. A miss counts `flow_cache.misses` and stores the
/// products once the request has succeeded. Without a memo nothing is
/// looked up, stored or counted.
///
/// Never throws: all failures land in the outcome, so one bad request
/// cannot take down a worker (per-request failure isolation).
[[nodiscard]] CompileOutcome
execute_request(flow::FlowSession& session, const CompileRequest& req,
                const CancelToken* cancel = nullptr,
                trace::Registry* merge_into = &trace::Registry::global(),
                const RequestTrace* req_trace = nullptr,
                ResultMemo* memo = nullptr);

/// The cache hits a request's counters record, summed over the design
/// CAS, the profile cache and the result memo: the flight recorder's
/// `cache_hits`, shared by psaflowd and psaflowc.
[[nodiscard]] std::uint32_t cache_hits(const CompileOutcome& outcome);

} // namespace psaflow::serve
