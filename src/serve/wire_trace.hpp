// Distributed trace context on the serve wire (W3C-traceparent in spirit,
// JSON in shape). A traced request carries
//
//   "trace": {"trace_id": "<16 hex>", "parent_span": <number>}
//
// where trace_id is the request's 64-bit distributed trace id (minted once
// by the originating tool) and parent_span is the span id the *next* hop
// should parent its work under. Each relay hop rewrites parent_span to a
// span it mints for itself (trace::wire_span_id — process-salted so hops
// cannot collide) before forwarding, and wraps the spans the downstream
// hop returns inside its own measured window on the way back.
//
// A response to a traced request carries
//
//   "trace": {"trace_id": "<16 hex>", "spans": [{name, category, id,
//             parent, thread, start_us, duration_us, work_units}, ...]}
//
// with span starts based at the *responder's* t=0 and every root span
// parented on the parent_span the requester supplied. The requester calls
// nest_spans to center that child timeline inside the wall-clock window it
// measured around the round trip, so the assembled tree nests monotonely
// at every hop without any cross-host clock agreement. Untraced requests
// carry no "trace" member and responses to them never grow one — the
// router's verbatim-relay invariant and response byte-stability for
// existing clients are preserved.
#pragma once

#include <cstdint>
#include <vector>

#include "support/json.hpp"
#include "support/trace.hpp"

namespace psaflow::serve {

/// The trace coordinates one hop hands the next.
struct WireTraceContext {
    std::uint64_t trace_id = 0;    ///< 0 = request is not traced
    std::uint64_t parent_span = 0; ///< span the next hop parents under

    [[nodiscard]] bool traced() const { return trace_id != 0; }
};

/// A fresh nonzero 64-bit distributed trace id (clock + pid + sequence
/// through a splitmix finaliser — unique enough to never collide between
/// the requests one cluster serves concurrently).
[[nodiscard]] std::uint64_t mint_trace_id();

/// Install `ctx` as the request document's "trace" member (replacing any
/// existing one). No-op when ctx is untraced.
void set_trace_member(json::Value& doc, const WireTraceContext& ctx);

/// Read a request document's "trace" member. Returns an untraced context
/// when the member is absent or malformed — a bad trace header degrades
/// to an untraced request rather than failing it.
[[nodiscard]] WireTraceContext trace_member(const json::Value& doc);

/// Attach the responder's span summary to a response document:
/// "trace": {"trace_id", "spans": [...]}.
void attach_response_trace(json::Value& response, std::uint64_t trace_id,
                           const std::vector<trace::Span>& spans);

/// The trace id a response carries (0 when it has none).
[[nodiscard]] std::uint64_t response_trace_id(const json::Value& response);

/// Decode the span summary from a response's "trace" member (empty when
/// absent; spans with malformed members are skipped).
[[nodiscard]] std::vector<trace::Span>
response_trace_spans(const json::Value& response);

/// Fold a downstream hop's span set (based at its own t=0) into the
/// requester's timeline: shift the children so they sit centered inside
/// `wrapper`'s [start_us, start_us + duration_us) window, extend the
/// wrapper when the children report more wall time than the requester
/// measured (clock skew — nesting stays monotone either way), then append
/// the wrapper itself. The children's root spans must already be parented
/// on wrapper.id (that is the parent_span the requester sent).
void nest_spans(std::vector<trace::Span>& children, trace::Span wrapper);

/// Append a daemon's hop spans for one request, in the order queue-wait,
/// execute, request: serve:request (parented on `parent`) spans
/// serve:queue-wait [0, queue_us) and serve:execute (id `exec_id`, so the
/// request's own spans can parent on it) [queue_us, queue_us + exec_us).
void append_hop_spans(std::vector<trace::Span>& spans, std::uint64_t parent,
                      std::uint64_t exec_id, std::uint64_t queue_us,
                      std::uint64_t exec_us);

} // namespace psaflow::serve
