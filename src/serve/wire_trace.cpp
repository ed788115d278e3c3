#include "serve/wire_trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>

#include "support/string_util.hpp"

namespace psaflow::serve {

std::uint64_t mint_trace_id() {
    static std::atomic<std::uint64_t> sequence{0};
    std::uint64_t mix = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    mix ^= static_cast<std::uint64_t>(::getpid()) << 32;
    mix += 0x9e3779b97f4a7c15ULL * (sequence.fetch_add(1) + 1);
    mix = (mix ^ (mix >> 30)) * 0xbf58476d1ce4e5b9ULL;
    mix = (mix ^ (mix >> 27)) * 0x94d049bb133111ebULL;
    mix ^= mix >> 31;
    return mix == 0 ? 1 : mix;
}

void set_trace_member(json::Value& doc, const WireTraceContext& ctx) {
    if (!ctx.traced()) return;
    json::Value trace = json::Value::object();
    trace.set("trace_id", json::Value::string(hex_u64(ctx.trace_id)));
    trace.set("parent_span",
              json::Value::number(double(ctx.parent_span)));
    doc.set("trace", std::move(trace));
}

WireTraceContext trace_member(const json::Value& doc) {
    WireTraceContext ctx;
    const json::Value* trace = doc.find("trace");
    if (trace == nullptr || !trace->is_object()) return ctx;
    const json::Value* id = trace->find("trace_id");
    if (id == nullptr || !id->is_string()) return ctx;
    const auto parsed = parse_hex_u64(id->string_value);
    if (!parsed.has_value() || *parsed == 0) return ctx;
    ctx.trace_id = *parsed;
    if (const json::Value* v = trace->find("parent_span"))
        ctx.parent_span = static_cast<std::uint64_t>(v->number_or(0.0));
    return ctx;
}

namespace {

json::Value span_to_value(const trace::Span& span) {
    json::Value v = json::Value::object();
    v.set("name", json::Value::string(span.name));
    v.set("category", json::Value::string(span.category));
    v.set("id", json::Value::number(double(span.id)));
    v.set("parent", json::Value::number(double(span.parent)));
    v.set("thread", json::Value::number(double(span.thread)));
    v.set("start_us", json::Value::number(double(span.start_us)));
    v.set("duration_us", json::Value::number(double(span.duration_us)));
    v.set("work_units", json::Value::number(span.work_units));
    return v;
}

} // namespace

void attach_response_trace(json::Value& response, std::uint64_t trace_id,
                           const std::vector<trace::Span>& spans) {
    json::Value trace = json::Value::object();
    trace.set("trace_id", json::Value::string(hex_u64(trace_id)));
    json::Value list = json::Value::array();
    for (const trace::Span& span : spans) list.push(span_to_value(span));
    trace.set("spans", std::move(list));
    response.set("trace", std::move(trace));
}

std::uint64_t response_trace_id(const json::Value& response) {
    const json::Value* trace = response.find("trace");
    if (trace == nullptr || !trace->is_object()) return 0;
    const json::Value* id = trace->find("trace_id");
    if (id == nullptr || !id->is_string()) return 0;
    return parse_hex_u64(id->string_value).value_or(0);
}

std::vector<trace::Span> response_trace_spans(const json::Value& response) {
    std::vector<trace::Span> spans;
    const json::Value* trace = response.find("trace");
    if (trace == nullptr || !trace->is_object()) return spans;
    const json::Value* list = trace->find("spans");
    if (list == nullptr || !list->is_array()) return spans;
    for (const json::Value& v : list->elements) {
        if (!v.is_object()) continue;
        trace::Span span;
        if (const json::Value* m = v.find("name"))
            span.name = m->string_or("");
        if (const json::Value* m = v.find("category"))
            span.category = m->string_or("");
        if (const json::Value* m = v.find("id"))
            span.id = static_cast<std::uint64_t>(m->number_or(0.0));
        if (const json::Value* m = v.find("parent"))
            span.parent = static_cast<std::uint64_t>(m->number_or(0.0));
        if (const json::Value* m = v.find("thread"))
            span.thread = static_cast<std::uint64_t>(m->number_or(0.0));
        if (const json::Value* m = v.find("start_us"))
            span.start_us = static_cast<std::uint64_t>(m->number_or(0.0));
        if (const json::Value* m = v.find("duration_us"))
            span.duration_us =
                static_cast<std::uint64_t>(m->number_or(0.0));
        if (const json::Value* m = v.find("work_units"))
            span.work_units = m->number_or(0.0);
        if (span.id == 0) continue; // ids are never 0; skip torn entries
        spans.push_back(std::move(span));
    }
    return spans;
}

void nest_spans(std::vector<trace::Span>& children, trace::Span wrapper) {
    std::uint64_t child_max_end = 0;
    for (const trace::Span& child : children)
        child_max_end =
            std::max(child_max_end, child.start_us + child.duration_us);
    std::uint64_t slack = 0;
    if (child_max_end > wrapper.duration_us) {
        // The downstream hop reports more wall time than we measured
        // around the round trip (clock rate skew); grow the wrapper so
        // the children still nest inside it.
        wrapper.duration_us = child_max_end;
    } else {
        // Center the children: the leftover is network + framing time,
        // split evenly between the outbound and return legs.
        slack = (wrapper.duration_us - child_max_end) / 2;
    }
    for (trace::Span& child : children) child.start_us += wrapper.start_us + slack;
    children.push_back(std::move(wrapper));
}

void append_hop_spans(std::vector<trace::Span>& spans, std::uint64_t parent,
                      std::uint64_t exec_id, std::uint64_t queue_us,
                      std::uint64_t exec_us) {
    const auto hop = [](const char* name, std::uint64_t id,
                        std::uint64_t parent_id, std::uint64_t start_us,
                        std::uint64_t duration_us) {
        trace::Span span;
        span.name = name;
        span.category = "serve";
        span.id = id;
        span.parent = parent_id;
        span.start_us = start_us;
        span.duration_us = duration_us;
        return span;
    };
    const std::uint64_t root_id = trace::wire_span_id();
    spans.push_back(hop("serve:queue-wait", trace::wire_span_id(), root_id, 0,
                        queue_us));
    spans.push_back(hop("serve:execute", exec_id, root_id, queue_us, exec_us));
    spans.push_back(
        hop("serve:request", root_id, parent, 0, queue_us + exec_us));
}

} // namespace psaflow::serve
