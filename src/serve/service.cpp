#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "core/psaflow.hpp"
#include "obs/log.hpp"
#include "serve/wire_trace.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace psaflow::serve {

namespace {

/// Run the flow for `req` and collect what it produced. On failure the
/// outcome carries the classified error and the result is null.
std::shared_ptr<const FlowProducts>
run_flow(flow::FlowSession& session, const apps::Application& app,
         const CompileRequest& req, const CancelToken* cancel,
         CompileOutcome& outcome) {
    RunOptions options;
    options.mode = req.mode == "informed" ? flow::Mode::Informed
                                          : flow::Mode::Uninformed;
    options.budget.max_run_cost = req.budget;
    options.intensity_threshold_x = req.threshold_x;
    options.cancel = cancel;

    // Lower the request's manifest (if any) here, at run time: the request
    // carries validated text, so failure is a BadRequest (e.g. the file a
    // batch entry named changed between parse and run), not an engine bug.
    flow::ManifestFlow manifest;
    if (!req.flow_json.empty()) {
        try {
            manifest = flow::parse_manifest_text(req.flow_json);
        } catch (const Error& e) {
            outcome.error_kind = ErrorKind::BadRequest;
            outcome.error = e.what();
            obs::warn("serve", "rejected compile request",
                      {{"app", req.app}, {"error", e.what()}});
            return nullptr;
        }
        options.flow_manifest = &manifest;
    }

    flow::FlowResult result;
    try {
        result = compile(session, app, options);
    } catch (const CancelledError& e) {
        outcome.error_kind = ErrorKind::DeadlineExceeded;
        outcome.error = std::string("flow failed: ") + e.what();
        obs::info("serve", "compile deadline exceeded",
                  {{"app", req.app}, {"reason", e.what()}});
        return nullptr;
    } catch (const Error& e) {
        outcome.error_kind = ErrorKind::Internal;
        outcome.error = std::string("flow failed: ") + e.what();
        obs::error("serve", "compile failed",
                   {{"app", req.app}, {"error", e.what()}});
        return nullptr;
    }

    auto products = std::make_shared<FlowProducts>();
    CsvWriter summary({"design", "target", "device", "synthesizable",
                       "hotspot_seconds", "speedup_vs_1t", "loc_delta",
                       "source_file"});
    for (auto& design : result.designs) {
        const std::string ext =
            design.spec.target == codegen::TargetKind::CpuFpga ? ".sycl.cpp"
            : design.spec.target == codegen::TargetKind::CpuGpu ? ".hip.cpp"
                                                                : ".cpp";
        DesignRow row;
        row.name = design.name();
        row.target = codegen::to_string(design.spec.target);
        row.device = platform::to_string(design.spec.device);
        row.synthesizable = design.synthesizable;
        row.hotspot_seconds = design.hotspot_seconds;
        row.speedup = design.speedup;
        row.loc_delta = design.loc_delta;
        row.filename = row.name + ext;

        summary.add_row({row.name, row.target, row.device,
                         design.synthesizable ? "yes" : "no",
                         format_compact(design.hotspot_seconds, 6),
                         format_compact(design.speedup, 4),
                         format_compact(design.loc_delta, 4), row.filename});
        if (design.synthesizable && design.speedup > products->best_speedup)
            products->best_speedup = design.speedup;
        products->designs.push_back(std::move(row));
        products->sources.push_back(std::move(design.source));
    }
    products->summary_csv = summary.to_string();
    products->decisions = std::move(result.decisions);
    products->reference_seconds = result.reference_seconds;
    return products;
}

/// Body of execute_request, running with the request's private registry
/// already installed; split out so the wrapper can time it and harvest the
/// registry regardless of how it returns. Fresh and memoised products
/// take the same write loop.
CompileOutcome run_compile(flow::FlowSession& session,
                           const CompileRequest& req,
                           const CancelToken* cancel, ResultMemo* memo) {
    CompileOutcome outcome;

    const apps::Application* app = nullptr;
    try {
        app = &apps::application_by_name(req.app);
    } catch (const Error& e) {
        outcome.error_kind = ErrorKind::BadRequest;
        outcome.error = e.what();
        obs::warn("serve", "rejected compile request",
                  {{"app", req.app}, {"error", e.what()}});
        return outcome;
    }

    std::string key;
    std::shared_ptr<const FlowProducts> products;
    if (memo != nullptr) {
        key = ResultMemo::key_of(req);
        products = memo->lookup(key);
        trace::Registry::current().count(
            products != nullptr ? "flow_cache.hits" : "flow_cache.misses", 1);
    }
    const bool memo_hit = products != nullptr;
    if (!memo_hit) {
        products = run_flow(session, *app, req, cancel, outcome);
        if (products == nullptr) return outcome;
    }
    outcome.decisions = products->decisions;

    std::filesystem::create_directories(req.out_dir);
    for (std::size_t i = 0; i < products->designs.size(); ++i) {
        const std::filesystem::path path =
            std::filesystem::path(req.out_dir) /
            products->designs[i].filename;
        std::ofstream file(path);
        if (!file) {
            outcome.error_kind = ErrorKind::Internal;
            outcome.error = "cannot write " + path.string();
            obs::error("serve", "cannot write design file",
                       {{"app", req.app}, {"path", path.string()}});
            return outcome;
        }
        file << products->sources[i];
    }

    const std::filesystem::path summary_path =
        std::filesystem::path(req.out_dir) / (app->name + "-summary.csv");
    std::ofstream summary_file(summary_path);
    summary_file << products->summary_csv;

    outcome.ok = true;
    outcome.error_kind = ErrorKind::None;
    outcome.designs = products->designs;
    outcome.design_count = products->designs.size();
    outcome.best_speedup = products->best_speedup;
    outcome.reference_seconds = products->reference_seconds;
    outcome.summary_path = summary_path.string();
    if (memo != nullptr && !memo_hit) memo->insert(key, std::move(products));
    return outcome;
}

} // namespace

CompileOutcome execute_request(flow::FlowSession& session,
                               const CompileRequest& req,
                               const CancelToken* cancel,
                               trace::Registry* merge_into,
                               const RequestTrace* req_trace,
                               ResultMemo* memo) {
    // A request-armed deadline when no caller token was provided: the CLI
    // paths land here; the daemon passes its own token, armed at receipt.
    CancelToken local_token;
    if (cancel == nullptr && req.deadline_ms > 0) {
        local_token.set_deadline_after(
            std::chrono::milliseconds(req.deadline_ms));
        cancel = &local_token;
    }

    trace::Registry request_registry;
    request_registry.set_enabled(trace::Registry::global().enabled());

    // Distributed-trace adoption: the request's spans parent under a
    // synthetic serve:execute span, and the trace id rides the thread so
    // deeper layers (remote CAS) forward it onward. Hop spans are
    // synthesized even when span *collection* is off — they come from
    // independent timing, so the cross-process tree stays rooted.
    const bool traced = req_trace != nullptr && req_trace->trace_id != 0;
    const std::uint64_t exec_id = traced ? trace::wire_span_id() : 0;

    const auto start = std::chrono::steady_clock::now();
    CompileOutcome outcome;
    {
        trace::ScopedRegistry scope(request_registry);
        std::optional<trace::ScopedTraceId> scoped_trace;
        std::optional<trace::ScopedParent> scoped_parent;
        if (traced) {
            scoped_trace.emplace(req_trace->trace_id);
            scoped_parent.emplace(exec_id);
        }
        try {
            outcome = run_compile(session, req, cancel, memo);
        } catch (const std::exception& e) {
            // Belt-and-braces failure isolation: nothing past run_compile's
            // own handlers may escape into a daemon worker loop.
            outcome = CompileOutcome{};
            outcome.error_kind = ErrorKind::Internal;
            outcome.error = std::string("flow failed: ") + e.what();
        }
    }
    outcome.wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    outcome.counters = request_registry.counters();
    outcome.spans = request_registry.spans();
    if (merge_into != nullptr) merge_into->merge_from(request_registry);

    if (traced) {
        // Re-base the natural spans behind the queue wait and wrap them
        // in the hop spans (see RequestTrace). Appended after the merge:
        // hop spans describe the wire hop, not this process's work.
        const std::uint64_t queue_us = req_trace->queue_wait_us;
        std::uint64_t exec_us = outcome.wall_us;
        for (trace::Span& span : outcome.spans) {
            span.start_us += queue_us;
            // The private registry's clock starts a hair before wall_us's
            // does; stretch the execute window so children still nest.
            exec_us = std::max(exec_us,
                               span.start_us + span.duration_us - queue_us);
        }
        append_hop_spans(outcome.spans, req_trace->parent_span, exec_id,
                         queue_us, exec_us);
    }
    return outcome;
}

std::uint32_t cache_hits(const CompileOutcome& outcome) {
    std::uint64_t hits = 0;
    for (const char* name :
         {"cas.hits", "profile_cache.hits", "flow_cache.hits"}) {
        const auto it = outcome.counters.find(name);
        if (it != outcome.counters.end()) hits += it->second;
    }
    return static_cast<std::uint32_t>(hits);
}

} // namespace psaflow::serve
