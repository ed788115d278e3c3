// cold_compile: in-process first compiles, one client, SessionOptions.jobs
// = 1 (what a psaflowd worker runs with). Every op starts from empty
// process-wide caches, so it pays for interpretation and CAS writes; the
// cold-op self-check proves it did.
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "analysis/hotspot.hpp"
#include "analysis/profile_cache.hpp"
#include "apps/apps.hpp"
#include "bench.hpp"
#include "codegen/codegen.hpp"
#include "core/psaflow.hpp"
#include "frontend/parser.hpp"
#include "interp/interpreter.hpp"
#include "proc.hpp"
#include "sema/type_check.hpp"
#include "serve/wire_trace.hpp"
#include "support/cas/cas.hpp"
#include "support/trace.hpp"
#include "transform/extract.hpp"

namespace psabench {

namespace fs = std::filesystem;
using psaflow::apps::Application;

namespace {

/// The file name psaflowd and psaflowc give a design (serve/service.cpp).
std::string design_filename(const psaflow::flow::DesignArtifact& design) {
    using psaflow::codegen::TargetKind;
    const char* ext = design.spec.target == TargetKind::CpuFpga ? ".sycl.cpp"
                      : design.spec.target == TargetKind::CpuGpu ? ".hip.cpp"
                                                                 : ".cpp";
    return design.name() + ext;
}

std::uint64_t counter(const std::map<std::string, std::uint64_t>& counters,
                      const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

struct ColdOp {
    OpStatus status = OpStatus::Failed;
    double ms = kMissed;
    std::map<std::string, std::uint64_t> counters;
    std::vector<psaflow::codegen::DesignSpec> specs;
    std::string problem;
};

/// One op: empty the process-wide caches (untimed), compile (timed), then
/// check the designs against the expected file and the counters against a
/// fresh process's first compile (untimed). `traced` adopts a distributed
/// trace id, as a psaflowd worker does for a traced request.
///
/// With `keep_profiles` the in-memory profile cache is left as the previous
/// op of the same app filled it: the op then does everything a cold op does
/// except interpret, and must report interp.runs 0.
ColdOp cold_op(psaflow::flow::FlowSession& session, const Application& app,
               const PoolKey& key, bool traced, bool keep_profiles = false) {
    if (!keep_profiles) psaflow::analysis::ProfileCache::global().clear();
    if (psaflow::cas::CasStore* store = psaflow::cas::store()) store->clear();

    ColdOp op;
    psaflow::trace::Registry registry;
    registry.set_enabled(psaflow::trace::Registry::global().enabled());
    psaflow::flow::FlowResult result;
    {
        psaflow::trace::ScopedRegistry scope(registry);
        std::optional<psaflow::trace::ScopedTraceId> trace_id;
        std::optional<psaflow::trace::ScopedParent> parent;
        if (traced) {
            trace_id.emplace(psaflow::serve::mint_trace_id());
            parent.emplace(psaflow::trace::wire_span_id());
        }
        const auto start = Clock::now();
        try {
            result = psaflow::compile(session, app);
        } catch (const std::exception& e) {
            op.problem = app.name + ": compile threw: " + e.what();
            return op;
        }
        op.ms = ms_since(start);
    }
    op.counters = registry.counters();

    std::map<std::string, std::string> files;
    for (const auto& design : result.designs) {
        files[design_filename(design)] = design.source;
        op.specs.push_back(design.spec);
    }
    if (auto mismatch = check_sources(key, files)) {
        op.problem = *mismatch;
        return op;
    }
    const std::uint64_t runs = counter(op.counters, "interp.runs");
    const std::uint64_t writes = counter(op.counters, "cas.writes");
    if (keep_profiles) {
        if (runs != 0) {
            op.problem = app.name + ": a profile-warm op interpreted";
            return op;
        }
    } else if (runs != key.interp_runs || writes != key.cas_writes) {
        op.problem = app.name + ": not a first compile (interp.runs " +
                     std::to_string(runs) + ", cas.writes " +
                     std::to_string(writes) + "; a fresh process reports " +
                     std::to_string(key.interp_runs) + " and " +
                     std::to_string(key.cas_writes) + ")";
        return op;
    }
    op.status = OpStatus::Ok;
    return op;
}

/// The session and app list every cold pass uses.
struct ColdBench {
    const Config& config;
    std::vector<const Application*> apps; ///< parallel to expected.keys
    std::unique_ptr<psaflow::flow::FlowSession> session;

    explicit ColdBench(const Config& c) : config(c) {
        for (const PoolKey& key : c.expected.keys)
            apps.push_back(&psaflow::apps::application_by_name(key.app));
    }

    /// A fresh disk CAS and session, then one checked op per key.
    /// Returns the ops' problems (empty when set-up succeeded).
    std::vector<std::string> setup(const std::string& dir,
                                   std::vector<ColdOp>* warm_ops = nullptr) {
        fs::remove_all(dir);
        psaflow::flow::SessionOptions options;
        options.jobs = 1;
        options.cache_dir = (fs::path(dir) / "cas").string();
        session = std::make_unique<psaflow::flow::FlowSession>(options);
        std::vector<std::string> problems;
        for (std::size_t k = 0; k < apps.size(); ++k) {
            ColdOp op = cold_op(*session, *apps[k], config.expected.keys[k],
                                false);
            if (op.status != OpStatus::Ok) problems.push_back(op.problem);
            if (warm_ops != nullptr) warm_ops->push_back(std::move(op));
        }
        return problems;
    }

    ColdOp op(std::size_t k, bool traced, bool keep_profiles = false) {
        return cold_op(*session, *apps[k], config.expected.keys[k], traced,
                       keep_profiles);
    }
};

} // namespace

Result run_cold(const Config& config) {
    Result result;
    ColdBench bench(config);

    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        for (std::string& p : bench.setup(config.work_dir + "/cold-" +
                                          std::to_string(i)))
            result.problem("set-up: " + p);
        setup_s.push_back(ms_since(start) / 1000.0);
    }

    // Whole rounds only: a round begun before the deadline is finished, so
    // each app contributes exactly as many ops as every other.
    OpLog ops;
    const std::size_t n = bench.apps.size();
    std::vector<std::size_t> per_key(n, 0);
    const auto start = Clock::now();
    for (std::uint64_t round = 0; ms_since(start) < config.seconds * 1000.0;
         ++round) {
        for (std::size_t k : round_order(config.seed, 0, round, n)) {
            ColdOp op = bench.op(k, false);
            if (op.status != OpStatus::Ok) result.problem(op.problem);
            ops.record(op.status, op.ms);
            ++per_key[k];
        }
    }
    const double window_s = ms_since(start) / 1000.0;
    if (!whole_rounds(per_key)) result.problem("ops are not whole rounds");

    const auto self = read_status(0);
    add_end_to_end(result, setup_s, ops, window_s,
                   self.has_value() ? self->vmhwm_mb : 0.0);
    return result;
}

Layers trace_cold(const Config& config, double seconds) {
    Layers out;
    Result& result = out.result;
    ColdBench bench(config);
    std::vector<ColdOp> warm_ops;
    for (std::string& p : bench.setup(config.work_dir + "/cold-trace",
                                      &warm_ops))
        result.problem("set-up: " + p);
    const std::size_t n = bench.apps.size();

    // Layer probes: each layer's public entry point, timed directly. Every
    // probe reports its fastest call, the cost on a quiet host, because
    // the residual below compares probes with ops run at other moments.
    std::vector<double> parse_ms(n);
    std::vector<double> check_ms(n);
    std::vector<double> vm_ms(n);        ///< fastest VM run of the app
    std::vector<double> vm_steps(n);     ///< interp.steps of that run
    std::vector<double> emit_ms(n, 0.0); ///< all of the app's designs
    std::vector<double> emit_each;       ///< per design
    for (std::size_t k = 0; k < n; ++k) {
        const Application& app = *bench.apps[k];
        parse_ms[k] = min_ms(30, [&] {
            (void)psaflow::frontend::parse_module(app.source, app.name);
        });
        auto module = psaflow::frontend::parse_module(app.source, app.name);
        check_ms[k] = min_ms(30, [&] { (void)psaflow::sema::check(*module); });
        auto types = psaflow::sema::check(*module);

        // The VM on the app's profiling workload, outside the profile
        // cache; the interp.steps counter gives the work done.
        psaflow::interp::InterpOptions vm_options;
        vm_options.engine = psaflow::interp::Engine::Vm;
        const auto args = app.workload.make_args(app.workload.profile_scale);
        psaflow::trace::Registry registry;
        {
            psaflow::trace::ScopedRegistry scope(registry);
            vm_ms[k] = min_ms(3, [&] {
                (void)psaflow::interp::run_function(*module, types,
                                                    app.workload.entry, args,
                                                    vm_options);
            });
        }
        vm_steps[k] = double(registry.counter("interp.steps")) / 3.0;

        // The emitters need the extracted kernel the flow offloads: detect
        // the hotspot, extract it under the design's kernel name, then time
        // emit_design for each design spec the warm-up compile produced.
        const auto& specs = warm_ops[k].specs;
        if (specs.empty()) continue;
        auto report = psaflow::analysis::detect_hotspots(*module, types,
                                                         app.workload);
        bool extracted = false;
        for (const auto& candidate : report.candidates) {
            try {
                (void)psaflow::transform::extract_hotspot(
                    *module, types, *candidate.loop, specs.front().kernel_name);
                extracted = true;
                break;
            } catch (const std::exception&) {
            }
        }
        if (!extracted) {
            result.problem(app.name + ": cannot extract a kernel to emit");
            continue;
        }
        types = psaflow::sema::check(*module);
        for (const auto& spec : specs) {
            try {
                const double ms = min_ms(20, [&] {
                    (void)psaflow::codegen::emit_design(*module, types, spec);
                });
                emit_ms[k] += ms;
                emit_each.push_back(ms);
            } catch (const std::exception& e) {
                result.problem(app.name + ": emit_design threw: " + e.what());
            }
        }
    }

    // CAS write path: puts of the mean entry size a cold op writes (the
    // store holds only the last set-up op's entries), into a store of its
    // own.
    const std::uint64_t cas_bytes =
        psaflow::cas::store() != nullptr ? psaflow::cas::store()->size_bytes()
                                         : 0;
    const std::uint64_t last_writes =
        warm_ops.empty() ? 0 : counter(warm_ops.back().counters, "cas.writes");
    const std::size_t payload_size =
        last_writes == 0 ? 4096 : std::size_t(cas_bytes / last_writes);
    double put_ms = 0.0;
    {
        const fs::path dir = fs::path(config.work_dir) / "cas-probe";
        fs::remove_all(dir);
        psaflow::cas::CasStore probe(dir);
        const std::string payload(payload_size, 'p');
        std::uint64_t key = 0x9e3779b97f4a7c15ULL;
        put_ms = min_ms(200, [&] { probe.put(++key, payload); });
    }

    // Ops: rounds alternate untraced and traced, in whole pairs of rounds.
    // Each untraced op is followed by its profile-warm twin (not an op of
    // the workload): the time the twin saves is the op's interpretation.
    OpLog untraced;
    OpLog traced;
    std::map<std::string, std::uint64_t> totals;
    std::vector<std::map<std::string, std::uint64_t>> app_counters(n);
    std::vector<std::map<std::string, std::uint64_t>> twin_counters(n);
    std::vector<double> fastest_op(n, kMissed);
    std::vector<double> fastest_twin(n, kMissed);
    std::vector<std::size_t> per_key(n, 0);
    const auto start = Clock::now();
    for (std::uint64_t round = 0;
         round % 2 == 1 || ms_since(start) < seconds * 1000.0; ++round) {
        const bool is_traced = round % 2 == 1;
        for (std::size_t k : round_order(config.seed, 0, round, n)) {
            ColdOp op = bench.op(k, is_traced);
            if (op.status != OpStatus::Ok) result.problem(op.problem);
            (is_traced ? traced : untraced).record(op.status, op.ms);
            for (const auto& [name, value] : op.counters) totals[name] += value;
            app_counters[k] = op.counters;
            ++per_key[k];
            if (is_traced || op.status != OpStatus::Ok) continue;
            fastest_op[k] = std::min(fastest_op[k], op.ms);
            ColdOp twin = bench.op(k, false, true);
            if (twin.status != OpStatus::Ok) result.problem(twin.problem);
            twin_counters[k] = twin.counters;
            fastest_twin[k] = std::min(fastest_twin[k], twin.ms);
        }
    }
    if (!whole_rounds(per_key)) result.problem("ops are not whole rounds");
    OpLog all = untraced;
    all.merge(traced);
    result.attempted = all.attempted();
    result.failed = all.failed();

    // Per app (fastest of each): interpretation is the op minus its
    // profile-warm twin; the residual is the twin minus the other probed
    // layers, with the twin's own CAS writes.
    const double ops = double(all.attempted());
    const auto per_op = [&](const char* name) {
        return double(counter(totals, name)) / ops;
    };
    double vm_op_ms = 0.0;
    double residual_ms = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        vm_op_ms += (fastest_op[k] - fastest_twin[k]) / double(n);
        residual_ms +=
            (fastest_twin[k] - parse_ms[k] - check_ms[k] - emit_ms[k] -
             double(counter(twin_counters[k], "cas.writes")) * put_ms) /
            double(n);
    }
    const auto mean = [](const std::vector<double>& v) {
        double sum = 0.0;
        for (double x : v) sum += x;
        return v.empty() ? 0.0 : sum / double(v.size());
    };
    double steps = 0.0;
    double vm_total_ms = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        steps += vm_steps[k];
        vm_total_ms += vm_ms[k];
    }
    const double hits = double(counter(totals, "profile_cache.hits"));
    const double misses = double(counter(totals, "profile_cache.misses"));

    result.add("frontend.parse_ms", "ms", mean(parse_ms));
    result.add("sema.check_ms", "ms", mean(check_ms));
    result.add("interp.vm_ms", "ms", vm_op_ms);
    result.add("interp.msteps_per_s", "Msteps/s", steps / vm_total_ms / 1e3);
    result.add("interp.steps_per_op", "count", per_op("interp.steps"));
    result.add("interp.runs_per_op", "count", per_op("interp.runs"));
    result.add("profile_cache.hit_ratio", "ratio", hits / (hits + misses));
    result.add("codegen.emit_ms", "ms", mean(emit_each));
    result.add("cas.put_ms", "ms", put_ms);
    result.add("cas.writes_per_op", "count", per_op("cas.writes"));
    result.add("flow.residual_ms", "ms", residual_ms);
    out.overhead_ratio = traced.percentile(0.5) / untraced.percentile(0.5);
    return out;
}

} // namespace psabench
