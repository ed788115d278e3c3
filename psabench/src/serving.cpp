// warm_serve and routed_warm: closed-loop clients against spawned
// psaflowd / psaflow-router processes, one fresh connection per request,
// after set-up has compiled every key once so every op is a warm hit.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "bench.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/remote_cas.hpp"
#include "proc.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/wire_trace.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"
#include "wire.hpp"

namespace psabench {

namespace fs = std::filesystem;
namespace json = psaflow::json;

namespace {

/// Closed-loop clients per serving workload.
constexpr int kClients = 2;
/// Rounds (one request per key) each client sends to one set of servers.
/// The servers keep every finished connection thread until they drain, and
/// each request opens a fresh connection, so latency climbs with the
/// connections a server has taken (on a 4-core host the median of the
/// first 125 requests was 4.4 ms, of requests 375-500 7.3 ms). A fixed
/// number of requests per server lifetime keeps the numbers independent of
/// how many requests a run fits in; runs repeat such segments, each on
/// freshly started servers.
constexpr std::uint64_t kRoundsPerSegment = 50;

/// The processes of one serving set-up. Shards (or the single daemon)
/// first, the router last.
struct Fleet {
    std::string dir;
    std::vector<Child> procs;
    std::vector<std::string> shard_names;
    std::vector<std::string> shard_sockets;
    std::string front; ///< the socket clients send to

    [[nodiscard]] double vmhwm_mb_sum() const {
        double sum = 0.0;
        for (const Child& p : procs)
            if (auto status = read_status(p.pid())) sum += status->vmhwm_mb;
        return sum;
    }

    /// Drain every process; problems for any that did not exit cleanly.
    std::vector<std::string> stop() {
        std::vector<std::string> problems;
        for (auto it = procs.rbegin(); it != procs.rend(); ++it) {
            const pid_t pid = it->pid();
            const int status = it->stop();
            if (!exited_cleanly(status))
                problems.push_back("server pid " + std::to_string(pid) +
                                   " did not drain cleanly (wait status " +
                                   std::to_string(status) + ")");
        }
        procs.clear();
        return problems;
    }
};

std::optional<std::string> start_fleet(const Config& config, bool routed,
                                       const std::string& dir, Fleet& fleet) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    fleet.dir = dir;
    const std::string daemon = config.bin_dir + "/psaflowd";
    const auto spawn = [&](std::vector<std::string> argv,
                           const std::string& log) {
        Child child;
        auto error = child.spawn(argv, dir + "/" + log);
        fleet.procs.push_back(std::move(child));
        return error;
    };
    if (!routed) {
        const std::string sock = dir + "/d.sock";
        if (auto e = spawn({daemon, "--socket", sock, "--workers", "2",
                            "--cache-dir", dir + "/cas", "--out",
                            dir + "/designs"},
                           "psaflowd.log"))
            return e;
        fleet.shard_names = {"psaflowd"};
        fleet.shard_sockets = {sock};
        fleet.front = sock;
    } else {
        std::vector<std::string> router = {config.bin_dir + "/psaflow-router",
                                           "--socket", dir + "/router.sock"};
        for (const std::string& name : config.expected.shards) {
            const std::string sock = dir + "/" + name + ".sock";
            if (auto e = spawn({daemon, "--socket", sock, "--workers", "1",
                                "--shard-name", name, "--cache-dir",
                                dir + "/cas-" + name, "--out",
                                dir + "/designs"},
                               "psaflowd-" + name + ".log"))
                return e;
            fleet.shard_names.push_back(name);
            fleet.shard_sockets.push_back(sock);
            router.push_back("--shard");
            router.push_back(name + "=" + sock);
        }
        if (auto e = spawn(router, "psaflow-router.log")) return e;
        fleet.front = dir + "/router.sock";
    }
    for (const std::string& sock : fleet.shard_sockets)
        if (!wait_ready(sock, 30000)) return "no answer on " + sock;
    if (!wait_ready(fleet.front, 30000)) return "no answer on " + fleet.front;
    return std::nullopt;
}

/// Check a compile response and the design files it wrote next to its
/// summary. Refused when the server answered "overloaded".
OpStatus check_reply(const json::Value& doc, const PoolKey& key,
                     std::string* problem) {
    const auto view = psaflow::serve::parse_response(doc);
    if (!view.has_value()) {
        *problem = key.app + ": not a response document";
        return OpStatus::Failed;
    }
    if (!view->ok) {
        *problem = key.app + ": " + view->error;
        return view->error_kind == psaflow::serve::ErrorKind::Overloaded
                   ? OpStatus::Refused
                   : OpStatus::Failed;
    }
    const json::Value* summary = doc.find("summary_path");
    if (summary == nullptr || !summary->is_string()) {
        *problem = key.app + ": response names no summary_path";
        return OpStatus::Failed;
    }
    const std::string out_dir =
        fs::path(summary->string_value).parent_path().string();
    std::vector<std::string> names;
    if (const json::Value* designs = doc.find("designs"))
        for (const json::Value& design : designs->elements)
            if (const json::Value* file = design.find("file"))
                names.push_back(file->string_or(""));
    if (auto mismatch = check_files(key, out_dir, names)) {
        *problem = *mismatch;
        return OpStatus::Failed;
    }
    return OpStatus::Ok;
}

/// One request, timed from connect to the last response byte, then
/// checked (untimed).
struct ServeOp {
    OpStatus status = OpStatus::Failed;
    double ms = kMissed;
    bool traced = false;
    double wall_ms = 0.0;          ///< response wall_us (serve's executor)
    double request_span_ms = -1.0; ///< serve:request span (traced only)
    double queue_ms = -1.0;        ///< serve:queue-wait span (traced only)
    std::uint64_t artifact_hits = 0;
    std::uint64_t artifact_misses = 0;
};

ServeOp serve_op(const Fleet& fleet, const PoolKey& key, bool traced,
                 std::string* problem, std::string* frame_out = nullptr) {
    json::Value request = compile_request(key.app);
    if (traced)
        psaflow::serve::set_trace_member(
            request, {psaflow::serve::mint_trace_id(),
                      psaflow::trace::wire_span_id()});
    const std::string frame = json::dump(request);

    ServeOp op;
    op.traced = traced;
    const auto start = Clock::now();
    const Reply reply = round_trip(fleet.front, frame);
    const double ms = ms_since(start);
    if (!reply.transport_ok) {
        *problem = key.app + ": " + reply.error;
        return op;
    }
    const auto doc = json::parse(reply.payload);
    if (!doc.has_value()) {
        *problem = key.app + ": unparsable response";
        return op;
    }
    op.status = check_reply(*doc, key, problem);
    if (op.status != OpStatus::Ok) return op;
    op.ms = ms;
    if (frame_out != nullptr) *frame_out = reply.payload;
    if (const json::Value* wall = doc->find("wall_us"))
        op.wall_ms = wall->number_or(0.0) / 1000.0;
    if (const json::Value* counters = doc->find("counters")) {
        if (const json::Value* v = counters->find("artifact_cache.hits"))
            op.artifact_hits = std::uint64_t(v->number_or(0.0));
        if (const json::Value* v = counters->find("artifact_cache.misses"))
            op.artifact_misses = std::uint64_t(v->number_or(0.0));
    }
    if (traced)
        for (const auto& span : psaflow::serve::response_trace_spans(*doc)) {
            if (span.name == "serve:request")
                op.request_span_ms = double(span.duration_us) / 1000.0;
            else if (span.name == "serve:queue-wait")
                op.queue_ms = double(span.duration_us) / 1000.0;
        }
    return op;
}

/// Per-shard `requests.completed` (compiles only: health pings and stats
/// scrapes are answered inline and never complete as jobs) and the
/// summed request latency, from each shard's own stats endpoint.
struct ShardTally {
    std::vector<double> completed;
    std::vector<double> busy_us;
};

std::optional<ShardTally> shard_tally(const Fleet& fleet) {
    ShardTally tally;
    for (const std::string& sock : fleet.shard_sockets) {
        const auto doc = request_doc(sock, R"({"type":"stats"})");
        if (!doc.has_value()) return std::nullopt;
        const json::Value* requests = doc->find("requests");
        const json::Value* latency = doc->find("request_latency_us");
        if (requests == nullptr || latency == nullptr) return std::nullopt;
        const json::Value* completed = requests->find("completed");
        const json::Value* sum = latency->find("sum");
        tally.completed.push_back(completed ? completed->number_or(0.0) : 0.0);
        tally.busy_us.push_back(sum ? sum->number_or(0.0) : 0.0);
    }
    return tally;
}

/// Compile every key once through the front socket (first compiles, which
/// fill the servers' caches) and check the outputs; for a routed fleet,
/// also check that each shard served exactly the keys the hash ring
/// assigns it and that every shard served at least one.
std::vector<std::string> warm_keys(const Config& config, const Fleet& fleet,
                                   bool routed) {
    std::vector<std::string> problems;
    for (const PoolKey& key : config.expected.keys) {
        std::string problem;
        if (serve_op(fleet, key, false, &problem).status != OpStatus::Ok)
            problems.push_back("warm-up: " + problem);
    }
    if (!routed) return problems;

    psaflow::cluster::HashRing ring;
    for (const std::string& name : fleet.shard_names) ring.add(name);
    std::map<std::string, double> predicted;
    for (const PoolKey& key : config.expected.keys) {
        psaflow::serve::CompileRequest request;
        request.app = key.app;
        predicted[ring.pick(psaflow::serve::affinity_digest(request))
                      .value_or("")] += 1.0;
    }
    const auto tally = shard_tally(fleet);
    if (!tally.has_value()) {
        problems.push_back("cannot read shard stats");
        return problems;
    }
    for (std::size_t s = 0; s < fleet.shard_names.size(); ++s) {
        const std::string& name = fleet.shard_names[s];
        if (tally->completed[s] < 1.0)
            problems.push_back("shard " + name + " served no compile");
        if (tally->completed[s] != predicted[name])
            problems.push_back("shard " + name + " served " +
                               std::to_string(tally->completed[s]) +
                               " warm-up compiles, the ring assigns it " +
                               std::to_string(predicted[name]));
    }
    return problems;
}

struct ClientRun {
    std::vector<ServeOp> ops;
    std::vector<std::size_t> per_key;
    std::vector<std::string> problems;
    std::map<std::size_t, std::string> frames; ///< one response per key
};

/// One closed-loop client sending kRoundsPerSegment rounds. With
/// `alternate`, odd rounds are traced.
void client_loop(const Config& config, const Fleet& fleet, int client,
                 std::uint64_t first_round, bool alternate, ClientRun& out) {
    const auto& keys = config.expected.keys;
    out.per_key.assign(keys.size(), 0);
    for (std::uint64_t round = 0; round < kRoundsPerSegment; ++round) {
        const bool traced = alternate && round % 2 == 1;
        for (std::size_t k :
             round_order(config.seed, std::uint64_t(client) + 1,
                         first_round + round, keys.size())) {
            std::string problem;
            std::string* frame =
                !traced && out.frames.count(k) == 0 ? &out.frames[k] : nullptr;
            ServeOp op = serve_op(fleet, keys[k], traced, &problem, frame);
            if (op.status != OpStatus::Ok && out.problems.size() < 10)
                out.problems.push_back(problem);
            out.ops.push_back(op);
            ++out.per_key[k];
        }
    }
}

/// One server lifetime: set up (timed), the clients' rounds, the servers'
/// state at the end, drain.
struct Segment {
    double setup_s = 0.0;
    double window_s = 0.0;
    double rss_mb = 0.0; ///< summed VmHWM of the servers after the rounds
    ProcStatus front_status; ///< psaflowd (warm) or router (routed) at the end
    std::vector<ClientRun> runs;
    std::optional<ShardTally> before;
    std::optional<ShardTally> after;
};

/// Start a set of servers in `dir` and compile every key once through
/// them. Returns the seconds that took.
double set_up(const Config& config, bool routed, const std::string& dir,
              Fleet& fleet, Result& result) {
    const auto start = Clock::now();
    if (auto error = start_fleet(config, routed, dir, fleet))
        result.problem("set-up: " + *error);
    else
        for (std::string& p : warm_keys(config, fleet, routed))
            result.problem(p);
    return ms_since(start) / 1000.0;
}

Segment run_segment(const Config& config, bool routed, int index,
                    bool alternate, Result& result) {
    Segment seg;
    Fleet fleet;
    const std::string dir = config.work_dir + (routed ? "/routed-" : "/warm-") +
                            std::to_string(index);
    seg.setup_s = set_up(config, routed, dir, fleet, result);
    if (!result.correct) {
        fleet.stop();
        return seg;
    }

    seg.before = shard_tally(fleet);
    seg.runs.resize(kClients);
    const auto start = Clock::now();
    {
        std::vector<std::jthread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                client_loop(config, fleet, c,
                            std::uint64_t(index) * kRoundsPerSegment,
                            alternate, seg.runs[std::size_t(c)]);
            });
    }
    seg.window_s = ms_since(start) / 1000.0;
    seg.after = shard_tally(fleet);
    seg.rss_mb = fleet.vmhwm_mb_sum();
    if (auto status = read_status(fleet.procs.back().pid()))
        seg.front_status = *status;
    if (routed && seg.before.has_value() && seg.after.has_value())
        for (std::size_t s = 0; s < fleet.shard_names.size(); ++s)
            if (seg.after->completed[s] <= seg.before->completed[s])
                result.problem("shard " + fleet.shard_names[s] +
                               " served no compile in the timed window");
    for (std::string& p : fleet.stop()) result.problem(p);
    fs::remove_all(dir);
    return seg;
}

/// Segments until `seconds` have passed (at least one).
std::vector<Segment> run_segments(const Config& config, bool routed,
                                  double seconds, bool alternate,
                                  Result& result) {
    std::vector<Segment> segments;
    const auto start = Clock::now();
    do {
        segments.push_back(run_segment(config, routed, int(segments.size()),
                                       alternate, result));
    } while (result.correct && ms_since(start) < seconds * 1000.0);
    return segments;
}

/// Fold the clients' ops into `result` and OpLogs (traced ops apart when
/// `traced` is given).
void collect(Result& result, const std::vector<Segment>& segments, OpLog& ops,
             OpLog* traced = nullptr) {
    for (const Segment& seg : segments)
        for (const ClientRun& run : seg.runs) {
            for (const std::string& p : run.problems) result.problem(p);
            if (!whole_rounds(run.per_key))
                result.problem("a client's ops are not whole rounds");
            for (const ServeOp& op : run.ops)
                (op.traced && traced != nullptr ? *traced : ops)
                    .record(op.status, op.ms);
        }
}

} // namespace

Result run_serving(const Config& config, bool routed) {
    Result result;
    if (routed) {
        std::string pool;
        for (const PoolKey& key : config.expected.keys)
            pool += (pool.empty() ? "" : ",") + key.app;
        std::string names;
        for (const std::string& name : config.expected.shards)
            names += (names.empty() ? "" : ",") + name;
        result.notes.push_back("shards " + names + ", key pool " + pool +
                               ": " + config.expected.shard_reason);
    }
    const std::vector<Segment> segments =
        run_segments(config, routed, config.seconds, false, result);
    std::vector<double> setup_s;
    std::vector<double> rss_mb;
    double window_s = 0.0;
    for (const Segment& seg : segments) {
        setup_s.push_back(seg.setup_s);
        rss_mb.push_back(seg.rss_mb);
        window_s += seg.window_s;
    }
    // setup_s is a median of several set-ups even when few segments fit.
    for (int i = int(segments.size()); result.correct && i < kSetups; ++i) {
        Fleet fleet;
        setup_s.push_back(set_up(config, routed,
                                 config.work_dir + "/setup-" +
                                     std::to_string(i),
                                 fleet, result));
        for (std::string& p : fleet.stop()) result.problem(p);
    }
    OpLog ops;
    collect(result, segments, ops);
    add_end_to_end(result, setup_s, ops, window_s, median(rss_mb));

    // Drift within the run, for the reader: each segment's own p50.
    std::string per_segment;
    for (const Segment& seg : segments) {
        std::vector<double> ms;
        for (const ClientRun& run : seg.runs)
            for (const ServeOp& op : run.ops) ms.push_back(op.ms);
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.2f", percentile(ms, 0.5));
        per_segment += buf;
    }
    result.notes.push_back(std::to_string(segments.size()) +
                           " segments of 500 requests; p50 (ms) per segment:" +
                           per_segment);
    return result;
}

Layers trace_serving(const Config& config, double seconds,
                            bool routed) {
    Layers out;
    Result& result = out.result;
    const std::vector<Segment> segments =
        run_segments(config, routed, seconds, true, result);
    OpLog untraced;
    OpLog traced;
    collect(result, segments, untraced, &traced);
    OpLog all = untraced;
    all.merge(traced);
    result.attempted = all.attempted();
    result.failed = all.failed();
    out.overhead_ratio = traced.percentile(0.5) / untraced.percentile(0.5);

    // Hop times: client latency minus the serving hop's own span.
    std::vector<double> wall_ms;
    std::vector<double> outside_ms;
    double queue_sum = 0.0;
    double queue_n = 0.0;
    double hits = 0.0;
    double lookups = 0.0;
    std::map<std::size_t, std::string> frames;
    for (const Segment& seg : segments)
        for (const ClientRun& run : seg.runs) {
            frames.insert(run.frames.begin(), run.frames.end());
            for (const ServeOp& op : run.ops) {
                if (op.status != OpStatus::Ok) continue;
                wall_ms.push_back(op.wall_ms);
                hits += double(op.artifact_hits);
                lookups += double(op.artifact_hits + op.artifact_misses);
                if (!op.traced) continue;
                if (op.request_span_ms < 0.0 || op.queue_ms < 0.0) {
                    result.problem("a traced response carried no serve spans");
                    continue;
                }
                outside_ms.push_back(op.ms - op.request_span_ms);
                queue_sum += op.queue_ms;
                queue_n += 1.0;
            }
        }
    const Segment& last = segments.back();

    if (!routed) {
        result.add("artifact_cache.hit_ratio", "ratio", hits / lookups);
        result.add("serve.execute_ms", "ms", median(wall_ms));
        result.add("serve.queue_wait_ms", "ms", queue_sum / queue_n);
        result.add("net.overhead_ms", "ms", median(outside_ms));
        result.add("server.threads_end", "count",
                   double(last.front_status.threads));
        result.add("server.vmsize_mb_end", "MB", last.front_status.vmsize_mb);

        // The decoder on this run's recorded response frames.
        std::erase_if(frames, [](const auto& f) { return f.second.empty(); });
        double parse_us = 0.0;
        for (const auto& [k, frame] : frames)
            parse_us += 1000.0 * min_ms(200, [&] {
                            (void)json::parse(frame);
                        });
        result.add("json.parse_us", "us",
                   frames.empty() ? 0.0 : parse_us / double(frames.size()));
        return out;
    }

    result.add("router.relay_ms", "ms", median(outside_ms));
    // Shard shares over every segment's timed rounds (set-up excluded).
    std::vector<double> completed;
    std::vector<double> busy;
    for (const Segment& seg : segments) {
        if (!seg.before.has_value() || !seg.after.has_value()) {
            result.problem("cannot read shard stats");
            continue;
        }
        completed.resize(seg.after->completed.size(), 0.0);
        busy.resize(seg.after->busy_us.size(), 0.0);
        for (std::size_t s = 0; s < completed.size(); ++s) {
            completed[s] += seg.after->completed[s] - seg.before->completed[s];
            busy[s] += seg.after->busy_us[s] - seg.before->busy_us[s];
        }
    }
    const auto max_share = [](const std::vector<double>& v) {
        double total = 0.0;
        double top = 0.0;
        for (double x : v) {
            total += x;
            top = std::max(top, x);
        }
        return total > 0.0 ? top / total : 0.0;
    };
    result.add("cluster.shard_share_max", "ratio", max_share(completed));
    result.add("cluster.shard_busy_share_max", "ratio", max_share(busy));

    // A remote-CAS hit against the first shard of a fresh fleet, over a
    // fresh connection per fetch as the remote tier makes them today.
    Fleet fleet;
    if (auto error = start_fleet(config, true, config.work_dir + "/cas-probe",
                                 fleet)) {
        result.problem("set-up: " + *error);
        result.add("remote_cas.fetch_ms", "ms", 0.0);
        return out;
    }
    psaflow::net::Endpoint endpoint;
    endpoint.kind = psaflow::net::Endpoint::Kind::Unix;
    endpoint.path = fleet.shard_sockets.front();
    const psaflow::cluster::RemoteCasClient cas(endpoint);
    const std::string payload(4096, 'r');
    const std::uint64_t key = 0x70736162656e6368ULL;
    bool fetched = cas.publish(key, payload);
    const double fetch_ms = min_ms(50, [&] {
        const auto got = cas.fetch(key);
        fetched = fetched && got.has_value() && *got == payload;
    });
    if (!fetched) result.problem("remote CAS fetch did not return the put");
    result.add("remote_cas.fetch_ms", "ms", fetch_ms);
    for (std::string& p : fleet.stop()) result.problem(p);
    return out;
}

} // namespace psabench
