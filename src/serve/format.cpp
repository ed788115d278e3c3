#include "serve/format.hpp"

#include "support/string_util.hpp"
#include "support/table.hpp"

namespace psaflow::serve {

namespace {

std::string integer(const json::Value* v) {
    return v == nullptr
               ? "-"
               : std::to_string(static_cast<long long>(v->number_or(0.0)));
}

std::string us_to_ms(const json::Value* v) {
    return v == nullptr ? "-"
                        : format_compact(v->number_or(0.0) / 1000.0, 4) + " ms";
}

void add_histogram_rows(TablePrinter& table, const std::string& label,
                        const json::Value* hist) {
    if (hist == nullptr || !hist->is_object()) return;
    table.add_row({label + " count", integer(hist->find("count"))});
    table.add_row({label + " mean", us_to_ms(hist->find("mean"))});
    table.add_row({label + " p50", us_to_ms(hist->find("p50"))});
    table.add_row({label + " p90", us_to_ms(hist->find("p90"))});
    table.add_row({label + " p99", us_to_ms(hist->find("p99"))});
}

} // namespace

std::string stats_table(const json::Value& stats) {
    TablePrinter table({"metric", "value"});

    if (const json::Value* v = stats.find("uptime_us"))
        table.add_row({"uptime",
                       format_compact(v->number_or(0.0) / 1e6, 4) + " s"});
    table.add_row({"workers", integer(stats.find("workers"))});
    if (const json::Value* depth = stats.find("queue_depth"))
        table.add_row({"queue",
                       integer(depth) + " / " +
                           integer(stats.find("queue_capacity"))});
    table.add_row({"in flight", integer(stats.find("in_flight"))});
    if (const json::Value* v = stats.find("draining"))
        table.add_row({"draining", v->bool_or(false) ? "yes" : "no"});

    table.add_separator();
    if (const json::Value* requests = stats.find("requests")) {
        table.add_row({"requests", integer(requests->find("received"))});
        table.add_row({"  completed", integer(requests->find("completed"))});
        table.add_row({"  failed", integer(requests->find("failed"))});
        table.add_row({"  bad request", integer(requests->find("bad_request"))});
        table.add_row(
            {"  overloaded", integer(requests->find("rejected_overload"))});
        table.add_row(
            {"  deadline", integer(requests->find("deadline_exceeded"))});
    }
    table.add_row({"connections", integer(stats.find("connections"))});

    table.add_separator();
    add_histogram_rows(table, "latency", stats.find("request_latency_us"));
    add_histogram_rows(table, "queue wait", stats.find("queue_wait_us"));

    if (const json::Value* cache = stats.find("cache")) {
        table.add_separator();
        if (const json::Value* v = cache->find("cas_hit_rate"))
            table.add_row({"cas hit rate",
                           format_compact(100.0 * v->number_or(0.0), 4) + "%"});
        if (const json::Value* v = cache->find("profile_cache_hit_rate"))
            table.add_row({"profile hit rate",
                           format_compact(100.0 * v->number_or(0.0), 4) + "%"});
    }
    if (const json::Value* memo = stats.find("flow_cache"))
        table.add_row({"result memo", integer(memo->find("entries")) +
                                          " entries, " +
                                          integer(memo->find("bytes")) +
                                          " bytes"});
    return table.to_string();
}

std::string logs_text(const json::Value& logs_response) {
    std::string out;
    const json::Value* records = logs_response.find("records");
    if (records == nullptr || !records->is_array()) return out;
    for (const json::Value& record : records->elements) {
        const json::Value* line = record.find("line");
        if (line != nullptr) {
            out += line->string_or("");
            out += '\n';
        }
    }
    return out;
}

} // namespace psaflow::serve
