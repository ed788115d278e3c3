#include "wire.hpp"

#include <chrono>
#include <thread>

#include "serve/protocol.hpp"
#include "support/net.hpp"

namespace psabench {

namespace json = psaflow::json;
namespace net = psaflow::net;

Reply round_trip(const std::string& path, const std::string& frame,
                 long long timeout_ms) {
    Reply reply;
    net::Fd conn = net::connect_unix(path, &reply.error);
    if (!conn.valid()) return reply;
    net::set_recv_timeout(conn.get(), timeout_ms);
    if (!net::write_frame(conn.get(), frame)) {
        reply.error = "write failed";
        return reply;
    }
    const net::FrameStatus status = net::read_frame(conn.get(), reply.payload);
    if (status != net::FrameStatus::Ok) {
        reply.error = std::string("read: ") + net::to_string(status);
        return reply;
    }
    reply.transport_ok = true;
    return reply;
}

std::optional<json::Value> request_doc(const std::string& path,
                                       const std::string& frame) {
    const Reply reply = round_trip(path, frame);
    if (!reply.transport_ok) return std::nullopt;
    return json::parse(reply.payload);
}

bool wait_ready(const std::string& path, long long timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    const std::string ping = R"({"type":"ping"})";
    while (std::chrono::steady_clock::now() < deadline) {
        const Reply reply = round_trip(path, ping, 1000);
        if (reply.transport_ok) {
            const auto doc = json::parse(reply.payload);
            if (doc.has_value() && doc->find("ok") != nullptr &&
                doc->find("ok")->bool_or(false))
                return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

json::Value compile_request(const std::string& app) {
    json::Value doc = json::Value::object();
    doc.set("schema_version",
            json::Value::number(double(psaflow::serve::kSchemaVersion)));
    doc.set("type", json::Value::string("compile"));
    doc.set("app", json::Value::string(app));
    return doc;
}

} // namespace psabench
