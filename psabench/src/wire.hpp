// The harness's wire client: one request per fresh connection, as
// psaflow-client and psaflow-loadgen send them, plus the request frames
// the serving workloads send.
#pragma once

#include <optional>
#include <string>

#include "support/json.hpp"

namespace psabench {

struct Reply {
    bool transport_ok = false; ///< connected, sent and read one frame
    std::string payload;       ///< response frame (when transport_ok)
    std::string error;         ///< transport failure (when !transport_ok)
};

/// Connect to the Unix socket `path`, send `frame`, read one response
/// frame and close. `timeout_ms` caps each receive.
[[nodiscard]] Reply round_trip(const std::string& path,
                               const std::string& frame,
                               long long timeout_ms = 60000);

/// Send `frame` and parse the response document; nullopt on any transport
/// or parse failure.
[[nodiscard]] std::optional<psaflow::json::Value>
request_doc(const std::string& path, const std::string& frame);

/// {"type":"ping"} until a pong arrives or `timeout_ms` passes.
[[nodiscard]] bool wait_ready(const std::string& path, long long timeout_ms);

/// A compile request frame for `app`. It names no output directory, so the
/// daemon writes into a fresh `<--out root>/<app>-<sequence>` directory,
/// as for requests from psaflow-client and psaflow-loadgen.
[[nodiscard]] psaflow::json::Value compile_request(const std::string& app);

} // namespace psabench
