// Process-footprint probes for the serving tests. A server that keeps a
// thread (and its stack) per finished connection shows as VmSize and
// /proc/self/maps growth over many sequential connections.
#pragma once

#include <malloc.h>
#include <sys/socket.h>

#include <fstream>
#include <optional>
#include <string>

#include "support/json.hpp"
#include "support/net.hpp"

namespace psaflow::footprint {

struct Footprint {
    long long vmsize_kb = 0; ///< VmSize from /proc/self/status
    long long maps = 0;      ///< lines in /proc/self/maps
};

inline Footprint read() {
    Footprint out;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmSize:", 0) == 0)
            out.vmsize_kb = std::stoll(line.substr(7));
    std::ifstream maps("/proc/self/maps");
    for (std::string line; std::getline(maps, line);) ++out.maps;
    return out;
}

/// `n` sequential pings, each on a fresh connection to the Unix socket
/// that ends before the next begins: the client half-closes after the
/// pong and waits for the server to close its end. False at the first
/// ping that does not come back ok or whose connection is not closed.
inline bool ping_sequentially(const std::string& socket_path, int n) {
    for (int i = 0; i < n; ++i) {
        net::Fd conn = net::connect_unix(socket_path, nullptr);
        std::string payload;
        if (!conn.valid() ||
            !net::write_frame(conn.get(), R"({"type":"ping"})") ||
            net::read_frame(conn.get(), payload) != net::FrameStatus::Ok)
            return false;
        const auto doc = json::parse(payload);
        if (!doc.has_value() || doc->find("ok") == nullptr ||
            !doc->find("ok")->bool_value)
            return false;
        ::shutdown(conn.get(), SHUT_WR);
        if (net::read_frame(conn.get(), payload) != net::FrameStatus::Eof)
            return false;
    }
    return true;
}

/// Footprint growth over `n` sequential pings, measured after a warm-up
/// whose first connections create the thread stacks later connections
/// reuse. nullopt when a ping fails.
///
/// glibc reserves 64 MB of address space for each malloc arena and adds
/// one whenever a new thread's first allocation finds every arena taken,
/// so with many arenas VmSize would also count how many connection
/// threads happened to overlap for a moment, which scheduling decides.
/// Capping the arenas (this process only) leaves the stacks and mappings
/// that a server keeps per connection as the thing measured.
inline std::optional<Footprint>
growth_over_pings(const std::string& socket_path, int n) {
    ::mallopt(M_ARENA_MAX, 1);
    if (!ping_sequentially(socket_path, 50)) return std::nullopt;
    const Footprint before = read();
    if (!ping_sequentially(socket_path, n)) return std::nullopt;
    const Footprint after = read();
    return Footprint{after.vmsize_kb - before.vmsize_kb,
                     after.maps - before.maps};
}

} // namespace psaflow::footprint
