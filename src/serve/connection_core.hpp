// The connection plumbing psaflowd and psaflow-router share. The owner
// supplies what a request means (a handler per connection); the core owns
// the listeners, the shutdown self-pipe, the accept loop and one thread
// per connection.
//
// Each connection thread polls {connection, self-pipe}, so an idle
// connection waits without a timeout; once a frame is being read,
// SO_RCVTIMEO (`recv_timeout_ms`) caps a stalled peer. A torn or oversized
// frame gets a bad_request and the connection closes (the stream is out
// of sync); a frame that is not JSON gets "invalid JSON: …" and the
// connection stays open; every parsed document goes to the handler, whose
// return value is the response frame. Requests on one connection are
// answered in order; concurrency comes from concurrent connections.
//
// A connection thread that finishes joins the one that finished before
// it, so at most one finished thread is left unjoined: threads, stacks and
// VmSize follow the connections open at once, not the number served.
//
// Drain: notify_shutdown() (async-signal-safe) wakes every poller;
// accept_until_shutdown() then closes the listeners, unlinks the socket
// file and returns; join_connections() waits for each connection to finish
// the request it is serving.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "support/json.hpp"
#include "support/net.hpp"

namespace psaflow::serve {

class ConnectionCore {
public:
    /// Answers one parsed request document (with the raw frame payload it
    /// was parsed from) with the response payload.
    using Handler = std::function<std::string(const json::Value& doc,
                                              const std::string& payload)>;
    /// Builds a connection's handler, on that connection's thread. `seq`
    /// numbers connections 0, 1, 2, … in accept order.
    using HandlerFactory = std::function<Handler(std::uint64_t seq)>;

    /// `log_component` labels the core's log lines ("serve",
    /// "cluster.router"); `recv_timeout_ms` caps mid-frame peer stalls.
    ConnectionCore(std::string log_component, long long recv_timeout_ms,
                   HandlerFactory make_handler);
    ~ConnectionCore();

    ConnectionCore(const ConnectionCore&) = delete;
    ConnectionCore& operator=(const ConnectionCore&) = delete;

    /// Create the self-pipe and bind the listeners: a Unix socket at
    /// `socket_path` and/or TCP at `listen_tcp` ("host:port"; port 0 binds
    /// ephemeral). An empty string skips that listener; at least one is
    /// required. Returns an error message on failure.
    [[nodiscard]] std::optional<std::string>
    start(const std::string& socket_path, const std::string& listen_tcp);

    /// Accept connections until notify_shutdown(), then stop accepting:
    /// close the listeners and unlink the socket file.
    void accept_until_shutdown();

    /// Join every connection thread (after notify_shutdown()).
    void join_connections();

    /// Request shutdown. Async-signal-safe (one write(2) to the
    /// self-pipe); callable from signal handlers and other threads.
    void notify_shutdown() noexcept;

    [[nodiscard]] bool shutting_down() const { return shutting_down_.load(); }

    /// The bound TCP port after start(); 0 without a TCP listener.
    [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

    /// Connections accepted so far.
    [[nodiscard]] std::uint64_t connections() const {
        return connections_.load();
    }
    /// Well-formed frames received (requests, parseable or not).
    [[nodiscard]] std::uint64_t frames() const { return frames_.load(); }
    /// Frames answered with "invalid JSON" without reaching a handler.
    [[nodiscard]] std::uint64_t invalid_json() const {
        return invalid_json_.load();
    }

private:
    void serve(net::Fd conn, std::uint64_t seq);
    /// Last act of connection `seq`'s thread: park its own std::thread as
    /// the finished one and join the thread parked before it.
    void retire(std::uint64_t seq);

    const std::string log_component_;
    const long long recv_timeout_ms_;
    const HandlerFactory make_handler_;
    std::string socket_path_;
    net::Fd unix_listener_;
    net::Fd tcp_listener_;
    std::uint16_t tcp_port_ = 0;
    net::Fd wake_read_;
    net::Fd wake_write_;
    std::atomic<bool> shutting_down_{false};

    std::mutex threads_mu_;
    std::map<std::uint64_t, std::thread> live_; ///< connection threads by seq
    std::thread finished_; ///< the latest finished thread, not yet joined

    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> frames_{0};
    std::atomic<std::uint64_t> invalid_json_{0};
};

} // namespace psaflow::serve
