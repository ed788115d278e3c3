#include "serve/connection_core.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/log.hpp"
#include "serve/protocol.hpp"

namespace psaflow::serve {

ConnectionCore::ConnectionCore(std::string log_component,
                               long long recv_timeout_ms,
                               HandlerFactory make_handler)
    : log_component_(std::move(log_component)),
      recv_timeout_ms_(recv_timeout_ms),
      make_handler_(std::move(make_handler)) {}

ConnectionCore::~ConnectionCore() {
    notify_shutdown();
    join_connections();
}

std::optional<std::string>
ConnectionCore::start(const std::string& socket_path,
                      const std::string& listen_tcp) {
    if (socket_path.empty() && listen_tcp.empty())
        return "no listener configured (need a socket path or --listen)";

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) return "cannot create self-pipe";
    wake_read_.reset(pipe_fds[0]);
    wake_write_.reset(pipe_fds[1]);
    ::fcntl(wake_write_.get(), F_SETFL, O_NONBLOCK);

    std::string error;
    if (!socket_path.empty()) {
        unix_listener_ = net::listen_unix(socket_path, /*backlog=*/64, &error);
        if (!unix_listener_.valid()) return error;
        socket_path_ = socket_path;
    }
    if (!listen_tcp.empty()) {
        auto endpoint = net::parse_endpoint(listen_tcp, &error);
        if (!endpoint.has_value()) return error;
        if (endpoint->kind != net::Endpoint::Kind::Tcp)
            return "--listen expects host:port, got '" + listen_tcp + "'";
        tcp_listener_ = net::listen_tcp(endpoint->host, endpoint->port,
                                        /*backlog=*/64, &error);
        if (!tcp_listener_.valid()) return error;
        tcp_port_ = net::local_port(tcp_listener_.get());
    }
    return std::nullopt;
}

void ConnectionCore::accept_until_shutdown() {
    while (true) {
        const int ready = net::wait_readable_any(
            {unix_listener_.get(), tcp_listener_.get(), wake_read_.get()}, -1);
        const bool is_listener =
            (unix_listener_.valid() && ready == unix_listener_.get()) ||
            (tcp_listener_.valid() && ready == tcp_listener_.get());
        if (!is_listener) break; // shutdown wake (or poll failure)
        net::Fd conn = net::accept_connection(ready);
        if (!conn.valid()) continue;

        // The thread registers under the lock it takes again in retire(),
        // so it cannot retire before it is in live_.
        std::lock_guard lock(threads_mu_);
        const std::uint64_t seq = connections_.fetch_add(1);
        try {
            live_.emplace(seq, std::thread([this, seq,
                                            fd = std::move(conn)]() mutable {
                serve(std::move(fd), seq);
                retire(seq);
            }));
        } catch (const std::system_error& e) {
            // Out of threads: drop this connection (its fd closed with the
            // lambda), keep serving the open ones.
            obs::warn(log_component_, "cannot start connection thread",
                      {{"error", e.what()}});
        }
    }

    // Stop accepting and leave no trace on disk — the smoke tests assert
    // the socket file is gone. notify_shutdown() also covers a poll
    // failure: connection threads wait on the self-pipe.
    notify_shutdown();
    unix_listener_.reset();
    tcp_listener_.reset();
    if (!socket_path_.empty()) {
        std::error_code ec;
        std::filesystem::remove(socket_path_, ec);
    }
}

void ConnectionCore::notify_shutdown() noexcept {
    shutting_down_.store(true);
    if (wake_write_.valid()) {
        const char byte = 'q';
        [[maybe_unused]] ssize_t rc = ::write(wake_write_.get(), &byte, 1);
    }
}

void ConnectionCore::serve(net::Fd conn, std::uint64_t seq) {
    const Handler handle = make_handler_(seq);
    net::set_recv_timeout(conn.get(), recv_timeout_ms_);
    while (!shutting_down_.load()) {
        const int ready =
            net::wait_readable_any({conn.get(), wake_read_.get()}, -1);
        if (ready != conn.get()) break; // shutdown wake or poll failure

        std::string payload;
        const net::FrameStatus status = net::read_frame(conn.get(), payload);
        if (status == net::FrameStatus::Eof ||
            status == net::FrameStatus::Error)
            break;
        if (status != net::FrameStatus::Ok) {
            obs::warn(log_component_, "malformed frame, closing connection",
                      {{"status", net::to_string(status)}});
            (void)net::write_frame(
                conn.get(),
                json::dump(make_error_response(
                    ErrorKind::BadRequest,
                    std::string("malformed frame: ") +
                        net::to_string(status))));
            break;
        }

        frames_.fetch_add(1);
        std::string parse_error;
        const auto doc = json::parse(payload, &parse_error);
        std::string response;
        if (doc.has_value()) {
            try {
                response = handle(*doc, payload);
            } catch (const std::exception& e) {
                // A failing handler costs one request, not the process.
                obs::error(log_component_, "request handler failed",
                           {{"error", e.what()}});
                response = json::dump(make_error_response(
                    ErrorKind::Internal,
                    std::string("request failed: ") + e.what()));
            }
        } else {
            invalid_json_.fetch_add(1);
            response = json::dump(make_error_response(
                ErrorKind::BadRequest, "invalid JSON: " + parse_error));
        }
        if (!net::write_frame(conn.get(), response)) break;
    }
}

void ConnectionCore::retire(std::uint64_t seq) {
    std::thread previous;
    {
        std::lock_guard lock(threads_mu_);
        auto it = live_.find(seq);
        if (it == live_.end()) return; // join_connections() owns the join
        previous = std::exchange(finished_, std::move(it->second));
        live_.erase(it);
    }
    if (previous.joinable()) previous.join();
}

void ConnectionCore::join_connections() {
    while (true) {
        std::thread next;
        {
            std::lock_guard lock(threads_mu_);
            if (!live_.empty()) {
                next = std::move(live_.begin()->second);
                live_.erase(live_.begin());
            } else {
                next = std::move(finished_);
            }
        }
        if (!next.joinable()) return;
        next.join();
    }
}

} // namespace psaflow::serve
