#include "support/net.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/string_util.hpp"

namespace psaflow::net {

void Fd::reset(int fd) {
    if (fd_ >= 0) {
        // Retrying close on EINTR is wrong on Linux (the fd is gone either
        // way); a single close is the portable-enough behaviour here.
        ::close(fd_);
    }
    fd_ = fd;
}

bool read_exact(int fd, void* buf, std::size_t size, std::size_t* got) {
    auto* out = static_cast<unsigned char*>(buf);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, out + done, size - done);
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0) errno = 0; // clean EOF — read(2) leaves errno untouched
        break;
    }
    if (got != nullptr) *got = done;
    return done == size;
}

bool write_exact(int fd, const void* buf, std::size_t size) {
    const auto* data = static_cast<const unsigned char*>(buf);
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, data + done, size - done);
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

const char* to_string(FrameStatus status) {
    switch (status) {
        case FrameStatus::Ok: return "ok";
        case FrameStatus::Eof: return "eof";
        case FrameStatus::Torn: return "torn frame";
        case FrameStatus::TooLarge: return "frame too large";
        case FrameStatus::Error: return "read error";
    }
    return "?";
}

namespace {
/// read_frame grows its buffer by at most this much per read, so a peer
/// that declares a large frame and stalls holds at most one step more
/// than it has sent.
constexpr std::size_t kFrameReadStep = 1u << 20;

void store_u32(unsigned char* out, std::uint32_t v) {
    out[0] = static_cast<unsigned char>(v);
    out[1] = static_cast<unsigned char>(v >> 8);
    out[2] = static_cast<unsigned char>(v >> 16);
    out[3] = static_cast<unsigned char>(v >> 24);
}

std::uint32_t load_u32(const unsigned char* in) {
    return static_cast<std::uint32_t>(in[0]) |
           static_cast<std::uint32_t>(in[1]) << 8 |
           static_cast<std::uint32_t>(in[2]) << 16 |
           static_cast<std::uint32_t>(in[3]) << 24;
}
} // namespace

FrameStatus read_frame(int fd, std::string& payload) {
    unsigned char header[8];
    std::size_t got = 0;
    if (!read_exact(fd, header, sizeof header, &got)) {
        if (got == 0) // errno == 0 marks clean EOF (see read_exact)
            return errno == 0 ? FrameStatus::Eof : FrameStatus::Error;
        return FrameStatus::Torn;
    }
    if (load_u32(header) != kFrameMagic) return FrameStatus::Torn;
    const std::uint32_t length = load_u32(header + 4);
    if (length > kMaxFramePayload) return FrameStatus::TooLarge;
    payload.clear();
    while (payload.size() < length) {
        const std::size_t have = payload.size();
        const std::size_t step =
            std::min<std::size_t>(length - have, kFrameReadStep);
        payload.resize(have + step);
        if (!read_exact(fd, payload.data() + have, step))
            return FrameStatus::Torn;
    }
    return FrameStatus::Ok;
}

const char* to_string(WriteStatus status) {
    switch (status) {
        case WriteStatus::Ok: return "ok";
        case WriteStatus::TooLarge: return "frame too large";
        case WriteStatus::Error: return "write error";
    }
    return "?";
}

WriteStatus write_frame_status(int fd, std::string_view payload) {
    if (payload.size() > kMaxFramePayload) return WriteStatus::TooLarge;
    unsigned char header[8];
    store_u32(header, kFrameMagic);
    store_u32(header + 4, static_cast<std::uint32_t>(payload.size()));
    if (!write_exact(fd, header, sizeof header)) return WriteStatus::Error;
    if (!write_exact(fd, payload.data(), payload.size()))
        return WriteStatus::Error;
    return WriteStatus::Ok;
}

namespace {
bool fill_unix_addr(const std::string& path, sockaddr_un& addr,
                    std::string* error) {
    if (path.empty() || path.size() >= sizeof addr.sun_path) {
        if (error != nullptr)
            *error = "socket path '" + path + "' is empty or too long (max " +
                     std::to_string(sizeof addr.sun_path - 1) + " bytes)";
        return false;
    }
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

std::string errno_message(const std::string& what) {
    return what + ": " + std::strerror(errno);
}
} // namespace

std::string Endpoint::describe() const {
    if (kind == Kind::Unix) return "unix:" + path;
    return host + ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(const std::string& spec,
                                       std::string* error) {
    const auto fail = [&](const std::string& message) -> std::optional<Endpoint> {
        if (error != nullptr) *error = message;
        return std::nullopt;
    };
    if (spec.empty()) return fail("empty endpoint spec");

    std::string rest = spec;
    bool force_tcp = false;
    if (starts_with(rest, "unix:")) {
        Endpoint ep;
        ep.kind = Endpoint::Kind::Unix;
        ep.path = rest.substr(5);
        if (ep.path.empty()) return fail("unix endpoint has an empty path");
        return ep;
    }
    if (starts_with(rest, "tcp:")) {
        force_tcp = true;
        rest = rest.substr(4);
    }

    // A bare "host:port" is TCP only when it looks like one: exactly one
    // ':' splitting a non-empty host (no '/', so relative socket paths with
    // colons stay Unix) from a numeric port.
    const std::size_t colon = rest.rfind(':');
    const bool tcp_shaped = colon != std::string::npos && colon > 0 &&
                            rest.find('/') == std::string::npos &&
                            rest.find(':') == colon;
    if (force_tcp || tcp_shaped) {
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= rest.size())
            return fail("tcp endpoint '" + spec +
                        "' is not of the form host:port");
        const auto port = parse_int(rest.substr(colon + 1));
        if (!port.has_value() || *port < 0 || *port > 65535)
            return fail("tcp endpoint '" + spec + "' has an invalid port");
        Endpoint ep;
        ep.kind = Endpoint::Kind::Tcp;
        ep.host = rest.substr(0, colon);
        ep.port = static_cast<std::uint16_t>(*port);
        return ep;
    }

    Endpoint ep;
    ep.kind = Endpoint::Kind::Unix;
    ep.path = rest;
    return ep;
}

Fd listen_unix(const std::string& path, int backlog, std::string* error) {
    sockaddr_un addr;
    if (!fill_unix_addr(path, addr, error)) return Fd();

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        if (error != nullptr) *error = errno_message("socket");
        return Fd();
    }
    ::unlink(path.c_str()); // stale socket file from a crashed daemon
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
        if (error != nullptr) *error = errno_message("bind '" + path + "'");
        return Fd();
    }
    if (::listen(fd.get(), backlog) != 0) {
        if (error != nullptr) *error = errno_message("listen '" + path + "'");
        return Fd();
    }
    return fd;
}

Fd connect_unix(const std::string& path, std::string* error) {
    sockaddr_un addr;
    if (!fill_unix_addr(path, addr, error)) return Fd();

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        if (error != nullptr) *error = errno_message("socket");
        return Fd();
    }
    int rc;
    do {
        rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        if (error != nullptr) *error = errno_message("connect '" + path + "'");
        return Fd();
    }
    return fd;
}

namespace {

/// Resolve host:port for socket(2)/bind(2)/connect(2). getaddrinfo handles
/// numeric addresses and names alike; we take the first AF_INET/AF_INET6
/// result (the daemon's serving surface is a LAN, not multi-homing).
struct ResolvedAddr {
    addrinfo* list = nullptr;
    ~ResolvedAddr() {
        if (list != nullptr) ::freeaddrinfo(list);
    }
};

bool resolve_tcp(const std::string& host, std::uint16_t port, bool passive,
                 ResolvedAddr& out, std::string* error) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_protocol = IPPROTO_TCP;
    if (passive) hints.ai_flags = AI_PASSIVE;
    const std::string service = std::to_string(port);
    const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                 service.c_str(), &hints, &out.list);
    if (rc != 0) {
        if (error != nullptr)
            *error = "resolve '" + host + ":" + service +
                     "': " + ::gai_strerror(rc);
        return false;
    }
    return true;
}

} // namespace

Fd listen_tcp(const std::string& host, std::uint16_t port, int backlog,
              std::string* error) {
    ResolvedAddr addr;
    if (!resolve_tcp(host, port, /*passive=*/true, addr, error)) return Fd();
    for (addrinfo* ai = addr.list; ai != nullptr; ai = ai->ai_next) {
        Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
        if (!fd.valid()) continue;
        const int one = 1;
        ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) continue;
        if (::listen(fd.get(), backlog) != 0) continue;
        return fd;
    }
    if (error != nullptr)
        *error = errno_message("listen '" + host + ":" +
                               std::to_string(port) + "'");
    return Fd();
}

Fd connect_tcp(const std::string& host, std::uint16_t port,
               std::string* error) {
    ResolvedAddr addr;
    if (!resolve_tcp(host, port, /*passive=*/false, addr, error)) return Fd();
    for (addrinfo* ai = addr.list; ai != nullptr; ai = ai->ai_next) {
        Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
        if (!fd.valid()) continue;
        int rc;
        do {
            rc = ::connect(fd.get(), ai->ai_addr, ai->ai_addrlen);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) continue;
        const int one = 1;
        ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        return fd;
    }
    if (error != nullptr)
        *error = errno_message("connect '" + host + ":" +
                               std::to_string(port) + "'");
    return Fd();
}

Fd connect_endpoint(const Endpoint& ep, std::string* error) {
    if (ep.kind == Endpoint::Kind::Unix)
        return connect_unix(ep.path, error);
    return connect_tcp(ep.host, ep.port, error);
}

bool exchange(const Endpoint& endpoint, std::string_view payload,
              long long recv_timeout_ms, std::string& response,
              std::string* error) {
    Fd conn = connect_endpoint(endpoint, error);
    if (!conn.valid()) return false;
    set_recv_timeout(conn.get(), recv_timeout_ms);
    if (!write_frame(conn.get(), payload)) {
        if (error != nullptr) *error = errno_message("write");
        return false;
    }
    const FrameStatus status = read_frame(conn.get(), response);
    if (status == FrameStatus::Ok) return true;
    if (error != nullptr) *error = std::string("read: ") + to_string(status);
    return false;
}

std::uint16_t local_port(int fd) {
    sockaddr_storage storage{};
    socklen_t len = sizeof storage;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&storage), &len) != 0)
        return 0;
    if (storage.ss_family == AF_INET)
        return ntohs(reinterpret_cast<sockaddr_in*>(&storage)->sin_port);
    if (storage.ss_family == AF_INET6)
        return ntohs(reinterpret_cast<sockaddr_in6*>(&storage)->sin6_port);
    return 0;
}

Fd accept_connection(int listen_fd) {
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) return Fd(fd);
        if (errno != EINTR) return Fd();
    }
}

bool socket_pair(Fd& a, Fd& b) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
    a.reset(fds[0]);
    b.reset(fds[1]);
    return true;
}

void set_recv_timeout(int fd, long long ms) {
    timeval tv{};
    if (ms > 0) {
        tv.tv_sec = static_cast<time_t>(ms / 1000);
        tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    }
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

int wait_readable_any(const std::vector<int>& fds, int timeout_ms) {
    std::vector<pollfd> poll_fds;
    poll_fds.reserve(fds.size());
    for (int fd : fds)
        if (fd >= 0) poll_fds.push_back(pollfd{fd, POLLIN, 0});
    if (poll_fds.empty()) return -1;
    for (;;) {
        const int rc = ::poll(poll_fds.data(),
                              static_cast<nfds_t>(poll_fds.size()),
                              timeout_ms);
        if (rc < 0 && errno == EINTR) continue;
        if (rc <= 0) return -1;
        for (const pollfd& pfd : poll_fds) {
            if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                return pfd.fd;
        }
        return -1;
    }
}

} // namespace psaflow::net
