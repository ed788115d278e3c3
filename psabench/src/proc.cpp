#include "proc.hpp"

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace psabench {

std::optional<ProcStatus> read_status(pid_t pid) {
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    if (!in) return std::nullopt;
    ProcStatus status;
    bool seen_hwm = false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        long long value = 0;
        fields >> key >> value;
        if (key == "VmHWM:") {
            status.vmhwm_mb = double(value) / 1024.0;
            seen_hwm = true;
        } else if (key == "VmSize:") {
            status.vmsize_mb = double(value) / 1024.0;
        } else if (key == "Threads:") {
            status.threads = long(value);
        }
    }
    if (!seen_hwm) return std::nullopt;
    return status;
}

Child::~Child() { stop(); }

Child::Child(Child&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }

Child& Child::operator=(Child&& other) noexcept {
    if (this != &other) {
        stop();
        pid_ = other.pid_;
        other.pid_ = -1;
    }
    return *this;
}

std::optional<std::string> Child::spawn(const std::vector<std::string>& argv,
                                        const std::string& log_path) {
    if (argv.empty()) return "empty command";
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();

    const pid_t pid = ::fork();
    if (pid < 0) return std::string("fork: ") + std::strerror(errno);
    if (pid == 0) {
        // Only async-signal-safe calls between fork and exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        const int fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
        }
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    pid_ = pid;
    return std::nullopt;
}

int Child::wait(int timeout_ms) {
    if (pid_ <= 0) return -1;
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
        if (rc == pid_ || (rc < 0 && errno != EINTR)) {
            pid_ = -1;
            return rc < 0 ? -1 : status;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return stop();
}

int Child::stop(int grace_ms) {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
    while (true) {
        const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
        if (rc == pid_ || (rc < 0 && errno != EINTR)) break;
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return status;
}

bool exited_cleanly(int status) {
    return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double host_probe_ms() {
    // A single-cycle permutation (Sattolo) over 4M slots of 8 bytes: every
    // step is a dependent load to an unpredictable line, so the loop's time
    // follows memory latency, which is what neighbours on the host disturb.
    constexpr std::size_t kSlots = std::size_t{1} << 22;
    constexpr std::size_t kSteps = std::size_t{1} << 20;
    auto next = std::make_unique<std::uint32_t[]>(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) next[i] = std::uint32_t(i);
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        std::swap(next[i], next[state % i]);
    }
    const auto start = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // Keep the walk observable so it cannot be optimised away.
    if (at == 0xffffffffu) return -1.0;
    return ms;
}

HostInfo host_info() {
    HostInfo info;
    info.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    info.build_type = PSABENCH_BUILD_TYPE;
    info.compiler = PSABENCH_COMPILER;
    return info;
}

} // namespace psabench
