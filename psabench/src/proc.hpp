// Processes and host facts: spawning and stopping the serving binaries,
// /proc/<pid>/status readings, and the host record printed with every
// result (core count, build type, compiler, reference-loop time).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace psabench {

/// The memory figures of /proc/<pid>/status (pid 0 = this process).
struct ProcStatus {
    double vmhwm_mb = 0.0;  ///< peak resident set
    double vmsize_mb = 0.0; ///< mapped virtual memory
    long threads = 0;
};
[[nodiscard]] std::optional<ProcStatus> read_status(pid_t pid);

/// A child process the harness owns. It dies with the harness
/// (PR_SET_PDEATHSIG) and is stopped, and waited for, by stop() or the
/// destructor, so no run leaves a process behind.
class Child {
public:
    Child() = default;
    ~Child();
    Child(const Child&) = delete;
    Child& operator=(const Child&) = delete;
    Child(Child&& other) noexcept;
    Child& operator=(Child&& other) noexcept;

    /// Start argv[0] with `argv`; stdout and stderr go to `log_path`.
    /// Returns an error message on failure.
    [[nodiscard]] std::optional<std::string>
    spawn(const std::vector<std::string>& argv, const std::string& log_path);

    /// SIGTERM, then SIGKILL after `grace_ms`; always reaps. Returns the
    /// exit status as waitpid reports it, or -1 when nothing was running.
    int stop(int grace_ms = 5000);

    /// Wait up to `timeout_ms` for the child to exit on its own, then stop
    /// it. Returns the waitpid status (-1 when nothing was running).
    int wait(int timeout_ms);

    [[nodiscard]] pid_t pid() const { return pid_; }
    [[nodiscard]] bool running() const { return pid_ > 0; }

private:
    pid_t pid_ = -1;
};

/// True when waitpid `status` means "exited with code 0".
[[nodiscard]] bool exited_cleanly(int status);

/// A fixed memory-touching reference loop (a dependent walk over a 16 MiB
/// buffer); its time shows host drift beside the numbers. A diagnostic
/// only: no metric is ever scaled by it.
[[nodiscard]] double host_probe_ms();

struct HostInfo {
    long nproc = 0;
    std::string build_type;
    std::string compiler;
};
[[nodiscard]] HostInfo host_info();

} // namespace psabench
