// priod_server as a child process, observed only from outside: its stdout
// banner, /proc/<pid>, and the counters it exports on GET /metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Launches `binary` with `args` plus `--port 0`, waits for the
  /// "listening on ADDR:PORT" banner, then sends a three-job dag until it
  /// answers kOk. setupSeconds() is launch-to-first-ok.
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args);
  /// SIGTERM, then waits for the process (SIGKILL after 10 s).
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] double setupSeconds() const { return setup_s_; }

  /// User + system CPU seconds of the whole process (/proc/<pid>/stat).
  [[nodiscard]] double cpuSeconds() const;
  /// Peak resident set (VmHWM in /proc/<pid>/status), in MB.
  [[nodiscard]] double peakRssMb() const;
  /// Every unlabelled sample of GET /metrics, by name.
  [[nodiscard]] std::map<std::string, double> scrape() const;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace perfbench
