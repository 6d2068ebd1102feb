#include "server.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "net/client.h"

namespace perfbench {

namespace {

constexpr const char* kProbeDag =
    "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nPARENT a CHILD b c\n";

using Clock = std::chrono::steady_clock;

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  std::vector<std::string> argv_s = {binary, "--port", "0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe failed");
  const auto start = Clock::now();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The server must not outlive a benchmark that dies abnormally.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);

  // Read the banner line; it is printed once the listener is bound.
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos) {
    const ssize_t r = read(out[0], &c, 1);
    if (r == 1) {
      banner.push_back(c);
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      close(out[0]);
      throw std::runtime_error("priod_server exited before listening");
    }
  }
  // The remaining output (the drain summary) is small; let the pipe
  // buffer hold it until the destructor closes our end.
  const std::size_t colon = banner.find(':', banner.find("listening on"));
  if (colon == std::string::npos) {
    close(out[0]);
    throw std::runtime_error("unexpected banner: " + banner);
  }
  port_ = static_cast<std::uint16_t>(std::stoul(banner.substr(colon + 1)));

  prio::net::Client client;
  client.connect("127.0.0.1", port_);
  const prio::net::Response r = client.call(kProbeDag);
  setup_s_ = std::chrono::duration<double>(Clock::now() - start).count();
  close(out[0]);
  if (!r.ok()) throw std::runtime_error("probe request failed: " + r.payload);
}

ServerProcess::~ServerProcess() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double ServerProcess::cpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name: state is field 3,
  // utime field 14 and stime field 15.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::peakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

std::map<std::string, double> ServerProcess::scrape() const {
  std::map<std::string, double> out;
  std::istringstream body(
      prio::net::Client::fetchMetrics("127.0.0.1", port_));
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty() || line[0] == '#' ||
        line.find('{') != std::string::npos) {
      continue;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

}  // namespace perfbench
