// Shared pieces of the timed and traced runs: options, the reply ledger,
// closed- and open-loop drivers over net::Client, and result printing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "inputs.h"
#include "net/client.h"
#include "server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::vector<std::string> server_args;
  std::string out_dir = ".";
  double rate = 0;          ///< fixed open-loop offered rate, dags/s (mixes)
  double limit_ms = 0;      ///< latency limit on the tail percentile
  std::size_t threads = 1;  ///< nproc: generator threads and connections
  [[nodiscard]] bool mix() const { return workload != "large-dag"; }
};

[[nodiscard]] double secondsSince(Clock::time_point t);
[[nodiscard]] double ms(Clock::duration d);
/// Nearest-rank percentile: of n samples, n * (100 - p) / 100 lie beyond.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);

[[nodiscard]] prio::net::ClientOptions clientOptions();

/// Writes `req` as one frame (a pre-encoded envelope for batches).
std::uint64_t send(prio::net::Client& client, const Request& req,
                   std::uint64_t trace_id = 0);

/// Dags of `req` answered kOk with exactly the reference bytes.
[[nodiscard]] std::size_t correctDags(const Request& req,
                                      const prio::net::Response& r);

/// Attempted and failed dags over the whole run; reports the first few
/// failures on stderr.
struct Ledger {
  std::atomic<std::size_t> attempted{0};
  std::atomic<std::size_t> failed{0};
  void record(std::size_t dags, std::size_t ok, const std::string& what);

 private:
  std::mutex mutex_;
  int reported_ = 0;
};

/// Each of `conns` connections sends its next request once the previous
/// one is answered, until the requests or `max_seconds` run out.
struct ClosedResult {
  std::vector<double> latency_ms;  ///< per request frame
  std::size_t ok_dags = 0;
  double seconds = 0;  ///< start to last completion
};
[[nodiscard]] ClosedResult closedLoop(std::uint16_t port,
                                      const std::vector<Request>& reqs,
                                      std::size_t conns, double max_seconds,
                                      Ledger& ledger);

/// Requests sent at seeded Poisson arrival times offering `rate` dags/s,
/// pipelined over `conns` connections (one receiver thread each, the
/// calling thread sends), each timed from when it was due.
struct PointResult {
  double rate = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< send time minus due time
  std::size_t backlog = 0;      ///< most requests ever due but unsent
  std::size_t failed = 0;
  double p50 = 0, p99 = 0;
  bool behind = false;  ///< generator fell behind: the point is discarded
  bool pass = false;    ///< kept, no failures, p99 within the limit
};
[[nodiscard]] PointResult openLoop(std::uint16_t port,
                                   const std::vector<Request>& reqs,
                                   double rate, std::size_t conns,
                                   std::uint64_t seed, double limit_ms,
                                   Ledger& ledger);
void printPoint(const PointResult& p);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
/// A table for people, then the one-line JSON result as the last line.
void printResult(const Ledger& ledger, bool correct,
                 const std::vector<Metric>& metrics);

/// Launches the server several times back to back and keeps the last one
/// running; returns the median launch-to-first-ok seconds.
double launch(const Options& opt, std::unique_ptr<ServerProcess>& server);

int timedRun(const Options& opt);
int tracedRun(const Options& opt);

}  // namespace perfbench
