// perfbench_loadgen — drives one priod_server process with one workload
// and prints the benchmark's metrics; see README.md in this directory.
//
//   perfbench_loadgen --workload W --seed N --seconds S --trace 0|1
//                     --server PATH [--server-arg ARG]... --limit-ms L
//                     [--rate R] [--out-dir DIR]
//   perfbench_loadgen --selftest 1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced per-layer pass (traced.cpp). Either way the last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"},
// and the exit status is nonzero when any reply differed from its
// reference.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "harness.h"
#include "workload.h"

namespace perfbench {

namespace {

/// Open-loop rate points of a mix on fresh dags from the stream.
class RatePoints {
 public:
  RatePoints(const Options& opt, Stream& stream, std::uint16_t port,
             Ledger& ledger)
      : opt_(opt), stream_(stream), port_(port), ledger_(ledger) {}

  PointResult run(double rate, std::size_t dags) {
    const std::vector<Request> reqs = stream_.take(dags);
    PointResult p = openLoop(port_, reqs, rate, conns(), ++seed_,
                             opt_.limit_ms, ledger_);
    printPoint(p);
    return p;
  }

  /// A sweep point: the workload's `points` dags, or more so that it lasts
  /// at least two seconds; a shorter point above capacity ends before its
  /// backlog has pushed p99 past the limit.
  PointResult run(double rate) {
    return run(rate, std::max(sizes_.points, static_cast<std::size_t>(
                                                 2.0 * rate)));
  }

  /// The median p50 and p99 of the workload's fixed-rate readings. A
  /// reading where the generator fell behind is discarded and taken again,
  /// at most twice in all; past that the run fails rather than report the
  /// generator's lateness as the server's latency.
  std::pair<double, double> fixedRate() {
    constexpr std::size_t kMaxDiscarded = 2;
    std::vector<double> p50s, p99s;
    std::size_t discarded = 0;
    while (p50s.size() < sizes_.readings) {
      const PointResult p = run(opt_.rate, sizes_.fixed);
      if (p.behind && ++discarded > kMaxDiscarded) {
        throw std::runtime_error(
            "the generator fell behind on three fixed-rate readings; no "
            "latency is reported");
      }
      if (p.behind) continue;
      p50s.push_back(p.p50);
      p99s.push_back(p.p99);
    }
    std::printf("fixed rate: median of %zu readings reported, %zu discarded\n",
                p50s.size(), discarded);
    return {median(p50s), median(p99s)};
  }

  [[nodiscard]] std::size_t conns() const {
    return std::max<std::size_t>(1, opt_.threads - 1);
  }

 private:
  const Options& opt_;
  Stream& stream_;
  std::uint16_t port_;
  Ledger& ledger_;
  Sizes sizes_ = sizesOf(opt_.workload);
  std::uint64_t seed_ = opt_.seed * 1000;
};

/// The highest offered rate within the p99 limit: a geometric sweep from
/// `start` up (or down) until one rate meets the limit and one misses it,
/// then one point where log-latency interpolates to the limit; returns
/// that interpolation over the final bracket.
double sweep(RatePoints& points, const PointResult& start, double limit_ms,
             double budget_s) {
  const Clock::time_point t0 = Clock::now();
  std::vector<PointResult> passes, fails;
  (start.pass ? passes : fails).push_back(start);
  constexpr double kStep = 1.4;
  constexpr std::size_t kMaxPoints = 10;
  double rate = start.rate;
  while (passes.size() + fails.size() < kMaxPoints &&
         secondsSince(t0) < budget_s && (passes.empty() || fails.empty())) {
    rate = fails.empty() ? rate * kStep : rate / kStep;
    PointResult p = points.run(rate);
    (p.pass ? passes : fails).push_back(p);
  }
  if (passes.empty()) return 0;
  auto by_rate = [](const PointResult& a, const PointResult& b) {
    return a.rate < b.rate;
  };
  // Where p99 reaches the limit on a log-latency line between the best
  // passing and the lowest failing rate, or their geometric midpoint when
  // the failing point did not miss the limit itself.
  auto estimate = [&] {
    const PointResult& lo =
        *std::max_element(passes.begin(), passes.end(), by_rate);
    const PointResult& hi =
        *std::min_element(fails.begin(), fails.end(), by_rate);
    if (hi.rate <= lo.rate) return lo.rate;
    double t = 0.5;
    if (hi.p99 > limit_ms && std::isfinite(hi.p99) && hi.p99 > lo.p99) {
      t = (std::log(limit_ms) - std::log(lo.p99)) /
          (std::log(hi.p99) - std::log(lo.p99));
    }
    return lo.rate * std::pow(hi.rate / lo.rate, std::clamp(t, 0.0, 1.0));
  };
  if (fails.empty()) {
    return std::max_element(passes.begin(), passes.end(), by_rate)->rate;
  }
  if (secondsSince(t0) < budget_s) {
    PointResult p = points.run(estimate());
    (p.pass ? passes : fails).push_back(p);
  }
  return estimate();
}

}  // namespace

int timedRun(const Options& opt) {
  const Clock::time_point run_start = Clock::now();
  const Sizes sizes = sizesOf(opt.workload);
  Ledger ledger;

  // Launch before making the stream, which generates reuse-mix's pool:
  // fork() slows as this process grows.
  std::unique_ptr<ServerProcess> server;
  const double setup_s = launch(opt, server);
  std::unique_ptr<Stream> stream =
      makeStream(opt.workload, opt.seed, opt.threads);

  const std::vector<Request> warm = stream->take(sizes.warmup);
  std::printf("input digest %016llx (first %zu dags, seed %llu)\n",
              static_cast<unsigned long long>(digest(warm)), countDags(warm),
              static_cast<unsigned long long>(opt.seed));

  // Warmup: enough dags that the server's caches reach their steady state.
  const std::size_t closed_conns = opt.mix() ? opt.threads : 1;
  const ClosedResult warm_result =
      closedLoop(server->port(), warm, closed_conns, opt.seconds, ledger);
  const double warm_rps =
      static_cast<double>(warm_result.ok_dags) / warm_result.seconds;
  std::printf("setup %.4f s (median of the launches); warmup %zu dags at "
              "%.1f dags/s\n",
              setup_s, warm_result.ok_dags, warm_rps);

  RatePoints points(opt, *stream, server->port(), ledger);
  double p50 = 0, tail = 0, slo = 0;
  if (opt.mix()) {
    std::printf("open loop: %zu connections, Poisson arrivals, %zu dags per "
                "fixed-rate reading, limit p99 <= %.0f ms\n",
                points.conns(), sizes.fixed, opt.limit_ms);
    std::tie(p50, tail) = points.fixedRate();
  }

  // Closed loop: throughput and the server's CPU per dag. The mixes run
  // three windows of a tenth of --seconds each, with inputs for 1.2x the
  // warmup rate, and report the median window. large-dag runs one window
  // of a fixed count of dags, so its peak memory (which grows with every
  // cached dag) compares across commits.
  const std::size_t windows = opt.mix() ? 3 : 1;
  const double window_s = opt.mix() ? 0.1 * opt.seconds : 3 * opt.seconds;
  std::vector<double> rates;
  double cpu_s = 0;
  std::size_t closed_ok = 0;
  ClosedResult closed;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<Request> reqs = stream->take(
        opt.mix() ? static_cast<std::size_t>(
                        std::max(1.2 * warm_rps * window_s, 8.0))
                  : sizes.points);
    const double cpu0 = server->cpuSeconds();
    closed = closedLoop(server->port(), reqs, closed_conns, window_s, ledger);
    cpu_s += server->cpuSeconds() - cpu0;
    closed_ok += closed.ok_dags;
    rates.push_back(static_cast<double>(closed.ok_dags) / closed.seconds);
    std::printf("closed loop: %zu connections, %zu dags in %.2f s\n",
                closed_conns, closed.ok_dags, closed.seconds);
  }
  const double throughput = median(rates);

  if (opt.mix()) {
    // The sweep overloads the server, which stays slower afterwards, so it
    // runs last. It starts near the knee, at 0.8x the closed-loop
    // throughput; its time cap only guards a much slower server.
    slo = sweep(points, points.run(0.8 * throughput), opt.limit_ms,
                3 * opt.seconds);
  } else {
    p50 = median(closed.latency_ms);
    tail = percentile(closed.latency_ms, 90);
    // One waiting user: the closed-loop rate counts while p90 is in limit.
    slo = tail <= opt.limit_ms ? throughput : 0.0;
    std::printf("  p50 %.2f ms, p90 %.2f ms over %zu requests (limit p90 <= "
                "%.0f ms)\n",
                p50, tail, closed.latency_ms.size(), opt.limit_ms);
  }
  const double rss = server->peakRssMb();
  server.reset();
  std::printf("%s\n", stream->describe().c_str());

  const bool correct = ledger.failed == 0;
  std::printf("tail_ms is %s; fail_rate %.6f (%zu of %zu dags); run took "
              "%.1f s\n",
              opt.mix() ? "p99_ms" : "p90_ms",
              static_cast<double>(ledger.failed) /
                  static_cast<double>(std::max<std::size_t>(ledger.attempted, 1)),
              ledger.failed.load(), ledger.attempted.load(),
              secondsSince(run_start));
  printResult(
      ledger, correct,
      {{"setup_s", setup_s, "s"},
       {"throughput_rps", throughput, "dags/s"},
       {"p50_ms", p50, "ms"},
       {"tail_ms", tail, "ms"},
       {"slo_rps", slo, "dags/s"},
       {"cpu_ms_per_req",
        1e3 * cpu_s / static_cast<double>(std::max<std::size_t>(closed_ok, 1)),
        "ms"},
       {"peak_rss_mb", rss, "MB"}});
  return correct ? 0 : 1;
}

/// The input self-checks: a seed fixes the input set; miss-mix never
/// repeats a dag shape; every stream reports what it generated.
int selfTest(std::size_t threads) {
  bool ok = true;
  for (const std::string workload : {"miss-mix", "reuse-mix", "large-dag"}) {
    const std::size_t n = workload == "large-dag" ? 6 : 256;
    const std::unique_ptr<Stream> first = makeStream(workload, 7, threads);
    const std::vector<Request> a = first->take(n);
    const std::uint64_t again = digest(makeStream(workload, 7, threads)->take(n));
    const std::uint64_t other = digest(makeStream(workload, 8, threads)->take(n));
    const bool same = digest(a) == again && digest(a) != other;
    std::printf("%s: digest %016llx, same seed %s, other seed %s\n",
                workload.c_str(), static_cast<unsigned long long>(digest(a)),
                digest(a) == again ? "identical" : "DIFFERENT",
                digest(a) != other ? "different" : "IDENTICAL");
    ok = ok && same;
    if (workload == "miss-mix") {
      // Recomputed from the bytes sent, independently of the generator.
      std::unordered_set<std::uint64_t> shapes;
      for (const Request& r : a) {
        std::istringstream in(*r.items[0].payload);
        shapes.insert(prio::dag::structuralFingerprint(
            prio::dagman::DagmanFile::parse(in).toDigraph()));
      }
      std::printf("miss-mix: %zu requests, %zu distinct structural "
                  "fingerprints\n",
                  a.size(), shapes.size());
      ok = ok && shapes.size() == a.size();
    }
    std::printf("%s\n", first->describe().c_str());
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Options opt;
  cpu_set_t set;
  opt.threads = sched_getaffinity(0, sizeof(set), &set) == 0
                    ? static_cast<std::size_t>(CPU_COUNT(&set))
                    : 1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      const std::string v = argv[++i];
      if (arg == "--workload") opt.workload = v;
      else if (arg == "--seed") opt.seed = std::stoull(v);
      else if (arg == "--seconds") opt.seconds = std::stod(v);
      else if (arg == "--trace") opt.trace = v == "1";
      else if (arg == "--server") opt.server = v;
      else if (arg == "--server-arg") opt.server_args.push_back(v);
      else if (arg == "--out-dir") opt.out_dir = v;
      else if (arg == "--rate") opt.rate = std::stod(v);
      else if (arg == "--limit-ms") opt.limit_ms = std::stod(v);
      else if (arg == "--selftest") return perfbench::selfTest(opt.threads);
      else throw std::runtime_error("unknown option " + arg);
    }
    if (opt.workload.empty() || opt.server.empty()) {
      throw std::runtime_error("--workload and --server are required");
    }
    if (opt.limit_ms <= 0 || (opt.mix() && opt.rate <= 0)) {
      throw std::runtime_error("--limit-ms (and --rate on the mixes) must be "
                               "positive");
    }
    return opt.trace ? perfbench::tracedRun(opt) : perfbench::timedRun(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 2;
  }
}
