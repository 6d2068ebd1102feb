// prio_serve — drive the priod prioritization service over a corpus of
// DAGMan files.
//
// Usage:
//   prio_serve [options] <input> <output-dir>
//
//   <input>   a directory (every *.dag in it, sorted by name) or a
//             manifest file: one DAGMan-file path per line, '#' comments
//             allowed, paths relative to the manifest's directory.
//             Listing the same file N times is N requests — duplicates
//             after the first are served from the result cache.
//   <output-dir>  instrumented DAGMan files are written here under the
//             input's basename (a numeric suffix disambiguates repeated
//             basenames); the metrics report lands in
//             <output-dir>/metrics.json.
//
// Options:
//   --threads N   worker threads (default: hardware concurrency)
//   --schedule-threads N   workers for each request's schedule phase
//                 (default 1 = serial; 0 = hardware concurrency). Helpers
//                 come from the same request pool via non-blocking
//                 submits, so this never reduces request throughput —
//                 it uses idle workers to cut single-request latency.
//   --queue N     pending-request bound (default 256)
//   --reject      shed load when the queue is full instead of blocking
//   --cache N     result-cache capacity in entries (default 1024);
//                 0 turns off every cache
//   --shards N    cache shards (default 16)
//   --no-output   prioritize only; skip writing instrumented files
//   --deadline-ms N        per-request compute deadline; on expiry the
//                          request degrades to the outdegree-only fallback
//                          (reply kDegraded) instead of running long
//   --queue-deadline-ms N  shed requests that waited longer than this in
//                          the queue (reply kShed)
//   --retries N   resubmit transient failures (rejected, shed, or
//                 TransientError) up to N times with seeded exponential
//                 backoff before counting them as failed
//   --metrics-text         also write the metrics snapshot in Prometheus
//                          text exposition format to
//                          <output-dir>/metrics.prom (same snapshot API
//                          as metrics.json; see README "Observability")
//
// Exit status: 0 when every request completed OK or degraded, 1 on any
// request still failed/rejected/shed after retries (details on stderr),
// 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/service.h"
#include "util/atomic_file.h"
#include "util/retry.h"
#include "util/timing.h"

namespace fs = std::filesystem;
using prio::service::BackpressurePolicy;
using prio::service::FileRequest;
using prio::service::PrioService;
using prio::service::Reply;
using prio::service::RequestStatus;
using prio::service::ServiceConfig;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: prio_serve [--threads N] [--schedule-threads N] "
               "[--queue N] [--reject] "
               "[--cache N] [--shards N] [--no-output] [--deadline-ms N] "
               "[--queue-deadline-ms N] [--retries N] [--metrics-text] "
               "<dir-or-manifest> <output-dir>\n");
  return 2;
}

/// A reply worth resubmitting: shed by backpressure or queue deadline, or
/// failed with an error the service marked transient.
bool isTransient(const Reply& reply) {
  switch (reply.status) {
    case RequestStatus::kRejected:
    case RequestStatus::kShed:
      return true;
    case RequestStatus::kFailed:
      return reply.transient;
    default:
      return false;
  }
}

std::vector<std::string> collectInputs(const fs::path& input) {
  std::vector<std::string> files;
  if (fs::is_directory(input)) {
    for (const auto& entry : fs::directory_iterator(input)) {
      if (entry.is_regular_file() && entry.path().extension() == ".dag") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    std::ifstream in(input);
    if (!in) throw prio::util::Error("cannot open manifest: " + input.string());
    const fs::path base = input.parent_path();
    std::string line;
    while (std::getline(in, line)) {
      const auto start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      const auto end = line.find_last_not_of(" \t\r");
      fs::path p(line.substr(start, end - start + 1));
      if (p.is_relative()) p = base / p;
      files.push_back(p.string());
    }
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  ServiceConfig config;
  bool write_outputs = true;
  bool metrics_text = false;
  std::size_t max_retries = 0;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw prio::util::Error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--threads") config.num_threads = std::stoul(next());
      else if (arg == "--schedule-threads")
        config.prio_options.schedule_threads = std::stoul(next());
      else if (arg == "--queue") config.queue_capacity = std::stoul(next());
      else if (arg == "--reject") config.backpressure = BackpressurePolicy::kReject;
      else if (arg == "--cache") config.cache_capacity = std::stoul(next());
      else if (arg == "--shards") config.cache_shards = std::stoul(next());
      else if (arg == "--no-output") write_outputs = false;
      else if (arg == "--deadline-ms")
        config.compute_deadline_s = std::stod(next()) / 1e3;
      else if (arg == "--queue-deadline-ms")
        config.queue_deadline_s = std::stod(next()) / 1e3;
      else if (arg == "--retries") max_retries = std::stoul(next());
      else if (arg == "--metrics-text") metrics_text = true;
      else if (arg.rfind("--", 0) == 0) return usage();
      else positional.push_back(arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "prio_serve: %s\n", e.what());
      return 2;
    }
  }
  if (positional.size() != 2) return usage();

  try {
    const fs::path input(positional[0]);
    const fs::path out_dir(positional[1]);
    fs::create_directories(out_dir);

    const std::vector<std::string> inputs = collectInputs(input);
    if (inputs.empty()) {
      std::fprintf(stderr, "prio_serve: no .dag files under %s\n",
                   input.string().c_str());
      return 2;
    }

    // Build the requests up front: repeated basenames get a numeric
    // suffix so instrumented outputs never clobber each other.
    std::vector<FileRequest> requests;
    requests.reserve(inputs.size());
    std::unordered_map<std::string, std::size_t> basename_uses;
    for (const std::string& path : inputs) {
      FileRequest req;
      req.input_path = path;
      if (write_outputs) {
        const fs::path base = fs::path(path).filename();
        const std::size_t n = basename_uses[base.string()]++;
        fs::path out = out_dir / base;
        if (n > 0) out += "." + std::to_string(n);
        req.output_path = out.string();
      }
      requests.push_back(std::move(req));
    }

    prio::util::Stopwatch wall;
    PrioService service(config);
    auto futures = service.submitBatch(requests);

    // Drain, resubmitting transient outcomes (rejected/shed/transient
    // failures) with seeded exponential backoff. Deterministic seed so
    // two runs over the same corpus back off identically.
    prio::util::ExpBackoff backoff(/*base_seconds=*/0.01, /*cap_seconds=*/1.0,
                                   /*seed=*/0x9e3779b97f4a7c15ULL);
    std::size_t ok = 0, degraded = 0, failed = 0, dropped = 0, cache_hits = 0;
    std::uint64_t retries = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      Reply reply = futures[i].get();
      std::size_t attempt = 0;
      while (isTransient(reply) && attempt < max_retries) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            backoff.next(attempt)));
        ++attempt;
        ++retries;
        reply = service.submit(requests[i]).get();
      }
      switch (reply.status) {
        case RequestStatus::kOk:
          ++ok;
          if (reply.cache_hit) ++cache_hits;
          break;
        case RequestStatus::kDegraded:
          ++degraded;
          break;
        case RequestStatus::kRejected:
          ++dropped;
          std::fprintf(stderr, "prio_serve: rejected (queue full): %s\n",
                       reply.source.c_str());
          break;
        case RequestStatus::kShed:
          ++dropped;
          std::fprintf(stderr, "prio_serve: shed (queue deadline): %s\n",
                       reply.source.c_str());
          break;
        case RequestStatus::kExpired:
          ++dropped;
          std::fprintf(stderr, "prio_serve: expired (request deadline): %s\n",
                       reply.source.c_str());
          break;
        case RequestStatus::kFailed:
          ++failed;
          std::fprintf(stderr, "prio_serve: failed: %s: %s\n",
                       reply.source.c_str(), reply.error.c_str());
          break;
      }
    }
    service.noteRetries(retries);
    const double elapsed = wall.elapsedSeconds();

    // Crash-safe metrics export: written to a temp sibling and renamed
    // into place, so readers never observe a torn metrics.json.
    const fs::path metrics_path = out_dir / "metrics.json";
    prio::util::atomicWriteFile(metrics_path.string(), [&](std::ostream& mout) {
      mout << "{\"wall_s\":" << elapsed
           << ",\"requests_per_s\":"
           << (elapsed > 0 ? static_cast<double>(futures.size()) / elapsed : 0)
           << ",\"service\":";
      service.writeMetricsJson(mout);
      mout << "}\n";
    });

    // Same snapshot, Prometheus text format — scrape-ready without a
    // JSON-to-exposition bridge.
    fs::path prom_path;
    if (metrics_text) {
      prom_path = out_dir / "metrics.prom";
      prio::util::atomicWriteFile(prom_path.string(), [&](std::ostream& mout) {
        service.writePrometheusText(mout);
      });
    }

    std::printf(
        "prio_serve: %zu requests (%zu ok, %zu degraded, %zu failed, %zu "
        "dropped, %llu retries) on %zu threads in %.3fs — %.1f req/s, %zu "
        "cache hits; metrics: %s\n",
        futures.size(), ok, degraded, failed, dropped,
        static_cast<unsigned long long>(retries), service.numThreads(),
        elapsed,
        elapsed > 0 ? static_cast<double>(futures.size()) / elapsed : 0.0,
        cache_hits, metrics_path.string().c_str());
    if (metrics_text) {
      std::printf("prio_serve: wrote %s\n", prom_path.string().c_str());
    }
    return failed == 0 && dropped == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_serve: %s\n", e.what());
    return 2;
  }
}
