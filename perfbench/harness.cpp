#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "stats/rng.h"

namespace perfbench {

using prio::net::Client;
using prio::net::Response;
using prio::net::Status;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

prio::net::ClientOptions clientOptions() {
  prio::net::ClientOptions o;
  o.request_timeout_s = 60;  // a hung server fails the run, never hangs it
  return o;
}

std::uint64_t send(Client& client, const Request& req,
                   std::uint64_t trace_id) {
  if (req.batch) {
    return client.sendFrame(prio::net::FrameType::kBatchRequest,
                            prio::net::PayloadKind::kDagmanText, *req.envelope,
                            trace_id);
  }
  const Item& item = req.items.front();
  return client.sendPayload(item.kind == Kind::kText
                                ? prio::net::PayloadKind::kDagmanText
                                : prio::net::PayloadKind::kBinaryCsr,
                            *item.payload, trace_id);
}

std::size_t correctDags(const Request& req, const Response& r) {
  if (!req.batch) {
    return r.status == Status::kOk && !r.batch &&
                   r.payload == *req.items.front().expected
               ? 1
               : 0;
  }
  const Response::Result result = r.result();
  if (!result.usable || result.items.size() != req.items.size()) return 0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < req.items.size(); ++i) {
    if (result.items[i].status == Status::kOk &&
        result.items[i].payload == *req.items[i].expected) {
      ++ok;
    }
  }
  return ok;
}

void Ledger::record(std::size_t dags, std::size_t ok,
                    const std::string& what) {
  attempted += dags;
  failed += dags - ok;
  if (ok == dags) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (reported_++ < 5) {
    std::fprintf(stderr, "perfbench: wrong or missing reply (%zu of %zu dags "
                         "ok): %s\n",
                 ok, dags, what.c_str());
  }
}

ClosedResult closedLoop(std::uint16_t port, const std::vector<Request>& reqs,
                        std::size_t conns, double max_seconds,
                        Ledger& ledger) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  ClosedResult out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(max_seconds));
  Clock::time_point last = start;
  auto worker = [&] {
    std::vector<double> lat;
    std::size_t ok_dags = 0;
    Clock::time_point mine = start;
    std::size_t k = 0;
    try {
      Client client(clientOptions());
      client.connect("127.0.0.1", port);
      for (k = next++; k < reqs.size() && Clock::now() < stop; k = next++) {
        const Clock::time_point t0 = Clock::now();
        send(client, reqs[k]);
        const Response r = client.receive();
        mine = Clock::now();
        lat.push_back(ms(mine - t0));
        const std::size_t ok = correctDags(reqs[k], r);
        ok_dags += ok;
        ledger.record(reqs[k].items.size(), ok,
                      "closed loop, request " + std::to_string(k));
      }
    } catch (const std::exception& e) {
      if (k < reqs.size()) ledger.record(reqs[k].items.size(), 0, e.what());
    }
    const std::lock_guard<std::mutex> lock(mutex);
    out.latency_ms.insert(out.latency_ms.end(), lat.begin(), lat.end());
    out.ok_dags += ok_dags;
    last = std::max(last, mine);
  };
  std::vector<std::thread> pool;
  for (std::size_t c = 1; c < conns; ++c) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  out.seconds = std::chrono::duration<double>(last - start).count();
  return out;
}

PointResult openLoop(std::uint16_t port, const std::vector<Request>& reqs,
                     double rate, std::size_t conns, std::uint64_t seed,
                     double limit_ms, Ledger& ledger) {
  const std::size_t n = reqs.size();
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<Client>(clientOptions()));
    clients.back()->connect("127.0.0.1", port);
  }
  // Arrival schedule: exponential gaps; a batch frame is worth its dags.
  prio::stats::Rng rng(seed);
  std::vector<Clock::time_point> due(n);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  double at = 0;
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at));
    at += -std::log(rng.uniformOpen0()) *
          static_cast<double>(reqs[k].items.size()) / rate;
  }
  // Connection c carries requests c, c + conns, ...: its j-th request
  // (id j + 1) is request c + j * conns. Replies may come in any order.
  std::vector<Clock::time_point> sent(n, t0), done(n, t0);
  std::vector<std::size_t> ok(n, 0);
  std::vector<std::string> errors(conns);
  auto receiver = [&](std::size_t c) {
    for (std::size_t k = c; k < n; k += conns) {
      try {
        const Response r = clients[c]->receive();
        const std::size_t at = c + (r.request_id - 1) * conns;
        if (r.request_id == 0 || at >= n || done[at] != t0) {
          errors[c] = "reply with unexpected request id " +
                      std::to_string(r.request_id);
          break;
        }
        done[at] = Clock::now();
        ok[at] = correctDags(reqs[at], r);
      } catch (const std::exception& e) {
        errors[c] = e.what();
        break;  // the rest of this connection's requests count failed
      }
    }
  };
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns; ++c) receivers.emplace_back(receiver, c);
  for (std::size_t k = 0; k < n; ++k) {
    std::this_thread::sleep_until(due[k]);
    sent[k] = Clock::now();
    try {
      send(*clients[k % conns], reqs[k]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: send failed: %s\n", e.what());
      for (auto& client : clients) client->close();
      break;
    }
  }
  for (std::thread& t : receivers) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) std::fprintf(stderr, "perfbench: receive: %s\n", e.c_str());
  }

  PointResult out;
  out.rate = rate;
  for (std::size_t k = 0; k < n; ++k) {
    ledger.record(reqs[k].items.size(), ok[k],
                  "open loop at " + std::to_string(rate) +
                      " dags/s, request " + std::to_string(k));
    out.failed += reqs[k].items.size() - ok[k];
    // A failed request misses any latency limit.
    out.latency_ms.push_back(ok[k] == reqs[k].items.size()
                                 ? ms(done[k] - due[k])
                                 : HUGE_VAL);
    out.late_ms.push_back(ms(sent[k] - due[k]));
    const std::size_t due_by_then = static_cast<std::size_t>(
        std::upper_bound(due.begin(), due.end(), sent[k]) - due.begin());
    out.backlog = std::max(out.backlog, due_by_then - (k + 1));
  }
  out.p50 = median(out.latency_ms);
  out.p99 = percentile(out.latency_ms, 99);
  // Lateness must stay small against the limit, or the point measured
  // the generator rather than the server.
  out.behind = percentile(out.late_ms, 99) > 0.1 * limit_ms;
  out.pass = !out.behind && out.failed == 0 && out.p99 <= limit_ms;
  return out;
}

void printPoint(const PointResult& p) {
  std::printf(
      "  offered %8.1f dags/s  p50 %8.2f ms  p99 %8.2f ms  late.p99 %6.2f ms"
      "  backlog %zu  failed %zu  %s\n",
      p.rate, p.p50, p.p99, percentile(p.late_ms, 99), p.backlog, p.failed,
      p.behind ? "discarded (generator behind)"
               : (p.pass ? "within limit" : "over limit"));
  std::fflush(stdout);
}

namespace {

std::string jsonNumber(double v) {
  std::ostringstream out;
  out.precision(10);
  out << (std::isfinite(v) ? v : 0.0);
  return out.str();
}

}  // namespace

void printResult(const Ledger& ledger, bool correct,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted.load()
       << ", \"failed\": " << ledger.failed.load() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << jsonNumber(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

double launch(const Options& opt, std::unique_ptr<ServerProcess>& server) {
  // One launch takes a few milliseconds and varies by half of that from
  // launch to launch; the median of many is not moved by a slow one.
  constexpr std::size_t kLaunches = 31;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kLaunches; ++i) {
    server.reset();
    server = std::make_unique<ServerProcess>(opt.server, opt.server_args);
    setup_s.push_back(server->setupSeconds());
  }
  return median(setup_s);
}

}  // namespace perfbench
