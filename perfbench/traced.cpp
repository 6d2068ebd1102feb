// The traced run: per-layer metrics for one workload.
//
// A seeded sample of the workload's inputs goes, one input at a time,
//   1. over the wire to priod_server, a span around each send and receive;
//   2. into an in-process PrioService configured like the server;
//   3. through the layer chain the service runs, called directly, with a
//      span around each public function (parse or decode, reduce,
//      fingerprint, decompose, schedule, combine, the rest of prioritize,
//      render or encode).
// All spans of one input share its trace id; they are kept in memory and
// written as a Chrome trace when the run ends. Counter deltas come from
// /metrics scrapes before and after the sample. The chain's output must
// equal the server's reply bytes, so its timings describe the served path.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/prio.h"
#include "dag/algorithms.h"
#include "dag/csr.h"
#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "harness.h"
#include "obs/trace.h"
#include "service/service.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace core = prio::core;
namespace dag = prio::dag;
namespace service = prio::service;
using prio::obs::Span;
using prio::obs::TraceContext;

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Layer self times of one chain run, in microseconds.
struct ChainTimes {
  std::map<std::string, double> us;
  double matrix_mb = 0;
  std::size_t components = 0;
  std::size_t general_searches = 0;
  double total_us = 0;
};

/// Times `fn` under a span named `name`, adding its duration to `times`.
template <typename Fn>
auto timed(const TraceContext& ctx, const char* name, ChainTimes& times,
           Fn&& fn) {
  Span span(ctx, name);
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  times.us[name] += us(Clock::now() - t0);
  return result;
}

/// The service's payload path for one item, layer by layer.
std::string runChain(const Item& item, const TraceContext& ctx,
                     ChainTimes& times) {
  const Clock::time_point start = Clock::now();
  const bool text = item.kind == Kind::kText;
  prio::dagman::DagmanFile file;
  const dag::Digraph g = text ? timed(ctx, "dagman.parse", times, [&] {
    std::istringstream in(*item.payload);
    file = prio::dagman::DagmanFile::parse(in);
    return file.toDigraph();
  })
                              : timed(ctx, "dag.decode", times, [&] {
                                  return dag::decodeBinaryDag(*item.payload);
                                });
  const dag::Digraph reduced = timed(ctx, "dag.reduce", times, [&] {
    return dag::transitiveReduction(g);
  });
  const double n = static_cast<double>(g.numNodes());
  times.matrix_mb = std::max(times.matrix_mb, n * n / 8 / (1 << 20));
  timed(ctx, "dag.fingerprint", times, [&] {
    return dag::structuralFingerprintOfReduced(reduced) ^ dag::layoutHash(g);
  });

  // The three core phases as prioritize() calls them, then prioritize()
  // itself. Its remainder (topological order, verify, assemble) is
  // core.rest, taken from the phase timings prioritize() reports, since
  // a second run of the phases is faster than the first.
  const auto order = dag::topologicalOrder(reduced);
  core::DecomposeOptions dopt;
  dopt.topo_order = &*order;
  dopt.defer_component_graphs = true;
  core::Decomposition decomposition = timed(
      ctx, "core.decompose", times, [&] { return core::decompose(reduced, dopt); });
  const auto schedules = timed(ctx, "core.schedule", times, [&] {
    core::ScheduleRequest request;
    request.reduced = &reduced;
    request.decomposition = &decomposition;
    return core::scheduleComponents(request);
  });
  timed(ctx, "core.combine", times, [&] {
    return core::combineGreedy(decomposition, schedules);
  });
  times.components += decomposition.components.size();
  times.general_searches += decomposition.general_searches;
  core::PrioRequest request(g);
  request.reduced = &reduced;
  const core::PrioResult result = timed(
      ctx, "core.prioritize", times, [&] { return core::prioritize(request); });
  const core::PhaseTimings& phases = result.timings;
  times.us["core.rest"] += 1e6 * (phases.total_s - phases.decompose_s -
                                  phases.recurse_s - phases.combine_s);

  std::string out = text ? timed(ctx, "dagman.render", times, [&] {
    prio::dagman::instrumentDagmanFile(file, result.priority);
    std::ostringstream rendered;
    file.write(rendered);
    return std::move(rendered).str();
  })
                         : timed(ctx, "dag.encode_prio", times, [&] {
                             return dag::encodeBinaryPriorities(result.priority);
                           });
  times.total_us += us(Clock::now() - start);
  return out;
}

service::Request serviceRequest(const Item& item) {
  service::Request r;
  r.payload = item.kind == Kind::kText ? service::Payload::text(*item.payload)
                                       : service::Payload::binary(*item.payload);
  return r;
}

/// Submits `req` to `svc` and waits; returns the dags answered with the
/// reference bytes.
std::size_t submitAndCheck(service::PrioService& svc, const Request& req) {
  if (!req.batch) {
    const service::Reply reply = svc.submit(serviceRequest(req.items[0])).get();
    return reply.status == service::RequestStatus::kOk &&
                   reply.output == *req.items[0].expected
               ? 1
               : 0;
  }
  service::BatchRequest batch;
  for (const Item& item : req.items) {
    batch.items.push_back(serviceRequest(item).payload);
  }
  const service::Reply reply = svc.submit(std::move(batch)).get();
  std::size_t ok = 0;
  for (std::size_t i = 0; i < reply.items.size() && i < req.items.size();
       ++i) {
    if (reply.items[i].status == service::RequestStatus::kOk &&
        reply.items[i].output == *req.items[i].expected) {
      ++ok;
    }
  }
  return ok;
}

/// Sends `reqs` to `svc` from `threads` closed-loop submitters; returns
/// each request's latency in microseconds.
std::vector<double> submitLoaded(service::PrioService& svc,
                                 const std::vector<Request>& reqs,
                                 std::size_t threads, Ledger& ledger) {
  std::vector<double> latency(reqs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  auto worker = [&] {
    for (std::size_t k = next++; k < reqs.size(); k = next++) {
      const Clock::time_point t0 = Clock::now();
      const std::size_t ok = submitAndCheck(svc, reqs[k]);
      latency[k] = us(Clock::now() - t0);
      ledger.record(reqs[k].items.size(), ok, "in-process service");
    }
  };
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return latency;
}

std::size_t serverThreads(const Options& opt) {
  for (std::size_t i = 0; i + 1 < opt.server_args.size(); ++i) {
    if (opt.server_args[i] == "--threads") {
      return std::stoul(opt.server_args[i + 1]);
    }
  }
  return 0;
}

double p50(const std::vector<double>& v) { return median(v); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

int tracedRun(const Options& opt) {
  const Clock::time_point run_start = Clock::now();
  std::unique_ptr<Stream> stream =
      makeStream(opt.workload, opt.seed, opt.threads);
  Ledger ledger;
  const Sizes sizes = sizesOf(opt.workload);
  const std::vector<Request> warm = stream->take(sizes.warmup);
  const std::vector<Request> sample = stream->take(sizes.sample);
  std::printf("input digest %016llx (first %zu dags, seed %llu); traced "
              "sample %zu dags\n",
              static_cast<unsigned long long>(digest(warm)), countDags(warm),
              static_cast<unsigned long long>(opt.seed), countDags(sample));

  // Server and two in-process services, all warmed with the same inputs.
  auto server = std::make_unique<ServerProcess>(opt.server, opt.server_args);
  const std::size_t conns = opt.mix() ? opt.threads : 1;
  (void)closedLoop(server->port(), warm, conns, opt.seconds, ledger);
  service::ServiceConfig config;
  config.num_threads = serverThreads(opt);
  service::PrioService serial(config);
  service::PrioService loaded(config);
  (void)submitLoaded(serial, warm, conns, ledger);
  (void)submitLoaded(loaded, warm, conns, ledger);
  // The sample in process at the workload's concurrency, before the
  // unloaded pass below, so that pass does not find the process warmer.
  // With one connection the two passes are the same: no wait.
  const std::vector<double> loaded_us =
      conns > 1 ? submitLoaded(loaded, sample, conns, ledger)
                : std::vector<double>();

  prio::obs::Tracer tracer;
  const std::map<std::string, double> m0 = server->scrape();
  std::vector<double> client_us, send_us, serial_us;
  double req_bytes = 0, reply_bytes = 0;
  std::map<std::string, std::vector<double>> layer_us;
  ChainTimes totals;
  double text_bytes = 0, parse_ns = 0;
  double traced_chain_us = 0, untraced_chain_us = 0;
  std::size_t parity_failures = 0;
  prio::net::Client client(clientOptions());
  client.connect("127.0.0.1", server->port());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Request& req = sample[i];
    const TraceContext ctx(&tracer, i + 1);

    // 1. Over the wire.
    prio::net::Response reply;
    {
      Span request_span(ctx, "net.request");
      const Clock::time_point t0 = Clock::now();
      {
        Span send_span(request_span.context(), "net.send");
        const Clock::time_point s0 = Clock::now();
        if (req.batch) {
          std::vector<prio::net::BatchItem> items;
          for (const Item& item : req.items) {
            items.push_back({prio::net::PayloadKind::kBinaryCsr, *item.payload});
          }
          client.submitBatch(items, i + 1);
        } else {
          send(client, req, i + 1);
        }
        send_us.push_back(us(Clock::now() - s0));
      }
      reply = client.receive();
      client_us.push_back(us(Clock::now() - t0));
    }
    ledger.record(req.items.size(), correctDags(req, reply),
                  "traced wire request " + std::to_string(i));
    req_bytes += static_cast<double>(
        req.batch ? req.envelope->size() : req.items[0].payload->size());
    reply_bytes += static_cast<double>(reply.payload.size());

    // 2. In process, unloaded.
    {
      Span span(ctx, "service.submit");
      const Clock::time_point t0 = Clock::now();
      const std::size_t ok = submitAndCheck(serial, req);
      serial_us.push_back(us(Clock::now() - t0));
      ledger.record(req.items.size(), ok, "in-process service");
    }

    // 3. The layer chain, traced; then untraced for the overhead ratio.
    const prio::net::Response::Result result = reply.result();
    for (std::size_t j = 0; j < req.items.size(); ++j) {
      const Item& item = req.items[j];
      // Traced and untraced runs alternate which goes first, so warm
      // caches favour neither side of the overhead ratio.
      ChainTimes times, untraced;
      if (i % 2 == 1) (void)runChain(item, TraceContext(), untraced);
      std::string out;
      {
        Span chain(ctx, "chain");
        out = runChain(item, chain.context(), times);
      }
      if (i % 2 == 0) (void)runChain(item, TraceContext(), untraced);
      const std::string& served =
          req.batch ? (j < result.items.size() ? result.items[j].payload
                                               : std::string())
                    : reply.payload;
      if (out != served) {
        ++parity_failures;
        std::fprintf(stderr, "perfbench: chain output differs from the "
                             "server's reply (input %zu, item %zu)\n",
                     i, j);
      }
      traced_chain_us += times.total_us;
      untraced_chain_us += untraced.total_us;
      for (const auto& [name, t] : times.us) layer_us[name].push_back(t);
      if (item.kind == Kind::kText) {
        text_bytes += static_cast<double>(item.payload->size());
        parse_ns += 1e3 * times.us["dagman.parse"];
      }
      totals.matrix_mb = std::max(totals.matrix_mb, times.matrix_mb);
      totals.components += times.components;
      totals.general_searches += times.general_searches;
    }
  }
  const std::map<std::string, double> m1 = server->scrape();
  auto delta = [&](const std::string& name) {
    return m1.at(name) - m0.at(name);
  };

  std::vector<double> wait_us, overhead_us;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    wait_us.push_back(loaded_us.empty() ? 0.0 : loaded_us[i] - serial_us[i]);
    overhead_us.push_back(client_us[i] - serial_us[i]);
  }

  // The generator's own schedule, at the workload's fixed rate.
  double late_p99 = 0, backlog = 0;
  if (opt.mix()) {
    const std::vector<Request> reqs = stream->take(sizes.points / 4);
    const PointResult p =
        openLoop(server->port(), reqs, opt.rate,
                 std::max<std::size_t>(1, opt.threads - 1), opt.seed,
                 opt.limit_ms, ledger);
    printPoint(p);
    late_p99 = percentile(p.late_ms, 99);
    backlog = static_cast<double>(p.backlog);
  }
  server.reset();

  // Served-path accounting: each layer's chain time, weighted by the share
  // of dags for which the server ran it (from its own counters).
  const double dags = static_cast<double>(countDags(sample));
  const double memo = delta("prio_text_cache_hits") / dags;
  const double parse_hits = delta("prio_parse_cache_hits") / dags;
  const double fp_hits =
      (delta("prio_cache_hits") - delta("prio_text_cache_hits")) / dags;
  const double computed = delta("prio_cache_misses") / dags;
  auto layer_sum = [&](const std::string& name) { return sum(layer_us[name]); };
  const double served_layers_us =
      (layer_sum("dagman.parse") + layer_sum("dag.decode")) *
          std::max(0.0, 1 - memo - parse_hits) +
      (layer_sum("dag.reduce") + layer_sum("dag.fingerprint") +
       layer_sum("dagman.render") + layer_sum("dag.encode_prio")) *
          (1 - memo) +
      layer_sum("core.prioritize") * computed;
  const double unaccounted =
      1 - (sum(overhead_us) + served_layers_us) / sum(client_us);

  {
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream out(path);
    prio::obs::writeChromeTrace(out, tracer.drain().records);
    std::printf("spans written to %s\n", path.c_str());
  }
  std::printf("%s\n", stream->describe().c_str());
  std::printf("chain parity failures %zu; traced run took %.1f s\n",
              parity_failures, secondsSince(run_start));

  auto layer_p50 = [&](const std::string& name) {
    return layer_us.count(name) ? p50(layer_us[name]) : 0.0;
  };
  const bool correct = ledger.failed == 0 && parity_failures == 0;
  printResult(
      ledger, correct,
      {{"net.overhead_us.p50", p50(overhead_us), "us"},
       {"net.send_us.p50", p50(send_us), "us"},
       {"net.req_kb", req_bytes / static_cast<double>(sample.size()) / 1024,
        "KB"},
       {"net.reply_kb",
        reply_bytes / static_cast<double>(sample.size()) / 1024, "KB"},
       {"net.wakeups_per_reply",
        delta("prio_net_wakeups_signaled") /
            std::max(1.0, delta("prio_net_responses_sent")),
        "ratio"},
       {"net.loop_stall_max_us", m1.at("prio_net_loop_stall_max_us"), "us"},
       {"net.dropped",
        delta("prio_net_responses_dropped") + delta("prio_net_protocol_errors"),
        "count"},
       {"service.latency_us.p50", p50(serial_us), "us"},
       {"service.latency_us.p99", percentile(serial_us, 99), "us"},
       {"service.wait_us.p50", p50(wait_us), "us"},
       {"service.queue_high_water", m1.at("prio_queue_high_water"), "count"},
       {"service.memo_hit_ratio", memo, "ratio"},
       {"service.parse_hit_ratio", parse_hits, "ratio"},
       {"service.fp_hit_ratio", fp_hits, "ratio"},
       {"service.alias_count", delta("prio_fingerprint_aliases"), "count"},
       {"service.computed_share", computed, "ratio"},
       {"dagman.parse_us.p50", layer_p50("dagman.parse"), "us"},
       {"dagman.parse_ns_per_byte", text_bytes > 0 ? parse_ns / text_bytes : 0,
        "ns/B"},
       {"dagman.render_us.p50", layer_p50("dagman.render"), "us"},
       {"dag.decode_us.p50", layer_p50("dag.decode"), "us"},
       {"dag.encode_prio_us.p50", layer_p50("dag.encode_prio"), "us"},
       {"dag.reduce_us.p50", layer_p50("dag.reduce"), "us"},
       {"dag.reduce_matrix_mb", totals.matrix_mb, "MB"},
       {"dag.fingerprint_us.p50", layer_p50("dag.fingerprint"), "us"},
       {"core.decompose_us.p50", layer_p50("core.decompose"), "us"},
       {"core.schedule_us.p50", layer_p50("core.schedule"), "us"},
       {"core.combine_us.p50", layer_p50("core.combine"), "us"},
       {"core.rest_us.p50", layer_p50("core.rest"), "us"},
       {"core.general_search_ratio",
        static_cast<double>(totals.general_searches) /
            static_cast<double>(std::max<std::size_t>(totals.components, 1)),
        "ratio"},
       {"loadgen.late_ms.p99", late_p99, "ms"},
       {"loadgen.backlog", backlog, "count"},
       {"trace.unaccounted_share", unaccounted, "ratio"},
       {"trace.overhead_ratio", traced_chain_us / untraced_chain_us, "ratio"}});
  return correct ? 0 : 1;
}

}  // namespace perfbench
