#include "service/service.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "dag/csr.h"
#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "tenant/fair_queue.h"
#include "tenant/registry.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/timing.h"

namespace prio::service {

namespace {

/// The payload cache's byte budget. reuse-mix's whole 384-dag pool takes
/// about 6 MB (7.85 KB requests, 8.18 KB replies); one paper-scale entry
/// about 1.7 MB, so about 19 of those fit.
constexpr std::size_t kPayloadCacheBytes = std::size_t{32} << 20;

/// What a result keeps once its request ends: the fields a reply renders
/// or reports. The decomposition, component schedules and combine state
/// are freed here instead of living on in the caches.
CachedResult compact(core::PrioResult full) {
  auto out = std::make_shared<core::PrioResult>();
  out->schedule = std::move(full.schedule);
  out->priority = std::move(full.priority);
  out->certified_ic_optimal = full.certified_ic_optimal;
  out->shortcuts_removed = full.shortcuts_removed;
  out->timings = full.timings;
  return out;
}

}  // namespace

PrioService::PrioService(const ServiceConfig& config)
    : config_(config),
      cache_(config.cache_capacity == 0
                 ? nullptr
                 : std::make_unique<ResultCache>(config.cache_capacity,
                                                config.cache_shards)),
      payload_cache_(config.cache_capacity == 0
                         ? nullptr
                         : std::make_unique<PayloadCache>(kPayloadCacheBytes)),
      fair_(config.tenants == nullptr
                ? nullptr
                : std::make_shared<tenant::FairQueue>(config.queue_capacity,
                                                      config.tenants)),
      pool_(resolveThreads(config.num_threads),
            fair_ != nullptr
                ? std::shared_ptr<util::TaskQueue>(fair_)
                : std::make_shared<util::FifoTaskQueue>(
                      config.queue_capacity)) {}

PrioService::~PrioService() { shutdown(); }

void PrioService::shutdown() { pool_.shutdown(); }

void PrioService::serveDigraph(const dag::Digraph& g, Reply& reply,
                               const obs::TraceContext& trace,
                               double budget_s) {
  reply.trace_id = trace.traceId();

  // One reduction pays for both the fingerprint and (on a miss) step 1 of
  // the heuristic. It is timed here — prioritize() below reuses it, so
  // its own reduce_s stays 0 and this measurement is what phase_reduce
  // reports.
  dag::Digraph reduced;
  double reduce_s = 0.0;
  {
    obs::Span span(trace, "service.fingerprint");
    const util::Stopwatch reduce_watch;
    reduced = dag::transitiveReduction(g, span.context());
    reduce_s = reduce_watch.elapsedSeconds();
    reply.fingerprint = dag::structuralFingerprintOfReduced(reduced);
    reply.layout = dag::layoutHash(g);
  }

  if (cache_ != nullptr) {
    ResultCache::FindOutcome found = cache_->find(reply.fingerprint,
                                                  reply.layout);
    if (found.result != nullptr) {
      reply.result = std::move(found.result);
      reply.cache_hit = true;
      metrics_.cache_hits.add();
      return;
    }
    if (found.alias) metrics_.fingerprint_aliases.add();
  }

  // Every computed request counts as a miss (also with caching disabled),
  // so hits/(hits+misses) is the true served-from-cache fraction.
  metrics_.cache_misses.add();

  // Build the PrioRequest: the reduction is reused (step 1 already paid
  // for above), the request's spans nest under this request's trace, and
  // the compute deadline rides on PrioOptions::deadline_s — prioritize()
  // arms the token internally.
  core::PrioRequest request(g, config_.prio_options);
  request.reduced = &reduced;
  request.options.trace = trace;
  request.tenant = reply.tenant;

  // Parallel schedule phase: lend the request pool itself. Helpers are
  // offered with trySubmit() only (see util/parallel_for.h), so a pool
  // saturated with requests simply yields no helpers and the phase runs
  // serially on this worker — request-level parallelism degrades
  // intra-request parallelism exactly when the cores are already busy.
  if (request.options.schedule_threads != 1) {
    request.options.schedule_pool = &pool_;
  }

  // The compute deadline is whichever is tighter: the service-wide
  // configuration or this request's remaining wire budget. prioritize()
  // arms the CancelToken from deadline_s internally, so the budget rides
  // the same machinery as the configured deadline.
  if (request.options.cancel == nullptr) {
    double deadline = config_.compute_deadline_s;
    if (budget_s > 0.0 && (deadline <= 0.0 || budget_s < deadline)) {
      deadline = budget_s;
    }
    if (deadline > 0.0) request.options.deadline_s = deadline;
  }

  try {
    CachedResult result = compact(core::prioritize(request));
    core::PhaseTimings timings = result->timings;
    timings.reduce_s = reduce_s;  // reduction ran in the fingerprint step
    metrics_.recordPhases(timings);
    if (cache_ != nullptr) {
      cache_->insert(reply.fingerprint, reply.layout, result);
    }
    reply.result = std::move(result);
  } catch (const util::Cancelled&) {
    // Deadline fired mid-heuristic: serve the §3.1 outdegree-only
    // fallback instead — a valid, if weaker, priority list. The
    // degraded result is NOT cached; a later, less pressed request
    // should compute (and memoize) the real thing. The fallback span
    // carries this request's trace id, so degraded requests stay
    // attributable in the trace export.
    metrics_.requests_deadline_exceeded.add();
    metrics_.requests_degraded.add();
    reply.result = std::make_shared<const core::PrioResult>(
        core::fallbackPrioritize(g, trace));
    reply.status = RequestStatus::kDegraded;
  }
}

void PrioService::serveFile(const FileRequest& request, Reply& reply,
                            const obs::TraceContext& trace) {
  util::fault::checkpoint("service.parse");
  dagman::DagmanFile file = [&] {
    obs::Span span(trace, "service.parse");
    return dagman::DagmanFile::parseFile(request.input_path);
  }();
  if (file.hasDoneJobs()) {
    // Rescue dag: schedule only the pending jobs; DONE jobs keep their
    // existing jobpriority (they will never be submitted again).
    std::vector<std::size_t> job_of_node;
    const dag::Digraph g = file.toPendingDigraph(&job_of_node);
    serveDigraph(g, reply, trace);
    if (!request.output_path.empty()) {
      dagman::instrumentPendingJobs(file, reply.result->priority, job_of_node);
      file.writeFileAtomic(request.output_path);
    }
    return;
  }
  const dag::Digraph g = file.toDigraph();
  serveDigraph(g, reply, trace);
  if (!request.output_path.empty()) {
    dagman::instrumentDagmanFile(file, reply.result->priority);
    file.writeFileAtomic(request.output_path);
  }
}

void PrioService::servePayload(const Payload& payload, Reply& reply,
                               const obs::TraceContext& trace,
                               double budget_s) {
  util::fault::checkpoint("service.parse");
  const bool binary = payload.kind == PayloadKind::kBinaryCsr;
  if (binary) metrics_.binary_requests.add();

  // Payload cache: byte-identical payloads that previously completed kOk
  // skip the whole pipeline. The checkpoint above still fires first, so
  // fault injection sees every request.
  std::uint64_t key = 0;
  if (payload_cache_ != nullptr) {
    key = PayloadCache::keyOf(payload);
    PayloadCache::Rendered hit;
    if (payload_cache_->find(key, payload, hit)) {
      reply.output = std::move(hit.output);
      reply.output_kind = payload.kind;
      reply.result = std::move(hit.result);
      reply.fingerprint = hit.fingerprint;
      reply.layout = hit.layout;
      reply.cache_hit = true;
      metrics_.cache_hits.add();
      metrics_.text_cache_hits.add();
      return;
    }
  }

  // Decode into locals; the timed decode is phase_parse, the numerator
  // of the bench parse share.
  dagman::DagmanFile file;  // text payloads only
  dag::Digraph g;
  std::vector<std::size_t> job_of_node;  // rescue dags only
  bool has_done = false;
  const util::Stopwatch parse_watch;
  {
    obs::Span span(trace, "service.parse");
    if (binary) {
      g = dag::decodeBinaryDag(payload.bytes);
    } else {
      file = dagman::DagmanFile::parse(std::string_view(payload.bytes));
      has_done = file.hasDoneJobs();
      g = has_done ? file.toPendingDigraph(&job_of_node) : file.toDigraph();
    }
  }
  metrics_.phase_parse.record(parse_watch.elapsedSeconds());

  serveDigraph(g, reply, trace, budget_s);

  // Render the answer in the payload's own kind. Binary replies skip
  // DagmanFile entirely — the BPRI table is node-id-indexed, exactly
  // the priority vector's order. Text replies instrument the file just
  // parsed, in place.
  if (binary) {
    reply.output = dag::encodeBinaryPriorities(reply.result->priority);
  } else {
    if (has_done) {
      dagman::instrumentPendingJobs(file, reply.result->priority,
                                    job_of_node);
    } else {
      dagman::instrumentDagmanFile(file, reply.result->priority);
    }
    reply.output = file.render();
  }
  reply.output_kind = payload.kind;

  // Only full-fidelity results are stored: degraded (deadline fallback)
  // output must not be replayed to later, unhurried requests.
  if (payload_cache_ != nullptr && reply.status == RequestStatus::kOk) {
    payload_cache_->insert(
        key, payload,
        {reply.output, reply.result, reply.fingerprint, reply.layout});
  }
}

void PrioService::serveBatch(const BatchRequest& request, Reply& reply,
                             const obs::TraceContext& trace,
                             double budget_s) {
  metrics_.batch_items.add(request.items.size());
  util::Stopwatch watch;
  reply.items.reserve(request.items.size());
  for (const Payload& payload : request.items) {
    Reply item_reply;
    item_reply.tenant = reply.tenant;
    item_reply.trace_id = reply.trace_id;
    // The batch shares one budget; items past its expiry answer
    // kExpired instead of computing a result nobody is waiting for.
    double remaining_s = 0.0;
    if (budget_s > 0.0) {
      remaining_s = budget_s - watch.elapsedSeconds();
      if (remaining_s <= 0.0) {
        item_reply.status = RequestStatus::kExpired;
        metrics_.requests_expired.add();
        reply.items.push_back(std::move(item_reply));
        continue;
      }
    }
    try {
      servePayload(payload, item_reply, trace, remaining_s);
    } catch (const util::TransientError& e) {
      item_reply.result.reset();
      item_reply.status = RequestStatus::kFailed;
      item_reply.error = e.what();
      item_reply.transient = true;
      metrics_.requests_failed.add();
    } catch (const std::exception& e) {
      // A malformed item (bad payload bytes, cyclic dag) fails alone;
      // the batch and its connection live on.
      item_reply.result.reset();
      item_reply.status = RequestStatus::kFailed;
      item_reply.error = e.what();
      metrics_.requests_failed.add();
    }
    reply.items.push_back(std::move(item_reply));
  }
}

namespace {

const std::string& sourceOf(const FileRequest& r) { return r.input_path; }
std::string sourceOf(const dag::Digraph&) { return {}; }
std::string sourceOf(const Request&) { return {}; }
std::string sourceOf(const BatchRequest&) { return {}; }

std::uint64_t adoptedTraceId(const FileRequest&) { return 0; }
std::uint64_t adoptedTraceId(const dag::Digraph&) { return 0; }
std::uint64_t adoptedTraceId(const Request& r) { return r.trace_id; }
std::uint64_t adoptedTraceId(const BatchRequest& r) { return r.trace_id; }

std::uint32_t tenantOf(const FileRequest& r) { return r.tenant; }
std::uint32_t tenantOf(const dag::Digraph&) { return 0; }
std::uint32_t tenantOf(const Request& r) { return r.tenant; }
std::uint32_t tenantOf(const BatchRequest& r) { return r.tenant; }

double deadlineOf(const FileRequest&) { return 0.0; }
double deadlineOf(const dag::Digraph&) { return 0.0; }
double deadlineOf(const Request& r) { return r.deadline_s; }
double deadlineOf(const BatchRequest& r) { return r.deadline_s; }

}  // namespace

template <typename RequestT>
void PrioService::enqueueWith(RequestT request,
                              std::function<void(Reply)> complete) {
  metrics_.requests_submitted.add();

  // std::function must be copyable, so the completion and the request
  // live behind a shared_ptr. The stopwatch starts here: latency_s
  // includes queue wait.
  struct Holder {
    util::Stopwatch watch;
    std::function<void(Reply)> complete;
    RequestT request;
  };
  auto holder = std::make_shared<Holder>();
  holder->request = std::move(request);
  holder->complete = std::move(complete);

  auto task = [this, holder] {
    Reply reply;
    reply.source = sourceOf(holder->request);
    reply.tenant = tenantOf(holder->request);
    // Shed before computing: under overload a request that already
    // outwaited its queue deadline would deliver a stale answer.
    if (config_.queue_deadline_s > 0.0 &&
        holder->watch.elapsedSeconds() > config_.queue_deadline_s) {
      reply.status = RequestStatus::kShed;
      metrics_.requests_shed.add();
      reply.latency_s = holder->watch.elapsedSeconds();
      metrics_.latency_total.record(reply.latency_s);
      holder->complete(std::move(reply));
      return;
    }
    // Same idea for the request's own budget (the wire deadline): spent
    // waiting in the queue means the caller has stopped listening.
    const double budget_s = deadlineOf(holder->request);
    if (budget_s > 0.0 && holder->watch.elapsedSeconds() >= budget_s) {
      reply.status = RequestStatus::kExpired;
      metrics_.requests_expired.add();
      reply.latency_s = holder->watch.elapsedSeconds();
      metrics_.latency_total.record(reply.latency_s);
      holder->complete(std::move(reply));
      return;
    }
    try {
      // One trace per request: a fresh trace id (or the wire-propagated
      // one for text requests) and a "service.request" root span whose
      // children are the parse/fingerprint/pipeline spans, recorded from
      // whichever worker thread runs the task.
      const obs::TraceContext trace =
          beginRequestTrace(adoptedTraceId(holder->request));
      obs::Span span(trace, "service.request");
      if constexpr (std::is_same_v<RequestT, FileRequest>) {
        serveFile(holder->request, reply, span.context());
      } else if constexpr (std::is_same_v<RequestT, Request> ||
                           std::is_same_v<RequestT, BatchRequest>) {
        // Whatever budget survived the queue bounds the compute. The
        // floor keeps a budget that ran out between the expiry check
        // and here meaningful: the CancelToken fires on its first poll
        // and the request degrades instead of computing unbounded.
        const double remaining_s =
            budget_s > 0.0
                ? std::max(budget_s - holder->watch.elapsedSeconds(), 1e-6)
                : 0.0;
        if constexpr (std::is_same_v<RequestT, Request>) {
          servePayload(holder->request.payload, reply, span.context(),
                       remaining_s);
        } else {
          serveBatch(holder->request, reply, span.context(), remaining_s);
        }
      } else {
        serveDigraph(holder->request, reply, span.context());
      }
      metrics_.requests_completed.add();
    } catch (const util::TransientError& e) {
      reply.result.reset();
      reply.status = RequestStatus::kFailed;
      reply.error = e.what();
      reply.transient = true;
      metrics_.requests_failed.add();
    } catch (const std::exception& e) {
      reply.result.reset();
      reply.status = RequestStatus::kFailed;
      reply.error = e.what();
      metrics_.requests_failed.add();
    }
    reply.latency_s = holder->watch.elapsedSeconds();
    metrics_.latency_total.record(reply.latency_s);
    if (reply.cache_hit) metrics_.latency_cache_hit.record(reply.latency_s);
    holder->complete(std::move(reply));
  };

  // The tenant id routes the task into its fair-queue lane; the FIFO
  // backend ignores it, so untenanted services keep the PR 1 semantics.
  const std::uint32_t tenant_id = tenantOf(holder->request);
  const bool accepted = config_.backpressure == BackpressurePolicy::kBlock
                            ? pool_.submitFor(tenant_id, std::move(task))
                            : pool_.trySubmitFor(tenant_id, std::move(task));
  if (!accepted) {
    metrics_.requests_rejected.add();
    Reply reply;
    reply.status = RequestStatus::kRejected;
    reply.source = sourceOf(holder->request);
    reply.tenant = tenant_id;
    reply.latency_s = holder->watch.elapsedSeconds();
    holder->complete(std::move(reply));
  }
}

template <typename RequestT>
std::future<Reply> PrioService::enqueue(RequestT request) {
  auto promise = std::make_shared<std::promise<Reply>>();
  std::future<Reply> future = promise->get_future();
  enqueueWith(std::move(request), [promise](Reply reply) {
    promise->set_value(std::move(reply));
  });
  return future;
}

std::future<Reply> PrioService::submit(dag::Digraph g) {
  return enqueue(std::move(g));
}

std::future<Reply> PrioService::submit(FileRequest request) {
  return enqueue(std::move(request));
}

std::future<Reply> PrioService::submit(Request request) {
  return enqueue(std::move(request));
}

std::future<Reply> PrioService::submit(BatchRequest request) {
  return enqueue(std::move(request));
}

void PrioService::submitCallback(Request request,
                                 std::function<void(Reply)> done) {
  enqueueWith(std::move(request), std::move(done));
}

void PrioService::submitCallback(BatchRequest request,
                                 std::function<void(Reply)> done) {
  enqueueWith(std::move(request), std::move(done));
}

std::vector<std::future<Reply>> PrioService::submitBatch(
    std::vector<dag::Digraph> dags) {
  std::vector<std::future<Reply>> futures;
  futures.reserve(dags.size());
  for (dag::Digraph& g : dags) futures.push_back(submit(std::move(g)));
  return futures;
}

std::vector<std::future<Reply>> PrioService::submitBatch(
    std::vector<FileRequest> files) {
  std::vector<std::future<Reply>> futures;
  futures.reserve(files.size());
  for (FileRequest& f : files) futures.push_back(submit(std::move(f)));
  return futures;
}

Reply PrioService::prioritizeNow(const dag::Digraph& g) {
  metrics_.requests_submitted.add();
  util::Stopwatch watch;
  Reply reply;
  try {
    const obs::TraceContext trace = beginRequestTrace();
    obs::Span span(trace, "service.request");
    serveDigraph(g, reply, span.context());
    metrics_.requests_completed.add();
  } catch (const util::TransientError& e) {
    reply.result.reset();
    reply.status = RequestStatus::kFailed;
    reply.error = e.what();
    reply.transient = true;
    metrics_.requests_failed.add();
  } catch (const std::exception& e) {
    reply.result.reset();
    reply.status = RequestStatus::kFailed;
    reply.error = e.what();
    metrics_.requests_failed.add();
  }
  reply.latency_s = watch.elapsedSeconds();
  metrics_.latency_total.record(reply.latency_s);
  if (reply.cache_hit) metrics_.latency_cache_hit.record(reply.latency_s);
  return reply;
}

void PrioService::writeMetricsJson(std::ostream& out) {
  metrics_.queue_high_water.set(pool_.queueHighWater());
  out << "{\"threads\":" << pool_.numThreads()
      << ",\"queue_capacity\":" << pool_.queueCapacity()
      << ",\"backpressure\":\""
      << (config_.backpressure == BackpressurePolicy::kBlock ? "block"
                                                             : "reject")
      << "\",\"cache\":";
  if (cache_ != nullptr) {
    out << "{\"capacity\":" << cache_->capacity()
        << ",\"shards\":" << cache_->numShards()
        << ",\"size\":" << cache_->size()
        << ",\"evictions\":" << cache_->evictions() << "}";
  } else {
    out << "null";
  }
  out << ",\"metrics\":";
  metrics_.writeJson(out);
  out << "}";
}

void PrioService::writePrometheusText(std::ostream& out) {
  metrics_.queue_high_water.set(pool_.queueHighWater());
  metrics_.writePrometheus(out);
}

}  // namespace prio::service
