// Service-side observability, since PRIO_API_VERSION 2 a thin facade over
// the obs::Registry: every instrument is registered once at construction
// (named handles; see src/obs/metrics.h) and the record path stays
// lock-free relaxed atomics, so worker threads never serialize on
// metrics.
//
// The per-phase histograms reuse core::PhaseTimings — every computed
// (non-cached) request feeds its reduce/decompose/recurse/combine split
// into one histogram each, so a long-running priod exposes the same
// phase breakdown the paper's Table 1 reports for single runs.
//
// Both exports render from ONE Registry::snapshot(): writeJson() keeps
// the historical metrics.json shape (stable key order, nested histogram
// objects, derived cache_hit_rate), writePrometheus() emits the text
// exposition format behind `prio_serve --metrics-text`.
#pragma once

#include <cstdint>
#include <ostream>

#include "core/prio.h"
#include "obs/metrics.h"

namespace prio::service {

/// All metrics of one PrioService instance. Owns a private obs::Registry
/// (each service instance is isolated — tests rely on counts starting at
/// zero) and exposes stable handles under the historical member names, so
/// call sites read exactly as before the registry migration:
/// `service.metrics().cache_hits.get()`.
struct ServiceMetrics {
  ServiceMetrics()
      : requests_submitted(registry.counter("requests_submitted")),
        requests_completed(registry.counter("requests_completed")),
        requests_rejected(registry.counter("requests_rejected")),
        requests_failed(registry.counter("requests_failed")),
        requests_degraded(registry.counter("requests_degraded")),
        requests_deadline_exceeded(
            registry.counter("requests_deadline_exceeded")),
        requests_shed(registry.counter("requests_shed")),
        requests_expired(registry.counter("requests_expired")),
        retries(registry.counter("retries")),
        cache_hits(registry.counter("cache_hits")),
        cache_misses(registry.counter("cache_misses")),
        text_cache_hits(registry.counter("text_cache_hits")),
        parse_cache_hits(registry.counter("parse_cache_hits")),
        fingerprint_aliases(registry.counter("fingerprint_aliases")),
        binary_requests(registry.counter("binary_requests")),
        batch_items(registry.counter("batch_items")),
        queue_high_water(registry.gauge("queue_high_water")),
        latency_total(registry.histogram("latency_total")),
        latency_cache_hit(registry.histogram("latency_cache_hit")),
        phase_parse(registry.histogram("phase_parse")),
        phase_reduce(registry.histogram("phase_reduce")),
        phase_decompose(registry.histogram("phase_decompose")),
        phase_recurse(registry.histogram("phase_recurse")),
        phase_combine(registry.histogram("phase_combine")) {}

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  obs::Registry registry;

  // Request lifecycle.
  obs::Counter& requests_submitted;
  obs::Counter& requests_completed;  ///< served a valid result (full or degraded)
  obs::Counter& requests_rejected;   ///< backpressure: queue full under kReject
  obs::Counter& requests_failed;     ///< parse error, cyclic dag, ...
  // Failure-semantics accounting (see DESIGN.md §8).
  obs::Counter& requests_degraded;   ///< deadline hit; outdegree fallback served
  obs::Counter& requests_deadline_exceeded;  ///< compute deadlines that fired
  obs::Counter& requests_shed;  ///< dropped: queue wait exceeded its deadline
  obs::Counter& requests_expired;  ///< caller budget spent before compute
  obs::Counter& retries;  ///< resubmissions by the prio_serve retry loop
  // Cache outcomes (completed requests only).
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  /// Subset of cache_hits answered by the payload cache (byte-identical
  /// payload; decode, fingerprint and render skipped too). The name
  /// predates binary payloads, which count here as well.
  obs::Counter& text_cache_hits;
  /// Always 0. The parse cache it counted is gone (the payload cache
  /// covers every hit it gave), but the family stays registered and
  /// exported in metrics.json and on /metrics: dashboards and
  /// perfbench's traced run look `prio_parse_cache_hits` up by name.
  obs::Counter& parse_cache_hits;
  /// Structural-fingerprint hit whose stored result was computed under a
  /// different node-id layout: sound to detect, unsound to reuse — served
  /// as a miss (see dag/fingerprint.h).
  obs::Counter& fingerprint_aliases;
  /// Requests (or batch items) that arrived as PayloadKind::kBinaryCsr.
  obs::Counter& binary_requests;
  /// Dags that arrived inside a BatchRequest (the batch itself counts
  /// once in requests_submitted).
  obs::Counter& batch_items;
  /// Queue depth high-water mark, mirrored from the pool at snapshot time.
  obs::Gauge& queue_high_water;

  // Latency split. End-to-end = submit() to reply (queue wait included).
  obs::Histogram& latency_total;
  obs::Histogram& latency_cache_hit;  ///< end-to-end for cache hits
  /// Payload decode (DAGMan text parse or binary-CSR decode) per
  /// non-memoized request — the numerator of the bench parse share.
  obs::Histogram& phase_parse;
  obs::Histogram& phase_reduce;
  obs::Histogram& phase_decompose;
  obs::Histogram& phase_recurse;
  obs::Histogram& phase_combine;

  void recordPhases(const core::PhaseTimings& t) {
    phase_reduce.record(t.reduce_s);
    phase_decompose.record(t.decompose_s);
    phase_recurse.record(t.recurse_s);
    phase_combine.record(t.combine_s);
  }

  [[nodiscard]] double cacheHitRate() const {
    const std::uint64_t h = cache_hits.get();
    const std::uint64_t m = cache_misses.get();
    return h + m == 0 ? 0.0
                      : static_cast<double>(h) / static_cast<double>(h + m);
  }

  /// Full JSON object (stable key order; suitable for BENCH_service.json
  /// and the prio_serve report). Rendered from one registry snapshot.
  void writeJson(std::ostream& out) const;

  /// Prometheus text exposition of the same snapshot (prio_ prefix).
  void writePrometheus(std::ostream& out) const {
    registry.snapshot().writePrometheus(out);
  }
};

}  // namespace prio::service
