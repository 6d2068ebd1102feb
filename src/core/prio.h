// Public entry point of the library: the prio scheduling heuristic.
//
// prioritize() runs the full pipeline of §3.1 on any dag:
//   1. remove shortcut arcs (transitive reduction),
//   2. decompose into components (bipartite fast path + general C(s)),
//   3. schedule each component (explicit IC-optimal family schedules or
//      the outdegree fallback),
//   4. combine greedily over the superdag by ⊵_r priorities,
//   5. emit the global PRIO schedule (all non-sinks in combine order, all
//      sinks of G last) and per-job priority values with Fig. 3 semantics
//      (priority n for the first job, 1 for the last).
//
// The result also carries a certificate: when every component has a known
// IC-optimal schedule, the components are linearly prioritizable under ⊵,
// and the superdag respects ⊵ along its arcs (§2.2 steps 4–5), the
// produced schedule is IC-optimal and certified_ic_optimal is set.
//
// API (stability contract in src/prio.h): one request aggregate,
//
//   core::PrioRequest request(my_dag);
//   request.options.schedule_threads = 4;
//   request.options.trace = tracer.beginTrace();
//   core::PrioResult result = core::prioritize(request);
//
// is the entry point into the pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/combine.h"
#include "core/decompose.h"
#include "core/schedule.h"
#include "dag/algorithms.h"
#include "dag/digraph.h"
#include "obs/trace.h"
#include "util/cancellation.h"

namespace prio::core {

/// Every knob of the pipeline in one place. A default-constructed
/// PrioOptions reproduces the paper's heuristic exactly.
struct PrioOptions {
  /// §3.5 decomposition fast path.
  bool bipartite_fast_path = true;
  /// Combine-phase selection structure (§3.5 engineering vs naive).
  CombineStrategy combine_strategy = CombineStrategy::kBTreeClasses;
  /// Extension: marginal-gain greedy fallback for unrecognized bipartite
  /// components (off = paper's outdegree order).
  bool greedy_bipartite_fallback = false;
  /// Validate the final schedule against the input dag (cheap; on by
  /// default).
  bool verify_schedule = true;
  /// Optional deadline/cancel token threaded through the decompose,
  /// schedule, and combine phases (polled at phase boundaries and once
  /// per component inside each phase). When it fires, prioritize()
  /// raises util::Cancelled; the service layer catches that and falls
  /// back to fallbackPrioritize(). Null (the default) adds only a
  /// null-pointer test per check site, leaving results bit-identical.
  const util::CancelToken* cancel = nullptr;
  /// Compute deadline in seconds (0 = unbounded). When set and `cancel`
  /// is null, prioritize() arms an internal CancelToken with this
  /// deadline — same semantics as passing a token, without the caller
  /// managing its lifetime. Ignored when `cancel` is non-null (an
  /// explicit token carries its own deadline).
  double deadline_s = 0.0;
  /// Worker count for the per-component schedule phase (step 3), which
  /// also materializes the component subgraphs decompose defers to it.
  /// 1 (default) = serial, 0 = one per hardware thread. Results are
  /// bit-identical for every value — see ScheduleRequest.
  std::size_t schedule_threads = 1;
  /// Optional borrowed thread pool for the schedule phase; helpers are
  /// offered with trySubmit() (never blocks), so the service lends its
  /// request pool here. Null with schedule_threads > 1 = transient pool.
  util::ThreadPool* schedule_pool = nullptr;
  /// Structured tracing context (disabled by default). When enabled,
  /// every phase and every parallel schedule work item records an
  /// obs::Span into the context's Tracer, correctly nested across
  /// worker threads. Disabled contexts cost one branch per span site.
  obs::TraceContext trace;
};

/// One prioritization request: the dag plus every option. The referenced
/// graphs must outlive the prioritize() call (the request is a view, not
/// an owner).
struct PrioRequest {
  /// The dag to prioritize. Required.
  const dag::Digraph* dag = nullptr;
  /// Optional precomputed transitive reduction of `dag`; when set, step 1
  /// is skipped (timings.reduce_s stays 0). The service computes the
  /// reduction once for its structural fingerprint and reuses it here.
  /// Precondition: *reduced == transitiveReduction(*dag); violating it
  /// yields a schedule for the wrong dag (caught by verify_schedule when
  /// the node sets differ).
  const dag::Digraph* reduced = nullptr;
  PrioOptions options;
  /// Attribution only: the tenant the request is billed to (0 = default).
  /// The heuristic ignores it; the service layer threads it through so a
  /// PrioRequest stays traceable to its tenant (DESIGN.md §12).
  std::uint32_t tenant = 0;

  PrioRequest() = default;
  explicit PrioRequest(const dag::Digraph& g) : dag(&g) {}
  PrioRequest(const dag::Digraph& g, PrioOptions opt)
      : dag(&g), options(std::move(opt)) {}
};

/// Wall-clock seconds spent in each phase.
struct PhaseTimings {
  double reduce_s = 0.0;
  double decompose_s = 0.0;
  double recurse_s = 0.0;
  double combine_s = 0.0;
  double total_s = 0.0;
};

struct PrioResult {
  /// The PRIO schedule: every job of the input dag in execution order.
  std::vector<dag::NodeId> schedule;
  /// Per job: priority value (numNodes() for the first scheduled job down
  /// to 1 for the last), as written into DAGMan files.
  std::vector<std::size_t> priority;
  /// The decomposition of the shortcut-free dag.
  Decomposition decomposition;
  /// Per-component schedules and eligibility profiles.
  std::vector<ComponentSchedule> component_schedules;
  /// Combine-phase outcome (pop order, profile classes, perfect-pop flag).
  CombineResult combine;
  /// True when the theoretical algorithm's success conditions held, which
  /// certifies the schedule IC-optimal.
  bool certified_ic_optimal = false;
  /// Arcs removed by step 1.
  std::size_t shortcuts_removed = 0;
  PhaseTimings timings;
};

/// Runs the prio heuristic. Throws util::Error when the dag has a
/// directed cycle, util::Cancelled when the request's cancel token or
/// deadline fires mid-pipeline.
///
/// Thread safety: re-entrant. All state is per-call; the request's graphs
/// are only read, so concurrent calls on the same or different dags are
/// safe (this is what the prioritization service in src/service/ relies
/// on, and what tests/test_service.cpp exercises under TSan).
[[nodiscard]] PrioResult prioritize(const PrioRequest& request);

/// Convenience: just the schedule.
[[nodiscard]] std::vector<dag::NodeId> prioSchedule(
    const dag::Digraph& g, const PrioOptions& options = {});

/// Graceful-degradation fallback: the paper's §3.1 component fallback
/// (precedence-respecting order by outdegree, ties by node id) applied
/// to the whole dag in one pass, skipping decomposition entirely.
/// O((n + m) log n), never IC-certified, but always a valid schedule
/// with Fig. 3 priority semantics — what the service returns with a
/// kDegraded reply when a compute deadline expires mid-heuristic. The
/// optional trace context records one "prio.fallback" span, so degraded
/// requests stay attributable to their trace id.
/// Throws util::Error when g has a directed cycle.
[[nodiscard]] PrioResult fallbackPrioritize(
    const dag::Digraph& g, const obs::TraceContext& trace = {});

/// The FIFO baseline order used throughout the paper's evaluation: jobs in
/// the order they become eligible, where simultaneously eligible jobs are
/// taken in id (input file) order. This is the static order DAGMan's FIFO
/// regimen induces when every job runs for the same duration.
[[nodiscard]] std::vector<dag::NodeId> fifoSchedule(const dag::Digraph& g);

}  // namespace prio::core
