// The Recurse phase (§3.1 step 3): produce a schedule and an eligibility
// profile for every decomposition component — the explicit IC-optimal
// schedule when the component is a recognized Fig. 2 family, otherwise the
// precedence-respecting order-by-outdegree heuristic.
#pragma once

#include <cstddef>
#include <vector>

#include "core/decompose.h"
#include "obs/trace.h"
#include "theory/blocks.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace prio::core {

struct ScheduleOptions {
  /// Extension (off by default, not in the paper): use the marginal-gain
  /// greedy schedule for unrecognized bipartite components instead of the
  /// outdegree order. Compared in bench_ablation_fallback.
  bool greedy_bipartite_fallback = false;
  /// Optional deadline/cancel token, polled once per component (in the
  /// parallel path: by whichever worker handles the component); raises
  /// util::Cancelled when it fires. Null = never cancel.
  const util::CancelToken* cancel = nullptr;
  /// Worker count for scheduleComponents(ScheduleRequest). 1 (default) =
  /// serial; 0 = one per hardware thread. Components are independent, so
  /// parallel output is bit-identical to serial — results land in
  /// component-index order regardless of execution order.
  std::size_t num_threads = 1;
  /// Optional borrowed pool for the parallel path. Work is offered with
  /// trySubmit() only (never blocks), so the service can safely lend its
  /// own request pool; a full pool just means fewer helpers (see
  /// util/parallel_for.h). Null with num_threads > 1 = a transient pool
  /// is spun up per call (the CLI path).
  util::ThreadPool* pool = nullptr;
  /// Tracing context of the enclosing schedule phase. Each parallel work
  /// item records a "schedule.item" span under it FROM ITS WORKER THREAD
  /// — the cross-thread nesting tests/test_obs.cpp pins. Disabled by
  /// default.
  obs::TraceContext trace;
};

/// The schedule phase of one pipeline run: materialize every deferred
/// component graph and schedule every component, in parallel when
/// options.num_threads allows.
struct ScheduleRequest {
  /// The graph the decomposition was computed from; any component whose
  /// graph was deferred (DecomposeOptions::defer_component_graphs) is
  /// materialized from it via inducedSubgraph — inside the workers, which
  /// is where the bulk of the per-component cost lives and why deferring
  /// pays. Required.
  const dag::Digraph* reduced = nullptr;
  /// Decomposition to schedule; deferred component graphs are filled in
  /// place. Required.
  Decomposition* decomposition = nullptr;
  ScheduleOptions options;
};

/// A scheduled component.
struct ComponentSchedule {
  /// Family classification plus the full local-id schedule (non-sinks
  /// first, then sinks).
  theory::BlockRecognition recognition;
  /// Eligibility profile E(x) of the component for x = 0..num_nonsinks
  /// (the quantity the priority relation consumes).
  std::vector<std::size_t> profile;
};

/// Schedules one component.
[[nodiscard]] ComponentSchedule scheduleComponent(
    const Component& component, const ScheduleOptions& options = {});

/// Schedules every component of a decomposition, in order. Serial;
/// requires every Component::graph to be materialized (i.e. decompose()
/// ran without defer_component_graphs).
[[nodiscard]] std::vector<ComponentSchedule> scheduleComponents(
    const Decomposition& decomposition, const ScheduleOptions& options = {});

/// As above, parallel over components with request.options.num_threads
/// workers. Components are grouped into contiguous work items by node
/// count and claimed off an atomic counter; each result is written to its
/// component's slot, so the returned vector (and the filled-in graphs)
/// are bit-identical to the serial path for every thread count.
/// util::Cancelled raised by a worker is rethrown on the calling thread
/// after in-flight items finish.
[[nodiscard]] std::vector<ComponentSchedule> scheduleComponents(
    const ScheduleRequest& request);

}  // namespace prio::core
