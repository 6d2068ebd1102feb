#include "core/prio.h"

#include <deque>
#include <optional>
#include <queue>

#include "theory/priority.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/timing.h"

namespace prio::core {

namespace {

// The theoretical algorithm's success conditions (§2.2 steps 4–5), which
// certify IC-optimality of the assembled schedule.
bool certifyICOptimal(const PrioResult& r) {
  for (const ComponentSchedule& cs : r.component_schedules) {
    if (!cs.recognition.ic_optimal) return false;
  }
  if (!r.combine.all_pops_perfect) return false;
  // Step 4: all component classes pairwise comparable under ⊵.
  if (!theory::linearlyPrioritizable(r.combine.class_profiles)) return false;
  // Step 5: the superdag respects ⊵ along its arcs.
  const dag::Digraph& sd = r.decomposition.superdag;
  for (dag::NodeId i = 0; i < sd.numNodes(); ++i) {
    for (dag::NodeId j : sd.children(i)) {
      if (!theory::hasPriorityOver(
              r.combine.class_profiles[r.combine.profile_class[i]],
              r.combine.class_profiles[r.combine.profile_class[j]])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

PrioResult prioritize(const PrioRequest& request) {
  PRIO_CHECK_MSG(request.dag != nullptr, "PrioRequest::dag is required");
  const dag::Digraph& g = *request.dag;
  const PrioOptions& options = request.options;

  util::Stopwatch total;
  obs::Span pipeline(options.trace, "prio.pipeline");
  const obs::TraceContext ctx = pipeline.context();

  // Deadline without a caller-managed token: arm one here. An explicit
  // token wins — it already carries whatever deadline the caller set.
  std::optional<util::CancelToken> deadline_token;
  const util::CancelToken* cancel = options.cancel;
  if (cancel == nullptr && options.deadline_s > 0.0) {
    deadline_token.emplace(options.deadline_s);
    cancel = &*deadline_token;
  }

  PrioResult out;

  // Step 1: shortcut removal — skipped when the caller supplied the
  // reduction (the service pays for it once during fingerprinting).
  util::Stopwatch phase;
  dag::Digraph reduced_storage;
  const dag::Digraph* reduced = request.reduced;
  if (reduced == nullptr) {
    obs::Span span(ctx, "prio.reduce");
    reduced_storage = transitiveReduction(g, span.context());
    reduced = &reduced_storage;
    out.timings.reduce_s = phase.elapsedSeconds();
  }
  out.shortcuts_removed = g.numEdges() - reduced->numEdges();

  // Step 2: decomposition. The fault sites inject scheduling delays in
  // front of each phase (chaos tests push work past its deadline with
  // them); they cost one relaxed load each when the injector is off.
  // The topological order is derived once here and reused for decompose's
  // acyclicity precondition (verified, not re-derived). Component graphs
  // are deferred: building each induced Digraph is the expensive part of
  // a detach and is embarrassingly parallel, so it runs inside step 3's
  // workers instead.
  phase.reset();
  util::fault::checkpoint("core.decompose");
  {
    obs::Span span(ctx, "prio.decompose");
    const auto topo_order = dag::topologicalOrder(*reduced);
    PRIO_CHECK_MSG(topo_order.has_value(), "decompose requires a dag");
    DecomposeOptions dopt;
    dopt.bipartite_fast_path = options.bipartite_fast_path;
    dopt.cancel = cancel;
    dopt.topo_order = &*topo_order;
    dopt.defer_component_graphs = true;
    out.decomposition = decompose(*reduced, dopt);
  }
  out.timings.decompose_s = phase.elapsedSeconds();

  // Step 3: per-component schedules (materializes the deferred graphs).
  phase.reset();
  util::fault::checkpoint("core.schedule");
  {
    obs::Span span(ctx, "prio.schedule");
    ScheduleRequest sreq;
    sreq.reduced = reduced;
    sreq.decomposition = &out.decomposition;
    sreq.options.greedy_bipartite_fallback = options.greedy_bipartite_fallback;
    sreq.options.cancel = cancel;
    sreq.options.num_threads = options.schedule_threads;
    sreq.options.pool = options.schedule_pool;
    sreq.options.trace = span.context();
    out.component_schedules = scheduleComponents(sreq);
  }
  out.timings.recurse_s = phase.elapsedSeconds();

  // Steps 4–6: greedy combine over the superdag.
  phase.reset();
  util::fault::checkpoint("core.combine");
  {
    obs::Span span(ctx, "prio.combine");
    out.combine = combineGreedy(out.decomposition, out.component_schedules,
                                options.combine_strategy, cancel);
  }
  out.timings.combine_s = phase.elapsedSeconds();

  // Assemble the global schedule: each popped component contributes its
  // non-sinks in its own order; all sinks of G run at the end.
  obs::Span assemble(ctx, "prio.assemble");
  out.schedule.reserve(g.numNodes());
  for (std::size_t ci : out.combine.pop_order) {
    const Component& comp = out.decomposition.components[ci];
    const auto& local_order = out.component_schedules[ci].recognition.schedule;
    for (std::size_t i = 0; i < comp.num_nonsinks; ++i) {
      out.schedule.push_back(comp.nodes[local_order[i]]);
    }
  }
  for (dag::NodeId sink : out.decomposition.global_sinks) {
    out.schedule.push_back(sink);
  }
  PRIO_CHECK_MSG(out.schedule.size() == g.numNodes(),
                 "assembled schedule misses jobs");
  if (options.verify_schedule) {
    PRIO_CHECK_MSG(dag::isTopologicalOrder(g, out.schedule),
                   "assembled schedule violates precedence");
  }

  // Fig. 3 priority semantics: first job gets the highest value.
  const std::size_t n = g.numNodes();
  out.priority.assign(n, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    out.priority[out.schedule[pos]] = n - pos;
  }

  out.certified_ic_optimal = certifyICOptimal(out);
  out.timings.total_s = total.elapsedSeconds();
  return out;
}

std::vector<dag::NodeId> prioSchedule(const dag::Digraph& g,
                                      const PrioOptions& options) {
  return prioritize(PrioRequest(g, options)).schedule;
}

PrioResult fallbackPrioritize(const dag::Digraph& g,
                              const obs::TraceContext& trace) {
  util::Stopwatch total;
  obs::Span span(trace, "prio.fallback");
  const std::size_t n = g.numNodes();
  PrioResult out;

  // Kahn's algorithm with a max-heap keyed (outdegree desc, id asc) —
  // the same order the per-component fallback uses, applied globally.
  struct Key {
    std::size_t outdegree;
    dag::NodeId job;
    bool operator<(const Key& o) const {  // max-heap: "worse" is less
      if (outdegree != o.outdegree) return outdegree < o.outdegree;
      return job > o.job;
    }
  };
  std::priority_queue<Key> eligible;
  std::vector<std::size_t> pending(n);
  for (dag::NodeId u = 0; u < n; ++u) {
    pending[u] = g.inDegree(u);
    if (pending[u] == 0) eligible.push({g.outDegree(u), u});
  }
  out.schedule.reserve(n);
  while (!eligible.empty()) {
    const dag::NodeId u = eligible.top().job;
    eligible.pop();
    out.schedule.push_back(u);
    for (dag::NodeId v : g.children(u)) {
      if (--pending[v] == 0) eligible.push({g.outDegree(v), v});
    }
  }
  PRIO_CHECK_MSG(out.schedule.size() == n,
                 "fallbackPrioritize requires a dag");

  out.priority.assign(n, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    out.priority[out.schedule[pos]] = n - pos;
  }
  out.certified_ic_optimal = false;
  out.timings.total_s = total.elapsedSeconds();
  return out;
}

std::vector<dag::NodeId> fifoSchedule(const dag::Digraph& g) {
  const std::size_t n = g.numNodes();
  std::vector<std::size_t> pending(n);
  std::deque<dag::NodeId> queue;
  for (dag::NodeId u = 0; u < n; ++u) {
    pending[u] = g.inDegree(u);
    if (pending[u] == 0) queue.push_back(u);
  }
  std::vector<dag::NodeId> order;
  order.reserve(n);
  while (!queue.empty()) {
    const dag::NodeId u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for (dag::NodeId v : g.children(u)) {
      if (--pending[v] == 0) queue.push_back(v);
    }
  }
  PRIO_CHECK_MSG(order.size() == n, "fifoSchedule requires a dag");
  return order;
}

}  // namespace prio::core
