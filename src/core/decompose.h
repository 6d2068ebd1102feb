// The Divide phase of the heuristic (§3.1 steps 1–2).
//
// Given the shortcut-free dag G', the decomposition repeatedly identifies
// a component C(s) — the smallest subgraph containing a source s that is
// closed under (a) children of member sources and (b) parents of members —
// that is containment-minimal, and detaches it by removing its non-sinks
// and those of its sinks that are sinks of G'. Sinks of a component that
// are not global sinks stay behind and become sources of later components
// (they are the composition interfaces recorded in the superdag).
//
// The engineering of §3.5 is reproduced: a bipartite fast path first looks
// for a maximal connected bipartite subdag whose sources are all current
// sources (containment-minimality is automatic there), falling back to the
// general fixpoint search only when no bipartite component exists. The
// fast path can be disabled for the ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dag/digraph.h"
#include "util/cancellation.h"

namespace prio::core {

/// Marker for nodes scheduled at the very end (sinks of G').
inline constexpr std::uint32_t kGlobalSinkOwner = 0xFFFFFFFFu;

/// One detached component.
struct Component {
  /// Global node ids of all members (non-sinks and sinks); the member's
  /// index in this vector is its local id in `graph`.
  std::vector<dag::NodeId> nodes;
  /// Induced subgraph on `nodes` (local ids). With
  /// DecomposeOptions::defer_component_graphs this is left empty by
  /// decompose() and materialized by the schedule phase (in parallel,
  /// via scheduleComponents(ScheduleRequest)); num_nonsinks and
  /// bipartite are always filled either way.
  dag::Digraph graph;
  /// Number of members with at least one child inside the component —
  /// exactly the jobs this component schedules.
  std::size_t num_nonsinks = 0;
  /// True when the component is a bipartite dag.
  bool bipartite = false;
};

/// The full decomposition of G'.
struct Decomposition {
  std::vector<Component> components;  ///< in detach order
  /// Superdag: node i = components[i]; arc i -> j when some job scheduled
  /// by component i has a child belonging to component j (§2.2 step 2's
  /// composition structure). Always acyclic.
  dag::Digraph superdag;
  /// Per global node: index of the component that schedules it, or
  /// kGlobalSinkOwner for sinks of G' (scheduled last).
  std::vector<std::uint32_t> owner;
  /// Sinks of G' in id order.
  std::vector<dag::NodeId> global_sinks;
  /// Diagnostics.
  std::size_t bipartite_components = 0;
  std::size_t general_searches = 0;  ///< times the slow fixpoint path ran
};

struct DecomposeOptions {
  /// §3.5 fast path: try maximal connected bipartite components first.
  bool bipartite_fast_path = true;
  /// Optional deadline/cancel token, polled once per detached component
  /// and per fast-path seed attempt; raises util::Cancelled when it
  /// fires. Null = never cancel.
  const util::CancelToken* cancel = nullptr;
  /// Optional precomputed topological order of the input graph. When set,
  /// decompose() verifies it instead of re-deriving an order for the
  /// acyclicity precondition — the pipeline computes the order once and
  /// reuses it across reduction, decomposition, and their checks.
  const std::vector<dag::NodeId>* topo_order = nullptr;
  /// Leave Component::graph empty; the schedule phase materializes the
  /// induced subgraphs (in parallel) via
  /// scheduleComponents(ScheduleRequest). Building those graphs (copied
  /// names plus CSR arrays per component) is the most expensive part of
  /// a detach, and it is embarrassingly parallel — deferring it moves
  /// the cost into the parallel phase. prioritize() always defers. Off
  /// by default so direct decompose() callers keep seeing graphs.
  bool defer_component_graphs = false;
};

/// Decomposes a shortcut-free dag. Precondition: g is acyclic.
[[nodiscard]] Decomposition decompose(const dag::Digraph& g,
                                      const DecomposeOptions& options = {});

}  // namespace prio::core
