#include "core/schedule.h"

#include <algorithm>
#include <span>
#include <utility>

#include "dag/algorithms.h"
#include "theory/eligibility.h"
#include "util/check.h"
#include "util/parallel_for.h"

namespace prio::core {

ComponentSchedule scheduleComponent(const Component& component,
                                    const ScheduleOptions& options) {
  ComponentSchedule out;
  out.recognition = theory::recognizeBlock(component.graph);
  if (options.greedy_bipartite_fallback &&
      out.recognition.kind == theory::BlockKind::kBipartiteGeneric) {
    out.recognition.schedule =
        theory::greedyBipartiteSchedule(component.graph);
  }
  PRIO_CHECK(out.recognition.schedule.size() == component.nodes.size());
  // The schedule's first num_nonsinks entries must be exactly the
  // component's non-sinks (every recognizer and fallback guarantees
  // non-sinks-before-sinks); the profile is evaluated over that prefix.
  for (std::size_t i = 0; i < component.num_nonsinks; ++i) {
    PRIO_CHECK_MSG(
        component.graph.outDegree(out.recognition.schedule[i]) > 0,
        "component schedule must execute all non-sinks before sinks");
  }
  out.profile = theory::eligibilityProfile(
      component.graph,
      std::span<const dag::NodeId>(out.recognition.schedule)
          .first(component.num_nonsinks));
  return out;
}

std::vector<ComponentSchedule> scheduleComponents(
    const Decomposition& decomposition, const ScheduleOptions& options) {
  std::vector<ComponentSchedule> out;
  out.reserve(decomposition.components.size());
  for (const Component& c : decomposition.components) {
    if (options.cancel != nullptr) {
      options.cancel->throwIfCancelled("schedule");
    }
    out.push_back(scheduleComponent(c, options));
  }
  return out;
}

namespace {

// Materializes a deferred component graph and schedules the component.
// Shared by the serial and parallel drains of the overload below.
void materializeAndSchedule(const dag::Digraph& reduced, Component& comp,
                            ComponentSchedule& slot,
                            const ScheduleOptions& options) {
  if (options.cancel != nullptr) {
    options.cancel->throwIfCancelled("schedule");
  }
  if (comp.graph.numNodes() != comp.nodes.size()) {
    comp.graph = reduced.inducedSubgraph(comp.nodes);
  }
  slot = scheduleComponent(comp, options);
}

}  // namespace

std::vector<ComponentSchedule> scheduleComponents(
    const ScheduleRequest& request) {
  PRIO_CHECK_MSG(request.reduced != nullptr,
                 "ScheduleRequest::reduced is required");
  PRIO_CHECK_MSG(request.decomposition != nullptr,
                 "ScheduleRequest::decomposition is required");
  const dag::Digraph& reduced = *request.reduced;
  const ScheduleOptions& options = request.options;
  auto& comps = request.decomposition->components;
  std::vector<ComponentSchedule> out(comps.size());

  std::size_t total_nodes = 0;
  for (const Component& c : comps) total_nodes += c.nodes.size();

  // Below this size the work fits in one cache-warm pass and thread
  // startup/handoff dominates; stay serial (output is identical anyway).
  constexpr std::size_t kParallelMinNodes = 2048;
  const std::size_t threads = util::resolveNumThreads(options.num_threads);
  if (threads <= 1 || comps.size() < 2 || total_nodes < kParallelMinNodes) {
    obs::Span span(options.trace, "schedule.item");
    for (std::size_t i = 0; i < comps.size(); ++i) {
      materializeAndSchedule(reduced, comps[i], out[i], options);
    }
    return out;
  }

  // Chunk contiguous component ranges into work items of roughly equal
  // node count — components vary from a handful of nodes to SDSS-size
  // joins, so count-based chunks would load-balance badly. ~4 items per
  // thread keeps the tail short without inflating claim traffic.
  struct Item {
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Item> items;
  const std::size_t target =
      std::max<std::size_t>(1, total_nodes / (threads * 4));
  std::size_t begin = 0;
  std::size_t acc = 0;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    acc += comps[i].nodes.size();
    if (acc >= target) {
      items.push_back({begin, i + 1});
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < comps.size()) items.push_back({begin, comps.size()});

  util::parallelClaim(
      options.pool, threads, items.size(), [&](std::size_t item) {
        // One span per claimed item, recorded from the worker thread into
        // its own ring; the explicit parent in options.trace keeps the
        // nesting correct even though this thread never saw the parent
        // span object.
        obs::Span span(options.trace, "schedule.item");
        for (std::size_t i = items[item].begin; i < items[item].end; ++i) {
          materializeAndSchedule(reduced, comps[i], out[i], options);
        }
      });
  return out;
}

}  // namespace prio::core
