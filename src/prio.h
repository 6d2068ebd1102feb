// Umbrella header: the library's entire public API in one include.
//
//   #include "prio.h"
//   prio::core::PrioRequest request(my_dag);
//   prio::core::PrioResult result = prio::core::prioritize(request);
//
// Individual subsystem headers remain the preferred includes inside this
// repository; the umbrella exists for downstream consumers.
//
// Stability contract (DESIGN.md §10): everything re-exported here is the
// public surface. PRIO_API_VERSION bumps when that surface changes
// incompatibly. A replaced entry point may stay one version as a
// deprecated shim with bit-identical behavior; it is removed at the next
// bump. No shim is live at version 4.
#pragma once

/// Public API version.
///   4 = version 3 with one shortcut-removal algorithm: no
///       dag::ReductionMethod, PrioOptions::reduction_method or method
///       parameter of transitiveReduction() and structuralFingerprint(),
///       and no dag::descendantMatrix() or util::BitMatrix.
///   3 = version 2 without its deprecated shims (the loose prioritize()
///       overloads, prioritizeWithReduction(), the three-argument
///       scheduleComponents(), service::TextRequest and
///       net::Response::usableOutput()) and without ServiceConfig's
///       text_cache_capacity and parse_cache_capacity/_shards.
///   2 = the PrioRequest/PrioOptions aggregate API plus the obs
///       observability layer (metrics registry + structured tracing).
///   1 = the original loose-overload surface.
#define PRIO_API_VERSION 4

// Substrates.
#include "dag/algorithms.h"   // IWYU pragma: export
#include "dag/digraph.h"      // IWYU pragma: export
#include "dag/dot.h"          // IWYU pragma: export
#include "dag/fingerprint.h"  // IWYU pragma: export
#include "dag/stats.h"        // IWYU pragma: export
#include "stats/distributions.h"  // IWYU pragma: export
#include "stats/rng.h"        // IWYU pragma: export
#include "stats/sampling.h"   // IWYU pragma: export
#include "stats/summary.h"    // IWYU pragma: export
#include "util/bounded_queue.h"  // IWYU pragma: export
#include "util/btree_pq.h"    // IWYU pragma: export
#include "util/check.h"       // IWYU pragma: export
#include "util/thread_pool.h" // IWYU pragma: export
#include "util/timing.h"      // IWYU pragma: export

// Observability: metrics registry + structured tracing (obs::Registry,
// obs::Counter/Gauge/Histogram, obs::Tracer/TraceContext/Span).
#include "obs/metrics.h"  // IWYU pragma: export
#include "obs/trace.h"    // IWYU pragma: export

// Scheduling theory.
#include "theory/batch.h"        // IWYU pragma: export
#include "theory/blocks.h"       // IWYU pragma: export
#include "theory/bruteforce.h"   // IWYU pragma: export
#include "theory/composition.h"  // IWYU pragma: export
#include "theory/curves.h"       // IWYU pragma: export
#include "theory/eligibility.h"  // IWYU pragma: export
#include "theory/priority.h"     // IWYU pragma: export

// The prio heuristic (core::PrioRequest / core::prioritize).
#include "core/prio.h"    // IWYU pragma: export
#include "core/report.h"  // IWYU pragma: export

// DAGMan integration and execution.
#include "dagman/dagman_file.h"  // IWYU pragma: export
#include "dagman/executor.h"     // IWYU pragma: export
#include "dagman/instrument.h"   // IWYU pragma: export
#include "dagman/jsdf.h"         // IWYU pragma: export

// The priod prioritization service.
#include "service/cache.h"    // IWYU pragma: export
#include "service/metrics.h"  // IWYU pragma: export
#include "service/service.h"  // IWYU pragma: export

// Workloads, simulation, and the Condor system model.
#include "condor/system.h"        // IWYU pragma: export
#include "sim/baselines.h"        // IWYU pragma: export
#include "sim/campaign.h"         // IWYU pragma: export
#include "sim/engine.h"           // IWYU pragma: export
#include "sim/extensions.h"       // IWYU pragma: export
#include "sim/trace.h"            // IWYU pragma: export
#include "sim/workers.h"          // IWYU pragma: export
#include "workloads/random.h"     // IWYU pragma: export
#include "workloads/scientific.h" // IWYU pragma: export
