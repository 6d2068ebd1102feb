// Differential serving parity: a dag's answer must not depend on how it
// reaches PrioService. Every reply is checked byte for byte against a
// direct core::prioritize() of the same payload, rendered in the
// payload's own kind (instrumented DAGMan text or a BPRI table), across
//   - caches on vs cache_capacity = 0,
//   - DAGMan text vs BDAG payloads,
//   - a single Request vs an item of a BatchRequest,
//   - first submission (computed) vs a byte-identical repeat (payload
//     cache hit) vs the same dag under renamed jobs (fingerprint hit).
// The corpus draws seeded dags from workloads/random (layered and
// Erdős–Rényi with shortcut arcs), workloads/pegasus, theory/blocks, the
// scaled scientific workloads, and one rescue dag with DONE jobs. Only
// the public API is used.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/prio.h"
#include "dag/csr.h"
#include "dag/digraph.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "service/service.h"
#include "stats/rng.h"
#include "theory/blocks.h"
#include "workloads/pegasus.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using namespace prio;
using service::Payload;
using service::PayloadKind;
using service::Reply;
using service::RequestStatus;

struct Case {
  std::string name;
  dag::Digraph g;
  /// Jobs [0, done) are marked DONE in the text form (a rescue dag).
  std::size_t done = 0;
};

std::vector<Case> corpus() {
  std::vector<Case> cases;
  stats::Rng rng(20060619);
  cases.push_back({"layered", workloads::layeredRandom(6, 12, 0.15, rng)});
  cases.push_back({"erdos-renyi", workloads::randomDag(70, 0.12, rng)});
  cases.push_back({"composable", workloads::randomComposable(25, rng)});
  cases.push_back({"cybershake", workloads::makeCybershake({3, 6})});
  cases.push_back({"epigenomics", workloads::makeEpigenomics({3, 4})});
  cases.push_back({"block-W", theory::makeW(4, 3)});
  cases.push_back({"block-M", theory::makeM(3, 4)});
  cases.push_back({"block-N", theory::makeN(6)});
  cases.push_back({"block-cycle", theory::makeCycleDag(5)});
  cases.push_back({"block-clique", theory::makeCliqueDag(4)});
  cases.push_back({"airsn", workloads::makeAirsn({12, 5})});
  cases.push_back({"inspiral", workloads::makeInspiral({4, 5})});
  cases.push_back({"montage", workloads::makeMontage({3, 6, 4})});
  cases.push_back({"sdss", workloads::makeSdss({20, 4, 2, 15})});
  // Rescue dag: the first layer (every source) already ran.
  cases.push_back(
      {"rescue", workloads::layeredRandom(5, 9, 0.2, rng), /*done=*/9});
  return cases;
}

/// DAGMan text for `c`, jobs in id order under `prefix` + name. DONE jobs
/// keep a stale jobpriority the service must leave alone; a trailing
/// RETRY line must survive verbatim.
std::string dagText(const Case& c, const std::string& prefix) {
  dagman::DagmanFile file;
  for (dag::NodeId u = 0; u < c.g.numNodes(); ++u) {
    dagman::DagmanJob& job = file.addJob(prefix + c.g.name(u), "job.submit");
    if (u < c.done) {
      job.done = true;
      job.setVar("jobpriority", "1");
    }
  }
  for (dag::NodeId u = 0; u < c.g.numNodes(); ++u) {
    for (dag::NodeId v : c.g.children(u)) {
      file.addDependency(prefix + c.g.name(u), prefix + c.g.name(v));
    }
  }
  std::ostringstream out;
  file.write(out);
  out << "RETRY " << prefix << c.g.name(0) << " 2\n";
  return std::move(out).str();
}

dagman::DagmanFile parseText(const std::string& text) {
  std::istringstream in(text);
  return dagman::DagmanFile::parse(in);
}

/// The payload for `c` in `kind`. The binary form carries the dag the
/// text form schedules: the pending jobs of a rescue dag.
Payload payloadOf(const Case& c, PayloadKind kind, const std::string& prefix) {
  const std::string text = dagText(c, prefix);
  if (kind == PayloadKind::kDagmanText) return Payload::text(text);
  return Payload::binary(
      dag::encodeBinaryDag(parseText(text).toPendingDigraph()));
}

/// The oracle: core::prioritize() straight on the payload's dag, with the
/// answer rendered exactly as a reply in the payload's kind renders it.
struct Expected {
  std::string output;
  core::PrioResult result;
};

Expected directAnswer(const Payload& payload) {
  Expected e;
  if (payload.kind == PayloadKind::kBinaryCsr) {
    const dag::Digraph g = dag::decodeBinaryDag(payload.bytes);
    e.result = core::prioritize(core::PrioRequest(g));
    e.output = dag::encodeBinaryPriorities(e.result.priority);
    return e;
  }
  dagman::DagmanFile file = parseText(payload.bytes);
  std::vector<std::size_t> job_of_node;
  const dag::Digraph g = file.toPendingDigraph(&job_of_node);
  e.result = core::prioritize(core::PrioRequest(g));
  if (file.hasDoneJobs()) {
    dagman::instrumentPendingJobs(file, e.result.priority, job_of_node);
  } else {
    dagman::instrumentDagmanFile(file, e.result.priority);
  }
  std::ostringstream out;
  file.write(out);
  e.output = std::move(out).str();
  return e;
}

/// Submits `payload` alone or as the one item of a batch and returns the
/// reply that carries its answer.
Reply serve(service::PrioService& svc, const Payload& payload, bool batch) {
  if (!batch) return svc.submit(service::Request{payload}).get();
  service::BatchRequest request;
  request.items.push_back(payload);
  Reply reply = svc.submit(std::move(request)).get();
  EXPECT_EQ(reply.status, RequestStatus::kOk);
  EXPECT_EQ(reply.items.size(), 1u);
  if (reply.items.size() != 1) return Reply{};
  return std::move(reply.items.front());
}

void expectAnswer(const Reply& reply, const Payload& payload,
                  const Expected& expected) {
  ASSERT_EQ(reply.status, RequestStatus::kOk) << reply.error;
  EXPECT_EQ(reply.output_kind, payload.kind);
  EXPECT_TRUE(reply.output == expected.output) << "reply bytes differ";
  ASSERT_NE(reply.result, nullptr);
  EXPECT_EQ(reply.result->schedule, expected.result.schedule);
  EXPECT_EQ(reply.result->priority, expected.result.priority);
  EXPECT_EQ(reply.result->certified_ic_optimal,
            expected.result.certified_ic_optimal);
}

struct Forms {
  Payload original;
  Payload renamed;
  Expected original_answer;
  Expected renamed_answer;
};

std::vector<Forms> formsOf(const std::vector<Case>& cases, PayloadKind kind) {
  std::vector<Forms> out;
  for (const Case& c : cases) {
    Forms f;
    f.original = payloadOf(c, kind, "");
    f.renamed = payloadOf(c, kind, "renamed_");
    f.original_answer = directAnswer(f.original);
    f.renamed_answer = directAnswer(f.renamed);
    out.push_back(std::move(f));
  }
  return out;
}

TEST(ServingParity, CorpusCoversShortcutsRescueAndCertifiedBlocks) {
  const std::vector<Case> cases = corpus();
  bool shortcuts = false;
  bool certified = false;
  for (const Case& c : cases) {
    const core::PrioResult r = core::prioritize(core::PrioRequest(c.g));
    shortcuts = shortcuts || r.shortcuts_removed > 0;
    certified = certified || r.certified_ic_optimal;
  }
  EXPECT_TRUE(shortcuts);
  EXPECT_TRUE(certified);
  EXPECT_TRUE(parseText(dagText(cases.back(), "")).hasDoneJobs());
}

TEST(ServingParity, EveryPathRendersTheDirectAnswer) {
  const std::vector<Case> cases = corpus();
  for (const PayloadKind kind :
       {PayloadKind::kDagmanText, PayloadKind::kBinaryCsr}) {
    const std::vector<Forms> forms = formsOf(cases, kind);
    for (const bool caches : {true, false}) {
      for (const bool batch : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << (kind == PayloadKind::kBinaryCsr ? "bdag" : "text")
                     << (caches ? " caches-on" : " caches-off")
                     << (batch ? " batch-item" : " single"));
        service::ServiceConfig config;
        config.num_threads = 2;
        if (!caches) config.cache_capacity = 0;
        service::PrioService svc(config);
        const service::ServiceMetrics& m = svc.metrics();

        for (std::size_t i = 0; i < cases.size(); ++i) {
          SCOPED_TRACE(cases[i].name);
          const Forms& f = forms[i];
          const std::uint64_t hits0 = m.cache_hits.get();
          const std::uint64_t memo0 = m.text_cache_hits.get();

          const Reply first = serve(svc, f.original, batch);
          expectAnswer(first, f.original, f.original_answer);
          EXPECT_FALSE(first.cache_hit);
          EXPECT_EQ(m.cache_hits.get(), hits0);

          const Reply repeat = serve(svc, f.original, batch);
          expectAnswer(repeat, f.original, f.original_answer);
          EXPECT_EQ(repeat.cache_hit, caches);
          EXPECT_EQ(repeat.fingerprint, first.fingerprint);
          EXPECT_EQ(repeat.layout, first.layout);
          EXPECT_EQ(m.text_cache_hits.get(), memo0 + (caches ? 1 : 0));
          EXPECT_EQ(m.cache_hits.get(), hits0 + (caches ? 1 : 0));

          const Reply renamed = serve(svc, f.renamed, batch);
          expectAnswer(renamed, f.renamed, f.renamed_answer);
          EXPECT_EQ(renamed.cache_hit, caches);
          EXPECT_EQ(renamed.fingerprint, first.fingerprint);
          EXPECT_EQ(m.text_cache_hits.get(), memo0 + (caches ? 1 : 0));
          EXPECT_EQ(m.cache_hits.get(), hits0 + (caches ? 2 : 0));
        }
        EXPECT_EQ(m.parse_cache_hits.get(), 0u);
        EXPECT_EQ(m.requests_failed.get(), 0u);
      }
    }
  }
}

// One batch carrying every form of every dag in both kinds: items are
// served in order on one worker, so later items hit what earlier ones
// stored. Each item must still match the oracle, with caches on or off.
TEST(ServingParity, OneMixedBatchMatchesTheOracleItemByItem) {
  const std::vector<Case> cases = corpus();
  std::vector<Payload> items;
  std::vector<Expected> answers;
  for (const PayloadKind kind :
       {PayloadKind::kDagmanText, PayloadKind::kBinaryCsr}) {
    for (Forms& f : formsOf(cases, kind)) {
      items.push_back(f.original);
      answers.push_back(f.original_answer);
      items.push_back(f.renamed);
      answers.push_back(f.renamed_answer);
      items.push_back(f.original);
      answers.push_back(std::move(f.original_answer));
    }
  }

  for (const bool caches : {true, false}) {
    SCOPED_TRACE(caches ? "caches-on" : "caches-off");
    service::ServiceConfig config;
    config.num_threads = 1;
    if (!caches) config.cache_capacity = 0;
    service::PrioService svc(config);
    service::BatchRequest request;
    request.items = items;
    const Reply reply = svc.submit(std::move(request)).get();
    ASSERT_EQ(reply.status, RequestStatus::kOk);
    ASSERT_EQ(reply.items.size(), items.size());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "item " << i);
      expectAnswer(reply.items[i], items[i], answers[i]);
      if (reply.items[i].cache_hit) ++hits;
    }
    // With caches on only each dag's first text item computes: its
    // renamed twin and the binary items find the result by fingerprint,
    // and the repeats hit the payload cache.
    EXPECT_EQ(hits, caches ? items.size() - cases.size() : 0u);
    EXPECT_EQ(svc.metrics().parse_cache_hits.get(), 0u);
  }
}

}  // namespace
