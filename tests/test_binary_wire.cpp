// Tests for the v3 typed-payload wire surface (DESIGN.md §15): BDAG /
// BPRI golden bytes and seeded round-trips, decode hardening against
// hostile payloads (truncation, bit flips, overflow, cycle smuggling —
// the server must answer kFailed, never crash a reactor), the batch
// envelope codecs and their end-to-end semantics (one bad item degrades
// itself, not the batch), payload-cache hits on binary payloads, the
// max_batch_payload cap, and v1/v2/v3 interleaving on one raw socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dag/csr.h"
#include "dag/algorithms.h"
#include "dagman/dagman_file.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/service.h"
#include "stats/rng.h"
#include "util/check.h"
#include "util/socket.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using namespace prio;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::Status;

constexpr const char* kFig3 =
    "Job a a.submit\n"
    "Job b b.submit\n"
    "Job c c.submit\n"
    "Job d d.submit\n"
    "Job e e.submit\n"
    "PARENT a CHILD b\n"
    "PARENT c CHILD d e\n";

void putU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

/// Hand-assembles a BDAG payload from raw arrays — the attacker's view
/// of the codec, unconstrained by Digraph invariants.
std::string craftBdag(std::uint32_t n, std::uint32_t m,
                      const std::vector<std::uint32_t>& child_offsets,
                      const std::vector<std::uint32_t>& child_edges,
                      const std::vector<std::uint32_t>& name_offsets,
                      const std::string& blob) {
  std::string out;
  out.append("BDAG");
  out.push_back('\x01');
  out.push_back('\x00');
  out.push_back('\x00');
  out.push_back('\x00');
  putU32(out, n);
  putU32(out, m);
  for (const std::uint32_t v : child_offsets) putU32(out, v);
  for (const std::uint32_t v : child_edges) putU32(out, v);
  for (const std::uint32_t v : name_offsets) putU32(out, v);
  out.append(blob);
  return out;
}

/// DAGMan text for a digraph, jobs in id order — the text-path twin of
/// encodeBinaryDag for parity tests.
std::string dagTextOf(const dag::Digraph& g) {
  dagman::DagmanFile file;
  for (dag::NodeId u = 0; u < g.numNodes(); ++u) {
    file.addJob(g.name(u), "job.submit");
  }
  for (dag::NodeId u = 0; u < g.numNodes(); ++u) {
    for (dag::NodeId v : g.children(u)) {
      file.addDependency(g.name(u), g.name(v));
    }
  }
  std::ostringstream out;
  file.write(out);
  return std::move(out).str();
}

void expectSameStructure(const dag::Digraph& a, const dag::Digraph& b) {
  ASSERT_EQ(a.numNodes(), b.numNodes());
  ASSERT_EQ(a.numEdges(), b.numEdges());
  for (dag::NodeId u = 0; u < a.numNodes(); ++u) {
    EXPECT_EQ(a.name(u), b.name(u));
    const auto ac = a.children(u);
    const auto bc = b.children(u);
    ASSERT_EQ(ac.size(), bc.size()) << "node " << u;
    EXPECT_TRUE(std::equal(ac.begin(), ac.end(), bc.begin()));
    // Parent order depends on edge insertion order, which a round-trip
    // normalizes to ascending source id; compare as sets.
    std::vector<dag::NodeId> ap(a.parents(u).begin(), a.parents(u).end());
    std::vector<dag::NodeId> bp(b.parents(u).begin(), b.parents(u).end());
    std::sort(ap.begin(), ap.end());
    std::sort(bp.begin(), bp.end());
    EXPECT_EQ(ap, bp) << "node " << u;
  }
}

class ServerFixture {
 public:
  explicit ServerFixture(net::ServerConfig config = {}) {
    config.port = 0;
    server_ = std::make_unique<net::Server>(config);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~ServerFixture() {
    if (thread_.joinable()) {
      server_->requestStop();
      thread_.join();
    }
  }
  net::Server& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

// ------------------------------------------------------- codec goldens

TEST(BinaryCodec, GoldenBdagBytes) {
  dag::DigraphBuilder gb;
  gb.addNode("a");
  gb.addNode("b");
  gb.addNode("c");
  gb.addEdge(0, 1);
  gb.addEdge(0, 2);
  const dag::Digraph g = gb.build();
  const std::string wire = dag::encodeBinaryDag(g);

  std::string expected;
  expected.append("BDAG");                      // magic 0x47414442 LE
  expected.append("\x01\x00", 2);               // version 1
  expected.append("\x00\x00", 2);               // flags
  putU32(expected, 3);                          // n
  putU32(expected, 2);                          // m
  for (std::uint32_t v : {0u, 2u, 2u, 2u}) putU32(expected, v);
  for (std::uint32_t v : {1u, 2u}) putU32(expected, v);
  for (std::uint32_t v : {0u, 1u, 2u, 3u}) putU32(expected, v);
  expected.append("abc");
  EXPECT_EQ(wire, expected);

  const dag::Digraph back = dag::decodeBinaryDag(wire);
  expectSameStructure(g, back);
  // Re-encode stability: decode preserves child order, so the bytes fix.
  EXPECT_EQ(dag::encodeBinaryDag(back), wire);
}

TEST(BinaryCodec, GoldenBpriBytes) {
  const std::vector<std::size_t> priorities{2, 0, 1};
  const std::string wire = dag::encodeBinaryPriorities(priorities);
  std::string expected;
  expected.append("BPRI");                      // magic 0x49525042 LE
  expected.append("\x01\x00", 2);
  expected.append("\x00\x00", 2);
  putU32(expected, 3);
  for (std::uint32_t v : {2u, 0u, 1u}) putU32(expected, v);
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(dag::decodeBinaryPriorities(wire), priorities);
}

TEST(BinaryCodec, SeededRoundTrips) {
  stats::Rng rng(20260808);
  int done = 0;
  for (int i = 0; i < 210; ++i) {
    const std::size_t n = 1 + (i % 60);
    const double p = 0.02 + 0.3 * static_cast<double>(i % 7) / 7.0;
    const dag::Digraph g = workloads::randomDag(n, p, rng);
    const std::string wire = dag::encodeBinaryDag(g);
    const dag::Digraph back = dag::decodeBinaryDag(wire);
    expectSameStructure(g, back);
    EXPECT_EQ(dag::encodeBinaryDag(back), wire);
    EXPECT_TRUE(dag::topologicalOrder(back).has_value());
    ++done;
  }
  EXPECT_EQ(done, 210);

  // The empty dag is a valid payload too.
  const dag::Digraph empty;
  EXPECT_EQ(dag::decodeBinaryDag(dag::encodeBinaryDag(empty)).numNodes(), 0u);
}

// ---------------------------------------------------- decode hardening

TEST(BinaryCodec, EveryTruncationRejects) {
  stats::Rng rng(7);
  const std::string wire =
      dag::encodeBinaryDag(workloads::randomDag(30, 0.15, rng));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW((void)dag::decodeBinaryDag(wire.substr(0, len)),
                 util::Error)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(BinaryCodec, BitFlipsNeverCrash) {
  stats::Rng rng(99);
  const std::string wire =
      dag::encodeBinaryDag(workloads::randomDag(25, 0.2, rng));
  for (int i = 0; i < 500; ++i) {
    std::string mutated = wire;
    const std::size_t byte = rng() % mutated.size();
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1u << (rng() % 8)));
    try {
      const dag::Digraph g = dag::decodeBinaryDag(mutated);
      // A surviving mutant must still be a structurally valid dag.
      EXPECT_TRUE(dag::topologicalOrder(g).has_value());
    } catch (const util::Error&) {
      // rejected: fine
    }
  }
}

TEST(BinaryCodec, HostileHeadersReject) {
  // n/m chosen so naive 32-bit size math would wrap; the u64 arithmetic
  // must reject before touching any array.
  std::string huge;
  huge.append("BDAG");
  huge.append("\x01\x00\x00\x00", 4);
  putU32(huge, 0xffffffffu);  // n
  putU32(huge, 0xffffffffu);  // m
  huge.append(64, '\0');
  EXPECT_THROW((void)dag::decodeBinaryDag(huge), util::Error);

  EXPECT_THROW((void)dag::decodeBinaryDag(""), util::Error);
  EXPECT_THROW((void)dag::decodeBinaryDag("BDAG"), util::Error);
  EXPECT_THROW((void)dag::decodeBinaryDag(std::string(16, '\0')),
               util::Error);  // bad magic
}

TEST(BinaryCodec, StructuralViolationsReject) {
  // Baseline: a valid 2-node payload, then one violation at a time.
  EXPECT_EQ(dag::decodeBinaryDag(
                craftBdag(2, 1, {0, 1, 1}, {1}, {0, 1, 2}, "ab"))
                .numEdges(),
            1u);
  // Cycle smuggling: a -> b, b -> a passes every per-edge check and
  // must be caught by the Kahn pass.
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 2, {0, 1, 2}, {1, 0}, {0, 1, 2}, "ab")),
               util::Error);
  // Duplicate edge.
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 2, {0, 2, 2}, {1, 1}, {0, 1, 2}, "ab")),
               util::Error);
  // Self-loop.
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 1, {0, 1, 1}, {0}, {0, 1, 2}, "ab")),
               util::Error);
  // Edge target out of range.
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 1, {0, 1, 1}, {5}, {0, 1, 2}, "ab")),
               util::Error);
  // Non-monotone child offsets.
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 1, {1, 0, 1}, {1}, {0, 1, 2}, "ab")),
               util::Error);
  // Duplicate names.
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 1, {0, 1, 1}, {1}, {0, 1, 2}, "aa")),
               util::Error);
  // Empty name (offsets must be strictly increasing).
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 1, {0, 1, 1}, {1}, {0, 0, 2}, "ab")),
               util::Error);
  // Name offsets past the blob.
  EXPECT_THROW((void)dag::decodeBinaryDag(
                   craftBdag(2, 1, {0, 1, 1}, {1}, {0, 1, 9}, "ab")),
               util::Error);
}

TEST(BinaryCodec, BpriRejectsMalformed) {
  EXPECT_THROW((void)dag::decodeBinaryPriorities(""), util::Error);
  EXPECT_THROW((void)dag::decodeBinaryPriorities("BPRI"), util::Error);
  std::string wrong_size = dag::encodeBinaryPriorities({{1, 2, 3}});
  wrong_size.pop_back();
  EXPECT_THROW((void)dag::decodeBinaryPriorities(wrong_size), util::Error);
}

// ------------------------------------------------------- batch envelope

TEST(BatchEnvelope, RoundTrip) {
  const std::vector<net::BatchItem> items{
      {net::PayloadKind::kDagmanText, "T"},
      {net::PayloadKind::kBinaryCsr, "B"},
  };
  const std::string wire = net::encodeBatchRequest(items);
  std::string expected;
  putU32(expected, 2);
  expected.push_back('\x00');  // kDagmanText
  putU32(expected, 1);
  expected.push_back('T');
  expected.push_back('\x01');  // kBinaryCsr
  putU32(expected, 1);
  expected.push_back('B');
  EXPECT_EQ(wire, expected);

  std::vector<net::BatchItem> back;
  std::string error;
  ASSERT_TRUE(net::decodeBatchRequest(wire, back, error)) << error;
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].kind, net::PayloadKind::kDagmanText);
  EXPECT_EQ(back[0].bytes, "T");
  EXPECT_EQ(back[1].kind, net::PayloadKind::kBinaryCsr);
  EXPECT_EQ(back[1].bytes, "B");

  std::size_t count = 0;
  ASSERT_TRUE(net::validateBatchRequest(wire, 16, count, error)) << error;
  EXPECT_EQ(count, 2u);
  // Per-item cap: a 1-byte item fails a 0-byte cap.
  EXPECT_FALSE(net::validateBatchRequest(wire, 0, count, error));

  const std::vector<net::BatchItemReply> replies{
      {Status::kOk, net::PayloadKind::kDagmanText, "out"},
      {Status::kFailed, net::PayloadKind::kDagmanText, "boom"},
  };
  std::vector<net::BatchItemReply> replies_back;
  ASSERT_TRUE(net::decodeBatchResponse(net::encodeBatchResponse(replies),
                                       replies_back, error))
      << error;
  ASSERT_EQ(replies_back.size(), 2u);
  EXPECT_TRUE(replies_back[0].usable());
  EXPECT_FALSE(replies_back[1].usable());
  EXPECT_EQ(replies_back[1].payload, "boom");
}

TEST(BatchEnvelope, MalformedEnvelopesReject) {
  std::vector<net::BatchItem> out;
  std::size_t count = 0;
  std::string error;
  // Truncated count.
  EXPECT_FALSE(net::decodeBatchRequest("\x01", out, error));
  // Count promises more items than there are bytes.
  std::string overcount;
  putU32(overcount, 3);
  overcount.push_back('\x00');
  putU32(overcount, 1);
  overcount.push_back('x');
  EXPECT_FALSE(net::decodeBatchRequest(overcount, out, error));
  EXPECT_FALSE(net::validateBatchRequest(overcount, 1024, count, error));
  // Trailing junk after the last item.
  std::string trailing =
      net::encodeBatchRequest({{net::PayloadKind::kDagmanText, "x"}});
  trailing.push_back('!');
  EXPECT_FALSE(net::decodeBatchRequest(trailing, out, error));
  // Unknown payload kind.
  std::string bad_kind;
  putU32(bad_kind, 1);
  bad_kind.push_back('\x07');
  putU32(bad_kind, 1);
  bad_kind.push_back('x');
  EXPECT_FALSE(net::decodeBatchRequest(bad_kind, out, error));
  EXPECT_FALSE(net::validateBatchRequest(bad_kind, 1024, count, error));
}

TEST(NetProtocol, GoldenFrameBytesV3) {
  Frame f;
  f.version = net::kVersion3;
  f.type = FrameType::kRequest;
  f.request_id = 0x0102030405060708ULL;
  f.trace_id = 0x1112131415161718ULL;
  f.tenant = 0x21222324u;
  f.payload_kind = net::PayloadKind::kBinaryCsr;
  f.payload = "xyz";
  std::string wire;
  net::encodeFrame(f, wire);

  const std::string expected{
      'P',    'R',    'I',    'O',          // magic
      '\x03',                               // version
      '\x01',                               // type = request
      '\x00',                               // status
      '\x00',                               // flags
      '\x08', '\x07', '\x06', '\x05',       // request_id LE
      '\x04', '\x03', '\x02', '\x01',
      '\x18', '\x17', '\x16', '\x15',       // trace_id LE
      '\x14', '\x13', '\x12', '\x11',
      '\x24', '\x23', '\x22', '\x21',       // tenant_id LE
      '\x01',                               // payload_kind = binary CSR
      '\x00', '\x00', '\x00',               // reserved
      '\x03', '\x00', '\x00', '\x00',       // payload_len LE
      'x',    'y',    'z'};
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(wire.size(), net::kHeaderSizeV3 + 3);

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.version, net::kVersion3);
  EXPECT_EQ(out.payload_kind, net::PayloadKind::kBinaryCsr);
  EXPECT_EQ(out.payload, "xyz");

  // Typed payloads and batch frames cannot ride pre-v3 frames.
  Frame pre;
  pre.payload_kind = net::PayloadKind::kBinaryCsr;
  std::string sink;
  EXPECT_THROW(net::encodeFrame(pre, sink), util::Error);
  Frame batch;
  batch.type = FrameType::kBatchRequest;
  EXPECT_THROW(net::encodeFrame(batch, sink), util::Error);
}

TEST(NetProtocol, DecoderAppliesBatchCapByFrameType) {
  const std::string payload(500, 'p');
  Frame single;
  single.version = net::kVersion3;
  single.type = FrameType::kRequest;
  single.payload = payload;
  Frame batch;
  batch.version = net::kVersion3;
  batch.type = FrameType::kBatchRequest;
  batch.payload = payload;

  std::string single_wire;
  net::encodeFrame(single, single_wire);
  std::string batch_wire;
  net::encodeFrame(batch, batch_wire);

  {
    FrameDecoder dec(/*max_payload=*/100, /*max_batch_payload=*/1000);
    dec.feed(single_wire.data(), single_wire.size());
    Frame out;
    EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
    EXPECT_TRUE(dec.failed());
  }
  {
    FrameDecoder dec(/*max_payload=*/100, /*max_batch_payload=*/1000);
    dec.feed(batch_wire.data(), batch_wire.size());
    Frame out;
    ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.type, FrameType::kBatchRequest);
  }
  {
    FrameDecoder dec(/*max_payload=*/100, /*max_batch_payload=*/200);
    dec.feed(batch_wire.data(), batch_wire.size());
    Frame out;
    EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
  }
}

// ----------------------------------------------------- service parity

TEST(BinaryService, PaperWorkloadsMatchTextPathByteForByte) {
  service::ServiceConfig config;
  config.num_threads = 2;
  service::PrioService service(config);

  const std::vector<std::pair<const char*, dag::Digraph>> workloads_list = [] {
    std::vector<std::pair<const char*, dag::Digraph>> w;
    w.emplace_back("airsn", workloads::makeAirsn({}));
    w.emplace_back("inspiral", workloads::makeInspiral({}));
    w.emplace_back("montage", workloads::makeMontage({}));
    w.emplace_back("sdss", workloads::makeSdss({}));
    return w;
  }();

  for (const auto& [name, g] : workloads_list) {
    service::Request text;
    text.payload = service::Payload::text(dagTextOf(g));
    const service::Reply a = service.submit(std::move(text)).get();
    ASSERT_EQ(a.status, service::RequestStatus::kOk) << name;

    service::Request binary;
    binary.payload = service::Payload::binary(dag::encodeBinaryDag(g));
    const service::Reply b = service.submit(std::move(binary)).get();
    ASSERT_EQ(b.status, service::RequestStatus::kOk) << name;
    EXPECT_EQ(b.output_kind, service::PayloadKind::kBinaryCsr);

    // Identical priorities through both encodings, and the BPRI table
    // is exactly the canonical encoding of them.
    EXPECT_EQ(a.result->priority, b.result->priority) << name;
    EXPECT_EQ(b.output, dag::encodeBinaryPriorities(a.result->priority))
        << name;
    EXPECT_EQ(dag::decodeBinaryPriorities(b.output), a.result->priority)
        << name;
  }
}

TEST(BinaryService, RepeatedPayloadIsAnsweredByThePayloadCache) {
  service::ServiceConfig config;
  config.num_threads = 1;
  config.cache_capacity = 64;
  service::PrioService service(config);

  stats::Rng rng(3);
  service::Request req;
  req.payload = service::Payload::binary(
      dag::encodeBinaryDag(workloads::randomDag(40, 0.1, rng)));
  const service::Reply first = service.submit(req).get();
  ASSERT_EQ(first.status, service::RequestStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(service.metrics().text_cache_hits.get(), 0u);
  EXPECT_EQ(service.metrics().binary_requests.get(), 1u);

  const service::Reply second = service.submit(req).get();
  ASSERT_EQ(second.status, service::RequestStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(service.metrics().text_cache_hits.get(), 1u);
  EXPECT_EQ(service.metrics().parse_cache_hits.get(), 0u);
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(second.output_kind, service::PayloadKind::kBinaryCsr);
}

// -------------------------------------------------------- end to end

TEST(BinaryWire, HostilePayloadsGetFailedRepliesNotCrashes) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  stats::Rng rng(17);
  const std::string good =
      dag::encodeBinaryDag(workloads::randomDag(20, 0.2, rng));
  const std::vector<std::string> hostile{
      "",
      "BDAG",
      std::string(40, '\xff'),
      good.substr(0, good.size() / 2),
      craftBdag(2, 2, {0, 1, 2}, {1, 0}, {0, 1, 2}, "ab"),  // cycle
      craftBdag(2, 2, {0, 2, 2}, {1, 1}, {0, 1, 2}, "ab"),  // dup edge
  };
  for (const std::string& payload : hostile) {
    client.sendPayload(net::PayloadKind::kBinaryCsr, payload);
    const net::Response r = client.receive();
    EXPECT_EQ(r.status, Status::kFailed);
    EXPECT_FALSE(r.result().usable);
    EXPECT_FALSE(r.payload.empty());  // carries the decode error
  }

  // The connection survived every rejection.
  client.sendPayload(net::PayloadKind::kBinaryCsr, good);
  const net::Response ok = client.receive();
  ASSERT_EQ(ok.status, Status::kOk);
  EXPECT_EQ(ok.kind, net::PayloadKind::kBinaryCsr);
  EXPECT_EQ(dag::decodeBinaryPriorities(ok.payload).size(), 20u);
  EXPECT_EQ(fixture.server().stats().protocol_errors, 0u);
}

TEST(BinaryWire, BatchOneBadItemDegradesOnlyItself) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  stats::Rng rng(23);
  const dag::Digraph g = workloads::randomDag(15, 0.2, rng);
  const std::vector<net::BatchItem> items{
      {net::PayloadKind::kDagmanText, kFig3},
      {net::PayloadKind::kBinaryCsr, "not a bdag"},
      {net::PayloadKind::kBinaryCsr, dag::encodeBinaryDag(g)},
  };
  client.submitBatch(items);
  const net::Response r = client.receive();
  ASSERT_EQ(r.status, Status::kOk);  // the batch itself succeeded
  ASSERT_TRUE(r.batch);
  const net::Response::Result result = r.result();
  ASSERT_TRUE(result.usable);
  ASSERT_EQ(result.items.size(), 3u);

  EXPECT_EQ(result.items[0].status, Status::kOk);
  EXPECT_EQ(result.items[0].kind, net::PayloadKind::kDagmanText);
  EXPECT_NE(result.items[0].payload.find("jobpriority"), std::string::npos);

  EXPECT_EQ(result.items[1].status, Status::kFailed);
  EXPECT_FALSE(result.items[1].usable());
  EXPECT_FALSE(result.items[1].payload.empty());

  EXPECT_EQ(result.items[2].status, Status::kOk);
  EXPECT_EQ(result.items[2].kind, net::PayloadKind::kBinaryCsr);
  EXPECT_EQ(dag::decodeBinaryPriorities(result.items[2].payload).size(),
            15u);
}

TEST(BinaryWire, MaxBatchPayloadCapsTheEnvelope) {
  net::ServerConfig config;
  config.max_batch_payload = 256;
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  // An envelope over the configured cap is a protocol error: the reply
  // says so and the server closes the connection.
  const std::vector<net::BatchItem> big{
      {net::PayloadKind::kDagmanText, std::string(512, 'x')}};
  client.submitBatch(big);
  const net::Response r = client.receive();
  EXPECT_EQ(r.status, Status::kProtocolError);
  EXPECT_EQ(fixture.server().stats().protocol_errors, 1u);
}

TEST(BinaryWire, MalformedEnvelopeFailsWithoutClosingTheConnection) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  // A syntactically valid frame whose batch payload is garbage: the
  // server answers kFailed (not kProtocolError) and keeps the
  // connection — the framing was fine, only the envelope was not.
  client.sendFrame(FrameType::kBatchRequest, net::PayloadKind::kDagmanText,
                   "this is not an envelope");
  const net::Response r = client.receive();
  EXPECT_EQ(r.status, Status::kFailed);
  EXPECT_FALSE(r.batch);

  client.send(kFig3);
  EXPECT_EQ(client.receive().status, Status::kOk);
  EXPECT_EQ(fixture.server().stats().protocol_errors, 0u);
}

// One raw socket, all three protocol versions pipelined: the server
// must answer each request in the version it arrived in, in order.
TEST(BinaryWire, MixedVersionClientsInterleaveOnOneSocket) {
  ServerFixture fixture;

  stats::Rng rng(31);
  const dag::Digraph g = workloads::randomDag(12, 0.25, rng);

  std::string wire;
  Frame v1;
  v1.version = net::kVersionLegacy;
  v1.request_id = 1;
  v1.payload = kFig3;
  net::encodeFrame(v1, wire);
  Frame v2;
  v2.version = net::kVersion;
  v2.request_id = 2;
  v2.tenant = 5;
  v2.payload = kFig3;
  net::encodeFrame(v2, wire);
  Frame v3;
  v3.version = net::kVersion3;
  v3.request_id = 3;
  v3.payload_kind = net::PayloadKind::kBinaryCsr;
  v3.payload = dag::encodeBinaryDag(g);
  net::encodeFrame(v3, wire);
  Frame batch;
  batch.version = net::kVersion3;
  batch.type = FrameType::kBatchRequest;
  batch.request_id = 4;
  batch.payload = net::encodeBatchRequest(
      {{net::PayloadKind::kDagmanText, kFig3},
       {net::PayloadKind::kBinaryCsr, dag::encodeBinaryDag(g)}});
  net::encodeFrame(batch, wire);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  util::UniqueFd sock(fd);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(sock.get(),
                      reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(util::writeAll(sock.get(), wire.data(), wire.size()));

  FrameDecoder dec;
  std::vector<Frame> replies;
  char buf[4096];
  while (replies.size() < 4) {
    const long r = util::readSome(sock.get(), buf, sizeof(buf));
    ASSERT_GT(r, 0) << "connection closed after " << replies.size()
                    << " replies";
    dec.feed(buf, static_cast<std::size_t>(r));
    Frame out;
    while (dec.next(out) == FrameDecoder::Result::kFrame) {
      replies.push_back(out);
    }
    ASSERT_FALSE(dec.failed()) << dec.error();
  }

  // Replies leave in completion order (the fixture runs one worker per
  // hardware thread), so match them to requests by id, the documented
  // contract. Each echoes its request version.
  ASSERT_EQ(replies.size(), 4u);
  std::sort(replies.begin(), replies.end(),
            [](const Frame& a, const Frame& b) {
              return a.request_id < b.request_id;
            });
  EXPECT_EQ(replies[0].request_id, 1u);
  EXPECT_EQ(replies[0].version, net::kVersionLegacy);
  EXPECT_EQ(replies[0].status, Status::kOk);
  EXPECT_EQ(replies[0].tenant, 0u);

  EXPECT_EQ(replies[1].request_id, 2u);
  EXPECT_EQ(replies[1].version, net::kVersion);
  EXPECT_EQ(replies[1].status, Status::kOk);
  EXPECT_EQ(replies[1].tenant, 5u);

  EXPECT_EQ(replies[2].request_id, 3u);
  EXPECT_EQ(replies[2].version, net::kVersion3);
  EXPECT_EQ(replies[2].status, Status::kOk);
  EXPECT_EQ(replies[2].payload_kind, net::PayloadKind::kBinaryCsr);
  EXPECT_EQ(dag::decodeBinaryPriorities(replies[2].payload).size(),
            g.numNodes());

  EXPECT_EQ(replies[3].request_id, 4u);
  EXPECT_EQ(replies[3].version, net::kVersion3);
  EXPECT_EQ(replies[3].type, FrameType::kBatchResponse);
  std::vector<net::BatchItemReply> items;
  std::string error;
  ASSERT_TRUE(net::decodeBatchResponse(replies[3].payload, items, error))
      << error;
  ASSERT_EQ(items.size(), 2u);
  EXPECT_TRUE(items[0].usable());
  EXPECT_TRUE(items[1].usable());

  // The v1/v2 text replies are what the text path always produced.
  EXPECT_EQ(replies[0].payload, replies[1].payload);
  EXPECT_EQ(replies[0].payload, items[0].payload);
}

}  // namespace
