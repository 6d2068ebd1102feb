// Tests for the TCP serving layer (src/net/): wire protocol golden
// bytes and decoder error handling, the EINTR-retrying socket helpers
// (driven deterministically through the net.read/net.write fault sites),
// and loopback client/server end-to-end behaviour — parity with the
// offline pipeline, pipelining, backpressure (reject and shed),
// protocol-error replies, the Prometheus endpoint, idle timeout,
// graceful drain, trace-id propagation, and the sharded reactors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "tenant/registry.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/socket.h"
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

/// What the offline tool writes for this text — the byte-parity oracle
/// for the wire path.
std::string offlineInstrument(const std::string& dag_text) {
  std::istringstream in(dag_text);
  auto file = dagman::DagmanFile::parse(in);
  (void)dagman::prioritizeDagmanFile(file);
  std::ostringstream out;
  file.write(out);
  return std::move(out).str();
}

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

/// Runs a Server on an ephemeral loopback port in a background thread;
/// stops and joins on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(net::ServerConfig config = {}) {
    config.port = 0;
    server_ = std::make_unique<net::Server>(config);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~ServerFixture() { stop(); }

  void stop() {
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

/// Disarms the global fault injector when the test scope exits.
struct FaultGuard {
  ~FaultGuard() { util::fault::Injector::instance().disarm(); }
};

// ---------------------------------------------------------------- protocol

TEST(NetProtocol, GoldenFrameBytes) {
  Frame f;
  f.type = FrameType::kRequest;
  f.status = Status::kOk;
  f.request_id = 0x0102030405060708ULL;
  f.trace_id = 0x1112131415161718ULL;
  f.tenant = 0x21222324u;
  f.payload = "abc";
  std::string wire;
  net::encodeFrame(f, wire);

  const std::string expected{
      'P',    'R',    'I',    'O',          // magic, little-endian
      '\x02',                               // version
      '\x01',                               // type = request
      '\x00',                               // status
      '\x00',                               // flags
      '\x08', '\x07', '\x06', '\x05',       // request_id LE
      '\x04', '\x03', '\x02', '\x01',
      '\x18', '\x17', '\x16', '\x15',       // trace_id LE
      '\x14', '\x13', '\x12', '\x11',
      '\x24', '\x23', '\x22', '\x21',       // tenant_id LE
      '\x03', '\x00', '\x00', '\x00',       // payload_len LE
      'a',    'b',    'c'};
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(wire.size(), net::kHeaderSize + 3);
}

// The PR 1-5 layout, byte for byte: a v1 encode must still produce the
// 28-byte header an old decoder expects, and decoding it must route to
// the default tenant. This is the compatibility contract that lets old
// clients talk to new servers (and vice versa for error replies).
TEST(NetProtocol, GoldenFrameBytesLegacyV1) {
  Frame f;
  f.version = net::kVersionLegacy;
  f.type = FrameType::kRequest;
  f.status = Status::kOk;
  f.request_id = 0x0102030405060708ULL;
  f.trace_id = 0x1112131415161718ULL;
  f.payload = "abc";
  std::string wire;
  net::encodeFrame(f, wire);

  const std::string expected{
      'P',    'R',    'I',    'O',          // magic, little-endian
      '\x01',                               // version
      '\x01',                               // type = request
      '\x00',                               // status
      '\x00',                               // flags
      '\x08', '\x07', '\x06', '\x05',       // request_id LE
      '\x04', '\x03', '\x02', '\x01',
      '\x18', '\x17', '\x16', '\x15',       // trace_id LE
      '\x14', '\x13', '\x12', '\x11',
      '\x03', '\x00', '\x00', '\x00',       // payload_len LE (no tenant)
      'a',    'b',    'c'};
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(wire.size(), net::kHeaderSizeV1 + 3);

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.version, net::kVersionLegacy);
  EXPECT_EQ(out.tenant, 0u);  // v1 frames map to the default tenant
  EXPECT_EQ(out.request_id, f.request_id);
  EXPECT_EQ(out.payload, "abc");

  // A nonzero tenant cannot ride a v1 frame: that would silently lose
  // the billing attribution.
  Frame bad;
  bad.version = net::kVersionLegacy;
  bad.tenant = 7;
  std::string sink;
  EXPECT_THROW(net::encodeFrame(bad, sink), util::Error);
}

TEST(NetProtocol, DecoderHandlesInterleavedVersions) {
  Frame v2;
  v2.type = FrameType::kRequest;
  v2.request_id = 1;
  v2.tenant = 42;
  v2.payload = "new";
  Frame v1;
  v1.version = net::kVersionLegacy;
  v1.type = FrameType::kRequest;
  v1.request_id = 2;
  v1.payload = "old";
  std::string wire;
  net::encodeFrame(v2, wire);
  net::encodeFrame(v1, wire);
  net::encodeFrame(v2, wire);

  FrameDecoder dec;
  // Trickle one byte at a time so every header-size decision is hit.
  Frame out;
  std::vector<Frame> got;
  for (char c : wire) {
    dec.feed(&c, 1);
    if (dec.next(out) == FrameDecoder::Result::kFrame) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].version, net::kVersion);
  EXPECT_EQ(got[0].tenant, 42u);
  EXPECT_EQ(got[0].payload, "new");
  EXPECT_EQ(got[1].version, net::kVersionLegacy);
  EXPECT_EQ(got[1].tenant, 0u);
  EXPECT_EQ(got[1].payload, "old");
  EXPECT_EQ(got[2].tenant, 42u);
}

TEST(NetProtocol, RoundTripAllFields) {
  Frame f;
  f.type = FrameType::kResponse;
  f.status = Status::kDegraded;
  f.request_id = 77;
  f.trace_id = 99;
  f.payload = std::string(100000, 'x');
  std::string wire;
  net::encodeFrame(f, wire);

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.type, FrameType::kResponse);
  EXPECT_EQ(out.status, Status::kDegraded);
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_EQ(out.trace_id, 99u);
  EXPECT_EQ(out.payload, f.payload);
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(NetProtocol, TruncatedFrameNeedsMore) {
  Frame f;
  f.payload = "payload";
  std::string wire;
  net::encodeFrame(f, wire);

  // Every strict prefix is kNeedMore, then one more byte completes it.
  FrameDecoder dec;
  Frame out;
  for (std::size_t cut : {std::size_t{1}, net::kHeaderSize - 1,
                          net::kHeaderSize, wire.size() - 1}) {
    FrameDecoder fresh;
    fresh.feed(wire.data(), cut);
    EXPECT_EQ(fresh.next(out), FrameDecoder::Result::kNeedMore) << cut;
  }
  dec.feed(wire.data(), wire.size() - 1);
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore);
  dec.feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.payload, "payload");
}

TEST(NetProtocol, GarbageMagicIsError) {
  FrameDecoder dec;
  const std::string junk(net::kHeaderSize, '\xee');
  dec.feed(junk.data(), junk.size());
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("magic"), std::string::npos);
  // The error latches: more bytes don't resurrect the stream.
  dec.feed(junk.data(), junk.size());
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
}

TEST(NetProtocol, BadVersionIsError) {
  Frame f;
  std::string wire;
  net::encodeFrame(f, wire);
  wire[4] = '\x07';
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
  EXPECT_NE(dec.error().find("version"), std::string::npos);
}

TEST(NetProtocol, ReservedFlagBitsAreError) {
  // Bit 0 is kFlagDeadline (legal on v2); every other bit is reserved.
  Frame f;
  std::string wire;
  net::encodeFrame(f, wire);
  wire[7] = '\x02';
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
  EXPECT_NE(dec.error().find("flags"), std::string::npos);
}

TEST(NetProtocol, DeadlineFlagOnV1FrameIsError) {
  // v1 predates every flag; an old peer setting even the "known" bit is
  // corruption, not a deadline.
  Frame f;
  f.version = net::kVersionLegacy;
  std::string wire;
  net::encodeFrame(f, wire);
  wire[7] = '\x01';
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
  EXPECT_NE(dec.error().find("flags"), std::string::npos);
}

TEST(NetProtocol, GoldenFrameBytesWithDeadline) {
  // The deadline field sits between the 32-byte v2 header and the
  // payload; payload_len still counts only the payload, so a deadline-
  // blind observer that honors flags it doesn't know would misparse —
  // which is exactly why unknown flag bits are a protocol error.
  Frame f;
  f.type = FrameType::kRequest;
  f.status = Status::kOk;
  f.request_id = 0x0102030405060708ULL;
  f.trace_id = 0x1112131415161718ULL;
  f.tenant = 0x21222324u;
  f.deadline_ms = 0x000004D2u;  // 1234 ms
  f.payload = "abc";
  std::string wire;
  net::encodeFrame(f, wire);

  const std::string expected{
      'P',    'R',    'I',    'O',          // magic, little-endian
      '\x02',                               // version
      '\x01',                               // type = request
      '\x00',                               // status
      '\x01',                               // flags = kFlagDeadline
      '\x08', '\x07', '\x06', '\x05',       // request_id LE
      '\x04', '\x03', '\x02', '\x01',
      '\x18', '\x17', '\x16', '\x15',       // trace_id LE
      '\x14', '\x13', '\x12', '\x11',
      '\x24', '\x23', '\x22', '\x21',       // tenant_id LE
      '\x03', '\x00', '\x00', '\x00',       // payload_len LE (payload only)
      '\xd2', '\x04', '\x00', '\x00',       // deadline_ms = 1234 LE
      'a',    'b',    'c'};
  EXPECT_EQ(wire, expected);

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.deadline_ms, 1234u);
  EXPECT_EQ(out.payload, "abc");
}

TEST(NetProtocol, ExpiredStatusRoundTrips) {
  Frame f;
  f.type = FrameType::kResponse;
  f.status = Status::kExpired;
  f.payload = "deadline expired";
  std::string wire;
  net::encodeFrame(f, wire);
  EXPECT_EQ(wire[6], '\x06');  // kExpired on the wire

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.status, Status::kExpired);
  EXPECT_STREQ(net::statusName(out.status), "expired");

  // One past kExpired is no longer a valid status byte.
  wire[6] = '\x07';
  FrameDecoder strict;
  strict.feed(wire.data(), wire.size());
  EXPECT_EQ(strict.next(out), FrameDecoder::Result::kError);
}

// Property test: a golden stream of interleaved v1/v2/deadline frames
// must decode identically no matter where the transport splits it. This
// is the contract the chaos proxy attacks at runtime (max_chunk=1);
// here every single two-part split AND the all-singleton split are
// checked exhaustively.
TEST(NetProtocol, DecoderInvariantUnderEverySplitOffset) {
  std::vector<Frame> frames;
  {
    Frame a;  // v2, no deadline, empty payload
    a.type = FrameType::kRequest;
    a.request_id = 1;
    frames.push_back(a);
    Frame b;  // v1 legacy
    b.version = net::kVersionLegacy;
    b.type = FrameType::kResponse;
    b.status = Status::kDegraded;
    b.request_id = 2;
    b.payload = "legacy";
    frames.push_back(b);
    Frame c;  // v2 with deadline and tenant
    c.type = FrameType::kRequest;
    c.request_id = 3;
    c.tenant = 9;
    c.deadline_ms = 250;
    c.payload = "Job a a.sub\n";
    frames.push_back(c);
    Frame d;  // v2 expired response with deadline echoed
    d.type = FrameType::kResponse;
    d.status = Status::kExpired;
    d.request_id = 4;
    d.deadline_ms = 1;
    frames.push_back(d);
    Frame e;  // v1 after a deadline frame: header size flips back
    e.version = net::kVersionLegacy;
    e.type = FrameType::kRequest;
    e.request_id = 5;
    e.payload = std::string(257, 'x');
    frames.push_back(e);
  }
  std::string wire;
  for (const Frame& f : frames) net::encodeFrame(f, wire);

  // Every two-part split of the stream, draining eagerly after each
  // feed so the kNeedMore resume paths are exercised at every offset.
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    FrameDecoder dec;
    Frame out;
    std::size_t idx = 0;
    const auto drain = [&]() {
      while (dec.next(out) == FrameDecoder::Result::kFrame) {
        ASSERT_LT(idx, frames.size()) << "split at " << cut;
        const Frame& want = frames[idx];
        EXPECT_EQ(out.version, want.version) << cut << "/" << idx;
        EXPECT_EQ(out.type, want.type) << cut << "/" << idx;
        EXPECT_EQ(out.status, want.status) << cut << "/" << idx;
        EXPECT_EQ(out.request_id, want.request_id) << cut << "/" << idx;
        EXPECT_EQ(out.tenant, want.tenant) << cut << "/" << idx;
        EXPECT_EQ(out.deadline_ms, want.deadline_ms) << cut << "/" << idx;
        EXPECT_EQ(out.payload, want.payload) << cut << "/" << idx;
        ++idx;
      }
      ASSERT_FALSE(dec.failed()) << "split at " << cut << ": " << dec.error();
    };
    dec.feed(wire.data(), cut);
    drain();
    dec.feed(wire.data() + cut, wire.size() - cut);
    drain();
    EXPECT_EQ(idx, frames.size()) << "split at " << cut;
    EXPECT_EQ(dec.buffered(), 0u) << "split at " << cut;
  }

  // The adversarial all-singleton split: one byte per feed.
  FrameDecoder trickle;
  Frame out;
  std::size_t decoded = 0;
  for (char ch : wire) {
    trickle.feed(&ch, 1);
    while (trickle.next(out) == FrameDecoder::Result::kFrame) ++decoded;
  }
  EXPECT_FALSE(trickle.failed()) << trickle.error();
  EXPECT_EQ(decoded, frames.size());
  EXPECT_EQ(trickle.buffered(), 0u);
}

TEST(NetProtocol, OversizedPayloadFailsBeforePayloadArrives) {
  // Only the header is fed: the decoder must reject the length prefix
  // without waiting for (or buffering) the announced payload.
  Frame f;
  f.payload = std::string(2048, 'x');
  std::string wire;
  net::encodeFrame(f, wire);
  FrameDecoder dec(/*max_payload=*/1024);
  dec.feed(wire.data(), net::kHeaderSize);
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kError);
  EXPECT_NE(dec.error().find("cap"), std::string::npos);
}

TEST(NetProtocol, EncodeRefusesOversizedPayload) {
  Frame f;
  f.payload = std::string(2048, 'x');
  std::string wire;
  EXPECT_THROW(net::encodeFrame(f, wire, /*max_payload=*/1024), util::Error);
}

TEST(NetProtocol, ManyFramesOneFeed) {
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    Frame f;
    f.request_id = static_cast<std::uint64_t>(i);
    f.payload = std::string(static_cast<std::size_t>(i) * 7, 'p');
    net::encodeFrame(f, wire);
  }
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame) << i;
    EXPECT_EQ(out.request_id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(out.payload.size(), static_cast<std::size_t>(i) * 7);
  }
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore);
}

// ------------------------------------------------------------------ socket

TEST(NetSocket, UniqueFdClosesOnDestruction) {
  int raw[2];
  ASSERT_EQ(::pipe(raw), 0);
  {
    util::UniqueFd r(raw[0]);
    util::UniqueFd w(raw[1]);
    EXPECT_TRUE(r.valid());
    // Move transfers ownership; the source must not double-close.
    util::UniqueFd r2(std::move(r));
    EXPECT_FALSE(r.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(r2.valid());
  }
  // Both ends closed exactly once: closing again must fail with EBADF.
  EXPECT_EQ(::close(raw[0]), -1);
  EXPECT_EQ(::close(raw[1]), -1);
}

TEST(NetSocket, ReadRetriesInjectedEintr) {
  FaultGuard guard;
  int raw[2];
  ASSERT_EQ(::pipe(raw), 0);
  util::UniqueFd r(raw[0]);
  util::UniqueFd w(raw[1]);
  ASSERT_TRUE(util::writeAll(w.get(), "hello", 5));

  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/1);
  // every_nth=2: the site alternates pass/fire, so one of the two reads
  // below sees an injected EINTR and must retry. (every_nth=1 would model
  // a signal storm that never ends — the retry loop would rightly spin
  // forever.)
  injector.plan("net.read",
                {util::fault::Kind::kThrowTransient, /*every_nth=*/2});

  char buf[16];
  ASSERT_EQ(util::readSome(r.get(), buf, 3), 3);
  EXPECT_EQ(std::string(buf, 3), "hel");
  ASSERT_EQ(util::readSome(r.get(), buf, 2), 2);
  EXPECT_EQ(std::string(buf, 2), "lo");
  EXPECT_GE(injector.fireCount("net.read"), 1u);
  EXPECT_GE(injector.passCount("net.read"), 3u);  // retried at least once
}

TEST(NetSocket, WriteRetriesInjectedEintr) {
  FaultGuard guard;
  int raw[2];
  ASSERT_EQ(::pipe(raw), 0);
  util::UniqueFd r(raw[0]);
  util::UniqueFd w(raw[1]);

  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/1);
  injector.plan("net.write",
                {util::fault::Kind::kThrowTransient, /*every_nth=*/2});

  ASSERT_TRUE(util::writeAll(w.get(), "wor", 3));
  ASSERT_TRUE(util::writeAll(w.get(), "ld", 2));
  EXPECT_GE(injector.fireCount("net.write"), 1u);
  char buf[16];
  injector.disarm();
  EXPECT_EQ(util::readSome(r.get(), buf, sizeof(buf)), 5);
  EXPECT_EQ(std::string(buf, 5), "world");
}

// ----------------------------------------------------------------- service

TEST(NetService, TextPayloadMatchesOfflinePipeline) {
  service::ServiceConfig config;
  config.num_threads = 2;
  service::PrioService service(config);
  auto reply = service.submit(service::Request{service::Payload::text(kFig3)}).get();
  ASSERT_EQ(reply.status, service::RequestStatus::kOk);
  EXPECT_EQ(reply.output, offlineInstrument(kFig3));
}

TEST(NetService, TextPayloadAdoptsWireTraceId) {
  obs::Tracer tracer;
  service::ServiceConfig config;
  config.num_threads = 1;
  config.tracer = &tracer;
  service::PrioService service(config);
  auto reply =
      service.submit(service::Request{service::Payload::text(kFig3), /*trace_id=*/424242})
          .get();
  ASSERT_EQ(reply.status, service::RequestStatus::kOk);
  EXPECT_EQ(reply.trace_id, 424242u);
}

TEST(NetService, MalformedTextFailsAndCountsRequestsFailed) {
  service::ServiceConfig config;
  config.num_threads = 1;
  service::PrioService service(config);
  auto reply =
      service.submit(service::Request{service::Payload::text("Job only_a_name\n")})
          .get();
  EXPECT_EQ(reply.status, service::RequestStatus::kFailed);
  EXPECT_FALSE(reply.error.empty());
  EXPECT_EQ(service.metrics().requests_failed.get(), 1u);
}

// --------------------------------------------------------------- loopback

TEST(NetServer, LoopbackByteParityWithOfflineTool) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  workloads::AirsnParams small;
  small.width = 20;
  const std::string airsn = dagTextOf(workloads::makeAirsn(small));
  for (const std::string& text : {std::string(kFig3), airsn}) {
    const net::Response r = client.call(text);
    ASSERT_EQ(r.status, Status::kOk) << r.payload;
    EXPECT_EQ(r.payload, offlineInstrument(text));
  }
  const net::Server::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.frames_received, 2u);
  EXPECT_EQ(stats.responses_sent, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetServer, PipelinedRequestsAllAnswered) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  const std::string expected = offlineInstrument(kFig3);
  constexpr int kRequests = 32;
  std::vector<std::uint64_t> ids;
  ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) ids.push_back(client.send(kFig3));

  std::vector<bool> seen(static_cast<std::size_t>(kRequests), false);
  for (int i = 0; i < kRequests; ++i) {
    const net::Response r = client.receive();
    ASSERT_EQ(r.status, Status::kOk) << r.payload;
    EXPECT_EQ(r.payload, expected);
    bool matched = false;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] == r.request_id && !seen[k]) {
        seen[k] = matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "duplicate or unknown id " << r.request_id;
  }
}

TEST(NetServer, MalformedDagAnswersFailedWithoutClosing) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  const net::Response bad = client.call("PARENT ghost CHILD nobody\n");
  EXPECT_EQ(bad.status, Status::kFailed);
  EXPECT_FALSE(bad.payload.empty());
  EXPECT_GE(fixture.server().service().metrics().requests_failed.get(), 1u);

  // The connection survives a failed request.
  const net::Response ok = client.call(kFig3);
  EXPECT_EQ(ok.status, Status::kOk);
}

TEST(NetServer, GarbageBytesGetProtocolErrorThenClose) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  // A frame with corrupted magic, written through a raw socket (the
  // Client can only emit well-formed frames). First byte must not be
  // 'G', which would select HTTP mode.
  Frame f;
  f.payload = "x";
  std::string wire;
  net::encodeFrame(f, wire);
  wire[0] = 'Z';
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

  // The server answers one kProtocolError response frame, then closes.
  std::string got;
  char buf[4096];
  for (;;) {
    const long r = util::readSome(sock.get(), buf, sizeof(buf));
    if (r <= 0) break;
    got.append(buf, static_cast<std::size_t>(r));
  }
  FrameDecoder dec;
  dec.feed(got.data(), got.size());
  Frame resp;
  ASSERT_EQ(dec.next(resp), FrameDecoder::Result::kFrame);
  EXPECT_EQ(resp.type, FrameType::kResponse);
  EXPECT_EQ(resp.status, Status::kProtocolError);
  EXPECT_EQ(fixture.server().stats().protocol_errors, 1u);

  // Other connections are unaffected.
  EXPECT_EQ(client.call(kFig3).status, Status::kOk);
}

TEST(NetServer, OversizedFrameIsProtocolError) {
  net::ServerConfig config;
  config.max_payload = 1024;
  ServerFixture fixture(config);
  net::Client client;  // client-side cap stays at the default
  client.connect("127.0.0.1", fixture.port());
  client.send(std::string(2048, 'x'));
  const net::Response r = client.receive();
  EXPECT_EQ(r.status, Status::kProtocolError);
  EXPECT_NE(r.payload.find("cap"), std::string::npos);
}

TEST(NetServer, OversizedResponseAnswersFailedWithoutCrashing) {
  // The instrumented output always outgrows its input, so a request
  // under the cap can produce a response over it; the server must answer
  // kFailed, not throw out of the event loop.
  const std::string expected = offlineInstrument(kFig3);
  ASSERT_GT(expected.size(), std::strlen(kFig3));
  net::ServerConfig config;
  config.max_payload = static_cast<std::uint32_t>(expected.size() - 1);
  ASSERT_GT(config.max_payload, std::strlen(kFig3));
  ServerFixture fixture(config);
  net::Client client;  // client-side cap stays at the default
  client.connect("127.0.0.1", fixture.port());

  const net::Response r = client.call(kFig3);
  EXPECT_EQ(r.status, Status::kFailed);
  EXPECT_NE(r.payload.find("frame cap"), std::string::npos) << r.payload;

  // The loop survived and the connection is still serviced.
  const net::Response again = client.call(kFig3);
  EXPECT_EQ(again.status, Status::kFailed);
  EXPECT_EQ(fixture.server().stats().responses_oversized, 2u);
  EXPECT_EQ(fixture.server().stats().responses_sent, 2u);
}

TEST(NetServer, RejectBackpressureAnswersRejected) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/7);
  // Hold the lone worker inside each request long enough for the gate
  // to see concurrent load.
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(100000)});

  net::ServerConfig config;
  config.service.num_threads = 1;
  config.service.backpressure = service::BackpressurePolicy::kReject;
  config.max_in_flight = 1;
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) client.send(kFig3);
  int ok = 0, rejected = 0;
  for (int i = 0; i < kRequests; ++i) {
    const net::Response r = client.receive();
    if (r.status == Status::kOk) ++ok;
    if (r.status == Status::kRejected) ++rejected;
  }
  // The first request enters the service; with the gate at 1 and the
  // worker delayed, the pipelined rest are rejected at admission.
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(ok + rejected, kRequests);
  EXPECT_EQ(fixture.server().stats().gate_rejected,
            static_cast<std::uint64_t>(rejected));
  // Admission rejections are responses too.
  EXPECT_EQ(fixture.server().stats().responses_sent,
            static_cast<std::uint64_t>(kRequests));
}

TEST(NetServer, BlockBackpressureLosesNothing) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/7);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(5000)});

  // Gate of 1 under kBlock: excess frames park and pause the socket —
  // every request still completes, in order, with no rejections.
  net::ServerConfig config;
  config.service.num_threads = 2;
  config.max_in_flight = 1;
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());

  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) client.send(kFig3);
  for (int i = 0; i < kRequests; ++i) {
    const net::Response r = client.receive();
    EXPECT_EQ(r.status, Status::kOk) << r.payload;
  }
  EXPECT_EQ(fixture.server().stats().gate_rejected, 0u);
}

TEST(NetServer, BlockGateParkedConnectionSurvivesIdleTimeout) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/11);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(150000)});

  // Connection b's frame parks behind a full kBlock gate with reads
  // paused, so its last_activity cannot refresh. The idle reaper must
  // not mistake that wait for idleness and drop the parked request.
  net::ServerConfig config;
  config.service.num_threads = 1;
  config.max_in_flight = 1;
  config.idle_timeout_s = 0.05;
  ServerFixture fixture(config);
  net::Client a;
  a.connect("127.0.0.1", fixture.port());
  net::Client b;
  b.connect("127.0.0.1", fixture.port());

  a.send(kFig3);
  // Let a's frame claim the gate before b's arrives and parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  b.send(kFig3);
  EXPECT_EQ(a.receive().status, Status::kOk);
  EXPECT_EQ(b.receive().status, Status::kOk);
}

TEST(NetServer, QueueDeadlineShedsOverTheWire) {
  net::ServerConfig config;
  config.service.num_threads = 1;
  // Any queue wait exceeds this: every request is shed, deterministically.
  config.service.queue_deadline_s = 1e-9;
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());
  const net::Response r = client.call(kFig3);
  EXPECT_EQ(r.status, Status::kShed);
  EXPECT_EQ(fixture.server().service().metrics().requests_shed.get(), 1u);
}

TEST(NetServer, ComputeDeadlineDegradesOverTheWire) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/3);
  // Delay inside the compute phase pushes past the 1ms deadline.
  injector.plan("core.decompose",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(20000)});

  net::ServerConfig config;
  config.service.num_threads = 1;
  config.service.compute_deadline_s = 1e-3;
  config.service.cache_capacity = 0;  // no cache: the compute path runs
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());
  const net::Response r = client.call(kFig3);
  ASSERT_EQ(r.status, Status::kDegraded) << r.payload;
  // Degraded still carries a complete instrumented dag.
  EXPECT_NE(r.payload.find("jobpriority"), std::string::npos);
}

TEST(NetServer, MetricsEndpointServesPrometheusText) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());
  ASSERT_EQ(client.call(kFig3).status, Status::kOk);

  const std::string body =
      net::Client::fetchMetrics("127.0.0.1", fixture.port());
  // Service families (prio_) and server families (prio_net_) share the
  // one endpoint.
  EXPECT_NE(body.find("# TYPE prio_requests_submitted counter"),
            std::string::npos);
  EXPECT_NE(body.find("prio_requests_submitted 1"), std::string::npos);
  EXPECT_NE(body.find("# TYPE prio_net_frames_received counter"),
            std::string::npos);
  EXPECT_NE(body.find("prio_net_frames_received 1"), std::string::npos);
  EXPECT_EQ(fixture.server().stats().http_requests, 1u);

  // The framing connection still works after an HTTP connection came and
  // went on the same port.
  EXPECT_EQ(client.call(kFig3).status, Status::kOk);
}

TEST(NetServer, HttpExtraBytesGetExactlyOneResponse) {
  ServerFixture fixture;
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  util::UniqueFd sock(raw);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(sock.get(), reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Two pipelined requests: the server serves the /metrics snapshot
  // once and closes, never appending a second response to the same
  // connection however the bytes are segmented across reads.
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  const std::string two = request + request;
  ASSERT_TRUE(util::writeAll(sock.get(), two.data(), two.size()));

  std::string got;
  char buf[64 * 1024];
  for (;;) {
    const long r = util::readSome(sock.get(), buf, sizeof(buf));
    if (r <= 0) break;
    got.append(buf, static_cast<std::size_t>(r));
  }
  std::size_t statuses = 0;
  for (std::size_t p = got.find("HTTP/1.0"); p != std::string::npos;
       p = got.find("HTTP/1.0", p + 1)) {
    ++statuses;
  }
  EXPECT_EQ(statuses, 1u) << got;
  EXPECT_EQ(fixture.server().stats().http_requests, 1u);
}

TEST(NetServer, IdleConnectionsAreClosed) {
  net::ServerConfig config;
  config.idle_timeout_s = 0.05;
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());
  ASSERT_EQ(client.call(kFig3).status, Status::kOk);

  // Idle past the timeout: the server closes us; receive() sees EOF.
  for (int i = 0; i < 100 && fixture.server().stats().connections_idle_closed == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.server().stats().connections_idle_closed, 1u);
  EXPECT_THROW(client.receive(), util::Error);
}

TEST(NetServer, GracefulDrainFlushesInFlightResponses) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/5);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(50000)});

  net::ServerConfig config;
  config.service.num_threads = 1;
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());
  client.send(kFig3);
  // Stop while the request is inside the worker: drain must deliver the
  // response before run() returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fixture.stop();
  const net::Response r = client.receive();
  EXPECT_EQ(r.status, Status::kOk) << r.payload;
  EXPECT_EQ(r.payload, offlineInstrument(kFig3));
}

TEST(NetServer, TraceIdPropagatesAcrossTheWire) {
  obs::Tracer server_tracer;
  net::ServerConfig config;
  config.service.num_threads = 1;
  config.service.tracer = &server_tracer;
  ServerFixture fixture(config);

  obs::Tracer client_tracer;
  net::ClientOptions options;
  options.tracer = &client_tracer;
  net::Client client(options);
  client.connect("127.0.0.1", fixture.port());
  const net::Response r = client.call(kFig3);
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_NE(r.trace_id, 0u);

  // The server adopted the client's id: its span tree for this request
  // carries the same trace id the client's "net.request" span does.
  const auto client_spans = client_tracer.drain();
  ASSERT_EQ(client_spans.records.size(), 1u);
  EXPECT_STREQ(client_spans.records[0].name, "net.request");
  EXPECT_EQ(client_spans.records[0].trace_id, r.trace_id);

  const auto server_spans = server_tracer.drain();
  ASSERT_FALSE(server_spans.records.empty());
  for (const auto& record : server_spans.records) {
    EXPECT_EQ(record.trace_id, r.trace_id) << record.name;
  }
}

TEST(NetServer, StatsCountConnections) {
  ServerFixture fixture;
  {
    net::Client a;
    a.connect("127.0.0.1", fixture.port());
    net::Client b;
    b.connect("127.0.0.1", fixture.port());
    EXPECT_EQ(a.call(kFig3).status, Status::kOk);
    EXPECT_EQ(b.call(kFig3).status, Status::kOk);
  }
  // Close is client-initiated; give the loop a beat to observe EOF.
  for (int i = 0; i < 100 && fixture.server().stats().connections_closed < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const net::Server::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.connections_closed, 2u);
  EXPECT_EQ(stats.responses_sent, 2u);
}

// ----------------------------------------------------------------- tenants

// Version negotiation end to end: a raw v1 frame (the PR 1-5 wire
// layout) must be accepted, billed to the default tenant, and answered
// with a frame an old decoder can parse — i.e. a 28-byte v1 header.
TEST(NetServer, LegacyV1ClientIsServedWithV1Frames) {
  ServerFixture fixture;

  Frame f;
  f.version = net::kVersionLegacy;
  f.type = FrameType::kRequest;
  f.request_id = 9;
  f.payload = kFig3;
  std::string wire;
  net::encodeFrame(f, wire);
  ASSERT_EQ(wire.size(), net::kHeaderSizeV1 + std::strlen(kFig3));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  util::UniqueFd sock(fd);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(sock.get(), reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(util::writeAll(sock.get(), wire.data(), wire.size()));

  // Read the whole response, then parse it the way a v1-only decoder
  // would: version byte 1, payload_len at offset 24, 28-byte header.
  std::string got;
  char buf[64 * 1024];
  while (got.size() < net::kHeaderSizeV1 ||
         got.size() < net::kHeaderSizeV1 +
                          (static_cast<std::uint32_t>(
                               static_cast<unsigned char>(got[24])) |
                           (static_cast<std::uint32_t>(
                                static_cast<unsigned char>(got[25]))
                            << 8) |
                           (static_cast<std::uint32_t>(
                                static_cast<unsigned char>(got[26]))
                            << 16) |
                           (static_cast<std::uint32_t>(
                                static_cast<unsigned char>(got[27]))
                            << 24))) {
    const long r = util::readSome(sock.get(), buf, sizeof(buf));
    ASSERT_GT(r, 0);
    got.append(buf, static_cast<std::size_t>(r));
  }
  ASSERT_EQ(got.substr(0, 4), "PRIO");
  EXPECT_EQ(got[4], '\x01');  // the reply is a v1 frame
  EXPECT_EQ(got[5], '\x02');  // type = response
  EXPECT_EQ(got[6], '\x00');  // status = kOk

  Frame resp;
  FrameDecoder dec;
  dec.feed(got.data(), got.size());
  ASSERT_EQ(dec.next(resp), FrameDecoder::Result::kFrame);
  EXPECT_EQ(resp.version, net::kVersionLegacy);
  EXPECT_EQ(resp.request_id, 9u);
  EXPECT_EQ(resp.tenant, 0u);
  EXPECT_EQ(resp.payload, offlineInstrument(kFig3));

  // The request was billed to the default tenant.
  const auto snaps = fixture.server().tenants().snapshot();
  ASSERT_FALSE(snaps.empty());
  EXPECT_EQ(snaps[0].id, tenant::kDefaultTenantId);
  EXPECT_EQ(snaps[0].admitted, 1u);
  EXPECT_EQ(snaps[0].completed, 1u);
}

TEST(NetServer, TenantIdRoundTripsAndIsAccounted) {
  net::ServerConfig config;
  config.tenants.push_back({1, {.name = "alice", .weight = 3}});
  config.tenants.push_back({2, {.name = "bob"}});
  ServerFixture fixture(config);

  net::ClientOptions alice_options;
  alice_options.tenant = 1;
  net::Client alice(alice_options);
  alice.connect("127.0.0.1", fixture.port());
  net::ClientOptions bob_options;
  bob_options.tenant = 2;
  net::Client bob(bob_options);
  bob.connect("127.0.0.1", fixture.port());

  for (int i = 0; i < 3; ++i) {
    const net::Response r = alice.call(kFig3);
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.tenant, 1u);  // responses echo the billed tenant
    EXPECT_EQ(r.payload, offlineInstrument(kFig3));
  }
  const net::Response r = bob.call(kFig3);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.tenant, 2u);

  const auto snaps = fixture.server().tenants().snapshot();
  ASSERT_EQ(snaps.size(), 3u);  // default + alice + bob, ordered by id
  EXPECT_EQ(snaps[0].id, 0u);
  EXPECT_EQ(snaps[0].admitted, 0u);
  EXPECT_EQ(snaps[1].id, 1u);
  EXPECT_EQ(snaps[1].name, "alice");
  EXPECT_EQ(snaps[1].weight, 3u);
  EXPECT_EQ(snaps[1].admitted, 3u);
  EXPECT_EQ(snaps[1].completed, 3u);
  EXPECT_EQ(snaps[1].in_flight, 0u);
  EXPECT_EQ(snaps[2].id, 2u);
  EXPECT_EQ(snaps[2].admitted, 1u);
  // Repeated identical dags hit the result cache after the first miss.
  EXPECT_EQ(snaps[1].cache_hits + snaps[1].cache_misses, 3u);
}

TEST(NetServer, TenantQuotaRejectsOverBudget) {
  net::ServerConfig config;
  config.service.backpressure = service::BackpressurePolicy::kReject;
  // 1 token of burst, refilled at a rate far slower than the test runs.
  config.tenants.push_back({1, {.name = {}, .rate_per_s = 0.001, .burst = 1}});
  ServerFixture fixture(config);

  net::ClientOptions options;
  options.tenant = 1;
  net::Client client(options);
  client.connect("127.0.0.1", fixture.port());

  EXPECT_EQ(client.call(kFig3).status, Status::kOk);
  const net::Response rejected = client.call(kFig3);
  EXPECT_EQ(rejected.status, Status::kRejected);
  EXPECT_NE(rejected.payload.find("quota"), std::string::npos)
      << rejected.payload;
  EXPECT_FALSE(rejected.result().usable);

  // The unmetered default tenant is not affected.
  net::Client other;
  other.connect("127.0.0.1", fixture.port());
  EXPECT_EQ(other.call(kFig3).status, Status::kOk);

  EXPECT_EQ(fixture.server().stats().tenant_rejected, 1u);
  EXPECT_EQ(fixture.server().stats().gate_rejected, 0u);
  const auto snaps = fixture.server().tenants().snapshot();
  EXPECT_EQ(snaps[1].admitted, 1u);
  EXPECT_EQ(snaps[1].rejected, 1u);
}

TEST(NetServer, TenantInFlightCapRejects) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/7);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(100000)});

  net::ServerConfig config;
  config.service.num_threads = 1;
  config.service.cache_capacity = 0;
  config.service.backpressure = service::BackpressurePolicy::kReject;
  config.tenants.push_back({1, {.name = {}, .max_in_flight = 1}});
  ServerFixture fixture(config);

  net::ClientOptions options;
  options.tenant = 1;
  net::Client client(options);
  client.connect("127.0.0.1", fixture.port());

  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) client.send(kFig3);
  int ok = 0, rejected = 0;
  for (int i = 0; i < kRequests; ++i) {
    const net::Response r = client.receive();
    if (r.status == Status::kOk) ++ok;
    if (r.status == Status::kRejected) {
      ++rejected;
      EXPECT_NE(r.payload.find("in-flight"), std::string::npos) << r.payload;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(ok + rejected, kRequests);
  EXPECT_EQ(fixture.server().stats().tenant_rejected,
            static_cast<std::uint64_t>(rejected));
}

TEST(NetServer, TenantQuotaBlockParksThenServes) {
  net::ServerConfig config;
  config.service.backpressure = service::BackpressurePolicy::kBlock;
  // 1 burst token, 50/s refill: the second pipelined request must park
  // ~20ms and then complete — nothing is lost under kBlock.
  config.tenants.push_back({1, {.name = {}, .rate_per_s = 50, .burst = 1}});
  ServerFixture fixture(config);

  net::ClientOptions options;
  options.tenant = 1;
  net::Client client(options);
  client.connect("127.0.0.1", fixture.port());

  client.send(kFig3);
  client.send(kFig3);
  for (int i = 0; i < 2; ++i) {
    const net::Response r = client.receive();
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.payload, offlineInstrument(kFig3));
  }
  const auto snaps = fixture.server().tenants().snapshot();
  EXPECT_EQ(snaps[1].admitted, 2u);
  EXPECT_EQ(snaps[1].rejected, 0u);
  EXPECT_EQ(fixture.server().stats().tenant_rejected, 0u);
}

TEST(NetServer, TenantsEndpointServesJson) {
  net::ServerConfig config;
  config.tenants.push_back({7, {.name = "batch\"q", .weight = 2}});
  ServerFixture fixture(config);

  net::ClientOptions options;
  options.tenant = 7;
  net::Client client(options);
  client.connect("127.0.0.1", fixture.port());
  ASSERT_EQ(client.call(kFig3).status, Status::kOk);

  const std::string body =
      net::Client::fetchTenants("127.0.0.1", fixture.port());
  EXPECT_NE(body.find("\"tenants\":["), std::string::npos) << body;
  EXPECT_NE(body.find("\"id\":0"), std::string::npos);
  EXPECT_NE(body.find("\"id\":7"), std::string::npos);
  EXPECT_NE(body.find("\"admitted\":1"), std::string::npos);
  EXPECT_NE(body.find("\"batch\\\"q\""), std::string::npos)
      << "names must be JSON-escaped: " << body;
  EXPECT_NE(body.find("\"latency_p99_s\":"), std::string::npos);

  // The Prometheus families ride the ordinary /metrics endpoint.
  const std::string metrics =
      net::Client::fetchMetrics("127.0.0.1", fixture.port());
  EXPECT_NE(metrics.find("prio_tenant_admitted_total"), std::string::npos);
  EXPECT_NE(
      metrics.find(
          "prio_tenant_completed_total{tenant=\"7\",tenant_name=\"batch\\\"q\"} 1"),
      std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("prio_tenant_weight{tenant=\"7\""), std::string::npos);
}

// ------------------------------------------------------- multi-reactor

// DESIGN.md §14: with reactors > 1 the sharded server must be
// indistinguishable from the single loop from the outside — same bytes,
// same counters, same drain semantics — while connections actually
// spread across shard-owned event loops.

TEST(NetServer, MultiReactorByteParityAndPipelining) {
  net::ServerConfig config;
  config.reactors = 4;
  ServerFixture fixture(config);
  ASSERT_EQ(fixture.server().reactors(), 4u);

  const std::string expected = offlineInstrument(kFig3);
  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<net::Client>());
    clients.back()->connect("127.0.0.1", fixture.port());
  }
  for (auto& client : clients) {
    for (int i = 0; i < kRequests; ++i) client->send(kFig3);
  }
  for (auto& client : clients) {
    for (int i = 0; i < kRequests; ++i) {
      const net::Response r = client->receive();
      ASSERT_EQ(r.status, Status::kOk) << r.payload;
      EXPECT_EQ(r.payload, expected);
    }
  }
  const net::Server::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.frames_received,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.responses_sent,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.protocol_errors, 0u);
  // Wakeup accounting: drains never outnumber signals (each counted
  // drain consumed at least one), and both sides moved.
  EXPECT_GT(stats.wakeups_signaled, 0u);
  EXPECT_GT(stats.wakeups_drained, 0u);
  EXPECT_GE(stats.wakeups_signaled, stats.wakeups_drained);

  // Stats aggregation is served from ANY shard's HTTP connection: the
  // totals cover every shard, and the per-shard family is present.
  const std::string metrics =
      net::Client::fetchMetrics("127.0.0.1", fixture.port());
  EXPECT_NE(metrics.find("prio_net_frames_received 32"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("prio_net_shard_connections{shard=\"3\"}"),
            std::string::npos)
      << metrics;
}

TEST(NetServer, ReuseportDistributesConnectionsAcrossShards) {
  net::ServerConfig config;
  config.reactors = 4;
  ServerFixture fixture(config);

  constexpr int kConns = 64;
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int i = 0; i < kConns; ++i) {
    clients.push_back(std::make_unique<net::Client>());
    clients.back()->connect("127.0.0.1", fixture.port());
    EXPECT_EQ(clients.back()->call(kFig3).status, Status::kOk);
  }
  const net::Server::Stats stats = fixture.server().stats();
  ASSERT_EQ(stats.shard_connections.size(), 4u);
  std::uint64_t total = 0;
  int shards_used = 0;
  for (const std::uint64_t n : stats.shard_connections) {
    total += n;
    if (n > 0) ++shards_used;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kConns));
  // The kernel hashes 64 distinct loopback 4-tuples over 4 listeners;
  // every one of them landing on a single shard would be a (1/4)^63
  // accident, so >= 2 nonempty shards is a safe distribution check.
  EXPECT_GE(shards_used, 2);
}

/// Connects clients until every shard has adopted at least one: the
/// kernel places SO_REUSEPORT connections by hash, so this is how a test
/// puts a connection on each shard. After each connect it waits for the
/// shard totals to count it; after a fixed number of connects it fails
/// the test if a shard is still empty.
void connectToEveryShard(ServerFixture& fixture,
                         std::vector<std::unique_ptr<net::Client>>& clients) {
  constexpr int kMaxAttempts = 64;
  std::vector<std::uint64_t> per_shard;
  for (int i = 0; i < kMaxAttempts; ++i) {
    clients.push_back(std::make_unique<net::Client>());
    clients.back()->connect("127.0.0.1", fixture.port());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    do {
      per_shard = fixture.server().stats().shard_connections;
      std::uint64_t total = 0;
      for (const std::uint64_t n : per_shard) total += n;
      if (total >= clients.size()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (std::chrono::steady_clock::now() < deadline);
    if (std::count(per_shard.begin(), per_shard.end(), 0u) == 0) return;
  }
  FAIL() << "a shard adopted no connection in " << kMaxAttempts
         << " connects";
}

TEST(NetServer, DrainFlushesInFlightFramesOnEveryShard) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/5);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(150000)});

  // At least one in-flight request on each of the three shards when
  // the stop lands: the drain must deliver every response before run()
  // returns.
  net::ServerConfig config;
  config.reactors = 3;
  config.service.num_threads = 3;
  ServerFixture fixture(config);

  std::vector<std::unique_ptr<net::Client>> clients;
  ASSERT_NO_FATAL_FAILURE(connectToEveryShard(fixture, clients));
  for (auto& client : clients) client->send(kFig3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fixture.stop();
  const std::string expected = offlineInstrument(kFig3);
  for (auto& client : clients) {
    const net::Response r = client->receive();
    EXPECT_EQ(r.status, Status::kOk) << r.payload;
    EXPECT_EQ(r.payload, expected);
  }
}

TEST(NetServer, BlockGateContendedAcrossShardsLosesNothing) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/7);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(5000)});

  // A single global gate slot fought over from two shards, each with
  // at least one client. Frames park on BOTH shards; every completion on
  // one shard must wake the sibling's parked frame, and nothing may be
  // lost or rejected.
  net::ServerConfig config;
  config.reactors = 2;
  config.service.num_threads = 1;
  config.max_in_flight = 1;
  ServerFixture fixture(config);

  std::vector<std::unique_ptr<net::Client>> clients;
  ASSERT_NO_FATAL_FAILURE(connectToEveryShard(fixture, clients));

  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    for (auto& client : clients) client->send(kFig3);
  }
  for (int i = 0; i < kRequests; ++i) {
    for (auto& client : clients) {
      EXPECT_EQ(client->receive().status, Status::kOk);
    }
  }
  const std::uint64_t sent = clients.size() * kRequests;
  const net::Server::Stats stats = fixture.server().stats();
  EXPECT_EQ(stats.gate_rejected, 0u);
  EXPECT_EQ(stats.frames_received, sent);
  EXPECT_EQ(stats.responses_sent, sent);
}

// Satellite: the reaper walks the intrusive LRU list from the cold end
// and must stop at the first warm connection — an active neighbour is
// never scanned, let alone closed.
TEST(NetServer, IdleReaperClosesOnlyExpiredConnections) {
  net::ServerConfig config;
  config.idle_timeout_s = 0.08;
  ServerFixture fixture(config);
  net::Client active;
  active.connect("127.0.0.1", fixture.port());
  net::Client idle;
  idle.connect("127.0.0.1", fixture.port());
  ASSERT_EQ(idle.call(kFig3).status, Status::kOk);

  // Keep one connection warm while the other goes cold past the window.
  for (int i = 0;
       i < 100 && fixture.server().stats().connections_idle_closed == 0;
       ++i) {
    ASSERT_EQ(active.call(kFig3).status, Status::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.server().stats().connections_idle_closed, 1u);
  EXPECT_THROW(idle.receive(), util::Error);
  EXPECT_EQ(active.call(kFig3).status, Status::kOk);
}

// Satellite: the priod_client exit path keys on result().usable, which
// must stay false for every response a caller cannot use — including a
// kDegraded reply whose payload is empty.
TEST(NetClient, ResultUsableRejectsEmptyDegraded) {
  net::Response r;
  r.status = Status::kOk;
  r.payload = "Job a a.submit\n";
  EXPECT_TRUE(r.result().usable);

  r.status = Status::kDegraded;
  EXPECT_TRUE(r.result().usable);
  r.payload.clear();
  EXPECT_TRUE(r.hasOutput());  // the old predicate would pass...
  EXPECT_FALSE(r.result().usable);  // ...the fixed one does not

  r.payload = "some diagnostic";
  for (Status s : {Status::kRejected, Status::kShed, Status::kFailed,
                   Status::kProtocolError, Status::kExpired}) {
    r.status = s;
    EXPECT_FALSE(r.result().usable);
  }
}

// ------------------------------------------- wire deadlines & liveness

TEST(NetServer, WireDeadlineExpiresInServiceQueue) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/5);
  // The lone worker sits inside request A long enough that B's 1 ms
  // budget is gone before B is ever dequeued.
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(60000)});

  net::ServerConfig config;
  config.service.num_threads = 1;
  ServerFixture fixture(config);

  net::Client a;  // no deadline: must complete
  a.connect("127.0.0.1", fixture.port());
  net::ClientOptions bopts;
  bopts.deadline_ms = 1;
  net::Client b(bopts);
  b.connect("127.0.0.1", fixture.port());

  a.send(kFig3);
  // Let A claim the worker before B enqueues behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.send(kFig3);

  const net::Response ra = a.receive();
  EXPECT_EQ(ra.status, Status::kOk) << ra.payload;
  const net::Response rb = b.receive();
  EXPECT_EQ(rb.status, Status::kExpired) << rb.payload;
  EXPECT_TRUE(rb.payload.empty() || !rb.ok());
  EXPECT_FALSE(rb.result().usable);

  // The expiry is visible on every surface: service JSON counter,
  // server stats, and the per-tenant ledger.
  EXPECT_EQ(fixture.server().service().metrics().requests_expired.get(), 1u);
  EXPECT_EQ(fixture.server().stats().requests_expired, 1u);
  std::ostringstream tenants;
  fixture.server().writeTenantsJson(tenants);
  EXPECT_NE(tenants.str().find("\"expired\":1"), std::string::npos)
      << tenants.str();
}

TEST(NetServer, WireDeadlineExpiresWhileGateParked) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/5);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(200000)});

  // Gate of 1 under kBlock: B's frame parks. Its 1 ms budget dies in
  // the parking lot, so the tick loop must answer kExpired pre-
  // admission instead of letting the request wait forever.
  net::ServerConfig config;
  config.service.num_threads = 1;
  config.max_in_flight = 1;
  ServerFixture fixture(config);

  net::Client a;
  a.connect("127.0.0.1", fixture.port());
  net::ClientOptions bopts;
  bopts.deadline_ms = 1;
  net::Client b(bopts);
  b.connect("127.0.0.1", fixture.port());

  a.send(kFig3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  b.send(kFig3);

  const net::Response rb = b.receive();
  EXPECT_EQ(rb.status, Status::kExpired) << rb.payload;
  EXPECT_NE(rb.payload.find("before admission"), std::string::npos)
      << rb.payload;
  const net::Response ra = a.receive();
  EXPECT_EQ(ra.status, Status::kOk) << ra.payload;

  // Pre-admission expiry is billed to the tenant but consumes no quota
  // token and never reaches the service.
  EXPECT_EQ(fixture.server().stats().requests_expired, 1u);
  EXPECT_EQ(fixture.server().service().metrics().requests_expired.get(), 0u);

  // The connection survives: B can still be served afterwards (the
  // worker is free again, so even the 1 ms budget can succeed — but
  // either way the request terminates).
  b.send(kFig3);
  const net::Response again = b.receive();
  EXPECT_TRUE(again.status == Status::kOk ||
              again.status == Status::kExpired ||
              again.status == Status::kDegraded)
      << net::statusName(again.status);
}

TEST(NetServer, HealthzAnswersWhileLoopTurns) {
  ServerFixture fixture;
  int status = 0;
  const std::string body = net::Client::fetchHttp(
      "127.0.0.1", fixture.port(), "/healthz", {}, &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  EXPECT_GE(fixture.server().stats().http_requests, 1u);
}

TEST(NetServer, ReadyzReportsReadyWhenIdle) {
  ServerFixture fixture;
  int status = 0;
  const std::string body = net::Client::fetchHttp(
      "127.0.0.1", fixture.port(), "/readyz", {}, &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"ready\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"max_in_flight\":"), std::string::npos) << body;
}

TEST(NetServer, ReadyzGoes503WhenGateSaturated) {
  FaultGuard guard;
  auto& injector = util::fault::Injector::instance();
  injector.arm(/*seed=*/5);
  injector.plan("service.parse",
                {util::fault::Kind::kDelay, /*every_nth=*/1, 0.0,
                 std::chrono::microseconds(300000)});

  net::ServerConfig config;
  config.service.num_threads = 1;
  config.max_in_flight = 1;
  ServerFixture fixture(config);
  net::Client client;
  client.connect("127.0.0.1", fixture.port());
  client.send(kFig3);  // occupies the only gate slot
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  int status = 0;
  const std::string body = net::Client::fetchHttp(
      "127.0.0.1", fixture.port(), "/readyz", {}, &status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"ready\":false"), std::string::npos) << body;
  EXPECT_NE(body.find("\"in_flight\":1"), std::string::npos) << body;

  EXPECT_EQ(client.receive().status, Status::kOk);
  // Drained again: ready returns.
  const std::string after = net::Client::fetchHttp(
      "127.0.0.1", fixture.port(), "/readyz", {}, &status);
  EXPECT_EQ(status, 200) << after;
}

TEST(NetServer, LoopStallWatchdogRecordsNonTrivialWork) {
  ServerFixture fixture;
  net::Client client;
  client.connect("127.0.0.1", fixture.port());
  ASSERT_EQ(client.call(kFig3).status, Status::kOk);
  // Any served request keeps the loop away from poll for a nonzero
  // stretch; the gauge must have seen it.
  EXPECT_GT(fixture.server().stats().loop_stall_max_us, 0u);
  const std::string metrics =
      net::Client::fetchMetrics("127.0.0.1", fixture.port());
  EXPECT_NE(metrics.find("prio_net_loop_stall_max_us"), std::string::npos);
}

// Satellite: a stalled server must cost the client a clean TimeoutError,
// not an infinite hang — on both the framed path and the HTTP fetches.
TEST(NetClient, ReceiveTimesOutInsteadOfHanging) {
  // A listener that accepts and then never writes a byte.
  util::UniqueFd listener = util::socketCloexec(AF_INET, SOCK_STREAM, 0);
  ASSERT_TRUE(listener.valid());
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener.get(), reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener.get(), 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener.get(),
                          reinterpret_cast<struct sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  net::ClientOptions options;
  options.request_timeout_s = 0.05;
  net::Client client(options);
  client.connect("127.0.0.1", port);
  client.send(kFig3);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.receive(), net::TimeoutError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0);  // bounded, not the kernel TCP timeout

  // The HTTP path under the same silence.
  EXPECT_THROW(net::Client::fetchHttp("127.0.0.1", port, "/metrics", options),
               net::TimeoutError);
}

}  // namespace
