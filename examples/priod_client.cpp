// priod_client — command-line client for priod_server (src/net/).
//
// Usage:
//   priod_client [options] <file.dag>...
//   priod_client [options] --metrics
//   priod_client [options] --tenants
//   priod_client [options] --healthz | --readyz
//
// Options:
//   --host ADDR      server address (default 127.0.0.1)
//   --port N         server port
//   --port-file F    read the port from F (as written by priod_server
//                    --port-file; mutually composable with --port 0 setups)
//   --out DIR        write each instrumented response to DIR/<input
//                    basename> (default: print a one-line summary only)
//   --tenant N       bill every request to tenant N (default 0): selects
//                    the server-side fair-queue lane, quota, and
//                    accounting row (DESIGN.md §12)
//   --timeout-ms N   bound every read on the connection: a stalled or
//                    dead server costs a clean "timed out" diagnostic
//                    after N ms instead of hanging forever (default 0 =
//                    wait forever, the historical behavior)
//   --deadline-ms N  stamp an N ms whole-request deadline on each frame;
//                    the server sheds work it can no longer finish in
//                    time and answers Status "expired" (DESIGN.md §13)
//   --retry          recover from connection loss: reconnect with seeded
//                    backoff and replay unanswered requests under their
//                    original ids (safe — requests are idempotent), with
//                    a circuit breaker failing fast when the server
//                    stays down
//   --binary         parse each .dag locally and ship it as a typed
//                    binary CSR payload (wire v3); the server answers a
//                    binary priority block and the client instruments
//                    its local copy — output is byte-identical to the
//                    text path, but the server never parses text
//   --batch N        group inputs into kBatchRequest frames of up to N
//                    dags each: one round-trip answers N inputs with
//                    per-item statuses (composes with --binary)
//   --metrics        fetch GET /metrics and print the snapshot to stdout
//   --tenants        fetch GET /tenants and print the per-tenant JSON
//   --healthz        probe GET /healthz: exit 0 iff the server is alive
//   --readyz         probe GET /readyz: exit 0 iff accepting work (503
//                    while draining or saturated prints the JSON body)
//
// All requests are pipelined over one connection: every frame is sent
// before the first response is read, and responses are matched back to
// inputs by request id.
//
// Exit status: 0 when every request completed with a usable result (kOk,
// or kDegraded with non-empty output), 1 on any rejected / shed / expired
// / failed / empty-degraded response or transport error (including a
// --timeout-ms expiry or an unready probe), 2 on usage errors. Every
// non-usable response prints a one-line stderr diagnostic.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "dag/csr.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "net/client.h"
#include "net/resilient.h"
#include "util/check.h"

namespace fs = std::filesystem;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: priod_client [--host ADDR] [--port N] [--port-file F] "
               "[--out DIR] [--tenant N] [--timeout-ms N] [--deadline-ms N] "
               "[--retry] [--binary] [--batch N] <file.dag>...\n"
               "       priod_client [--host ADDR] [--port N] [--port-file F] "
               "--metrics | --tenants | --healthz | --readyz\n");
  return 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PRIO_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::string out_dir;
  bool metrics = false;
  bool tenants = false;
  bool healthz = false;
  bool readyz = false;
  bool retry = false;
  bool binary = false;
  std::size_t batch = 0;
  std::uint32_t tenant = 0;
  std::uint32_t timeout_ms = 0;
  std::uint32_t deadline_ms = 0;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw prio::util::Error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--host") host = next();
      else if (arg == "--port")
        port = static_cast<std::uint16_t>(std::stoul(next()));
      else if (arg == "--port-file") port_file = next();
      else if (arg == "--out") out_dir = next();
      else if (arg == "--tenant")
        tenant = static_cast<std::uint32_t>(std::stoul(next()));
      else if (arg == "--timeout-ms")
        timeout_ms = static_cast<std::uint32_t>(std::stoul(next()));
      else if (arg == "--deadline-ms")
        deadline_ms = static_cast<std::uint32_t>(std::stoul(next()));
      else if (arg == "--retry") retry = true;
      else if (arg == "--binary") binary = true;
      else if (arg == "--batch")
        batch = static_cast<std::size_t>(std::stoul(next()));
      else if (arg == "--metrics") metrics = true;
      else if (arg == "--tenants") tenants = true;
      else if (arg == "--healthz") healthz = true;
      else if (arg == "--readyz") readyz = true;
      else if (arg.rfind("--", 0) == 0) return usage();
      else inputs.push_back(arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "priod_client: %s\n", e.what());
      return 2;
    }
  }
  if (!metrics && !tenants && !healthz && !readyz && inputs.empty()) {
    return usage();
  }

  try {
    if (!port_file.empty()) {
      std::ifstream in(port_file);
      unsigned p = 0;
      PRIO_CHECK_MSG(in >> p, "cannot read port from " << port_file);
      port = static_cast<std::uint16_t>(p);
    }
    PRIO_CHECK_MSG(port != 0, "no server port (--port or --port-file)");

    prio::net::ClientOptions options;
    options.tenant = tenant;
    options.request_timeout_s = timeout_ms / 1e3;
    options.deadline_ms = deadline_ms;

    if (metrics) {
      std::cout << prio::net::Client::fetchMetrics(host, port, options);
      return 0;
    }
    if (tenants) {
      std::cout << prio::net::Client::fetchTenants(host, port, options)
                << "\n";
      return 0;
    }
    if (healthz || readyz) {
      const std::string path = healthz ? "/healthz" : "/readyz";
      int status = 0;
      const std::string body =
          prio::net::Client::fetchHttp(host, port, path, options, &status);
      std::printf("priod_client: %s: %d\n", path.c_str(), status);
      if (status != 200) {
        std::fprintf(stderr, "priod_client: %s not ok: %s\n", path.c_str(),
                     body.c_str());
        return 1;
      }
      return 0;
    }

    // Plain or resilient transport behind one submit/await surface.
    prio::net::Client client(options);
    prio::net::ResilientOptions ropts;
    ropts.client = options;
    prio::net::ResilientClient resilient(host, port, ropts);
    if (!retry) client.connect(host, port);
    const prio::net::PayloadKind kind =
        binary ? prio::net::PayloadKind::kBinaryCsr
               : prio::net::PayloadKind::kDagmanText;

    // Each input's wire payload, plus — under --binary — the locally
    // parsed file the response's priority block instruments.
    struct Prepared {
      std::string wire;
      prio::dagman::DagmanFile file;
      std::vector<std::size_t> job_of_node;
      bool has_done = false;
    };
    std::vector<Prepared> prepared(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::string text = slurp(inputs[i]);
      if (!binary) {
        prepared[i].wire = text;
        continue;
      }
      prepared[i].file = prio::dagman::DagmanFile::parse(text);
      prepared[i].has_done = prepared[i].file.hasDoneJobs();
      const prio::dag::Digraph graph =
          prepared[i].has_done
              ? prepared[i].file.toPendingDigraph(&prepared[i].job_of_node)
              : prepared[i].file.toDigraph();
      prepared[i].wire = prio::dag::encodeBinaryDag(graph);
    }

    // Pipeline: all requests on the wire before the first response is
    // read; the echoed request id maps each response back to its
    // input(s) — one per frame unbatched, a slice of up to --batch N
    // inputs per kBatchRequest frame.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>
        inputs_of_request;
    const std::size_t group = batch > 1 ? batch : 1;
    for (std::size_t i = 0; i < inputs.size(); i += group) {
      const std::size_t end = std::min(i + group, inputs.size());
      std::uint64_t id = 0;
      if (group == 1) {
        id = retry ? resilient.submitPayload(kind, prepared[i].wire)
                   : client.sendPayload(kind, prepared[i].wire);
      } else {
        std::vector<prio::net::BatchItem> items;
        items.reserve(end - i);
        for (std::size_t j = i; j < end; ++j) {
          items.push_back(prio::net::BatchItem{kind, prepared[j].wire});
        }
        id = retry ? resilient.submitBatch(items) : client.submitBatch(items);
      }
      std::vector<std::size_t>& slice = inputs_of_request[id];
      for (std::size_t j = i; j < end; ++j) slice.push_back(j);
    }

    if (!out_dir.empty()) fs::create_directories(out_dir);
    std::size_t failed = 0;

    // One decoded item (or single response) lands here: render the
    // output — under --binary, decode the priority block and instrument
    // the local parse — then write or summarize it.
    auto handleItem = [&](std::size_t input_idx, prio::net::Status status,
                          bool usable, const std::string& payload) {
      const std::string& input = inputs[input_idx];
      if (!usable) {
        ++failed;
        std::fprintf(stderr, "priod_client: %s: %s: %s\n", input.c_str(),
                     prio::net::statusName(status),
                     payload.empty() ? "empty response payload"
                                     : payload.c_str());
        return;
      }
      std::string output;
      if (binary) {
        try {
          const std::vector<std::size_t> priorities =
              prio::dag::decodeBinaryPriorities(payload);
          Prepared& p = prepared[input_idx];
          if (p.has_done) {
            prio::dagman::instrumentPendingJobs(p.file, priorities,
                                                p.job_of_node);
          } else {
            prio::dagman::instrumentDagmanFile(p.file, priorities);
          }
          output = p.file.render();
        } catch (const std::exception& e) {
          ++failed;
          std::fprintf(stderr, "priod_client: %s: bad binary response: %s\n",
                       input.c_str(), e.what());
          return;
        }
      } else {
        output = payload;
      }
      if (!out_dir.empty()) {
        const fs::path out_path = fs::path(out_dir) / fs::path(input).filename();
        std::ofstream out(out_path, std::ios::binary);
        out << output;
        PRIO_CHECK_MSG(out.good(), "cannot write " << out_path.string());
        std::printf("priod_client: %s -> %s (%s, %zu bytes)\n", input.c_str(),
                    out_path.string().c_str(), prio::net::statusName(status),
                    output.size());
      } else {
        std::printf("priod_client: %s: %s (%zu bytes)\n", input.c_str(),
                    prio::net::statusName(status), output.size());
      }
    };

    const std::size_t round_trips = inputs_of_request.size();
    for (std::size_t n = 0; n < round_trips; ++n) {
      const prio::net::Response r =
          retry ? resilient.await() : client.receive();
      const auto it = inputs_of_request.find(r.request_id);
      PRIO_CHECK_MSG(it != inputs_of_request.end(),
                     "unknown request id " << r.request_id);
      const std::vector<std::size_t>& slice = it->second;
      const prio::net::Response::Result result = r.result();
      if (r.batch) {
        if (!result.usable || result.items.size() != slice.size()) {
          // A whole-batch failure: non-kOk frames carry an error
          // message; a kOk frame that would not decode (or answered
          // the wrong item count) gets a fixed diagnostic instead of
          // its binary envelope bytes.
          const char* msg = r.status != prio::net::Status::kOk
                                ? (r.payload.empty() ? "empty response payload"
                                                     : r.payload.c_str())
                                : "undecodable batch response";
          for (const std::size_t input_idx : slice) {
            ++failed;
            std::fprintf(stderr, "priod_client: %s: %s: %s\n",
                         inputs[input_idx].c_str(),
                         prio::net::statusName(r.status), msg);
          }
          continue;
        }
        for (std::size_t j = 0; j < slice.size(); ++j) {
          const prio::net::BatchItemReply& item = result.items[j];
          handleItem(slice[j], item.status, item.usable(), item.payload);
        }
      } else {
        // result().usable, not hasOutput: a kDegraded reply with an
        // empty payload would otherwise "succeed" by writing an empty
        // file.
        handleItem(slice[0], r.status, result.usable, r.payload);
      }
    }
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "priod_client: %s\n", e.what());
    return 1;
  }
}
