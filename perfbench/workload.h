// The benchmark's three workloads as deterministic request streams.
//
// A stream is an endless sequence fixed by (workload, seed): take(n)
// returns the next requests, generated and paired with their reference
// replies on `threads` threads, so the caller can prepare each phase's
// inputs while the server is idle and time only the sending.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "inputs.h"

namespace perfbench {

class Stream {
 public:
  virtual ~Stream() = default;
  /// The next requests of the sequence, carrying at least `dags` dags.
  virtual std::vector<Request> take(std::size_t dags) = 0;
  /// One line describing what the stream has produced so far: job counts,
  /// family mix, and (reuse-mix) realized form and transport shares.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// "miss-mix", "reuse-mix" or "large-dag"; throws on any other name.
[[nodiscard]] std::unique_ptr<Stream> makeStream(const std::string& workload,
                                                 std::uint64_t seed,
                                                 std::size_t threads);

/// A workload's fixed run sizes, in dags.
struct Sizes {
  std::size_t points;    ///< a sweep rate point, at the least (mixes); the
                         ///< closed loop (large-dag)
  std::size_t fixed;     ///< one fixed-rate reading (mixes)
  std::size_t readings;  ///< fixed-rate readings, medians reported (mixes)
  std::size_t warmup;    ///< sent before anything is measured
  std::size_t sample;    ///< inputs of the traced run
};
[[nodiscard]] Sizes sizesOf(const std::string& workload);

/// Dags in a request list (batch items counted one by one).
[[nodiscard]] std::size_t countDags(const std::vector<Request>& requests);

}  // namespace perfbench
