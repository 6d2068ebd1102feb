#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "net/protocol.h"
#include "util/parallel_for.h"

namespace perfbench {

using prio::stats::Rng;

namespace {

/// How a reuse-mix item relates to its pool entry.
enum class Form : std::uint8_t {
  kIdentical,  ///< the pool entry's exact bytes
  kRenamed,    ///< the pool entry with fresh job names, same ids
  kFresh,      ///< a dag no earlier request carried
};

std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  std::uint64_t x = a ^ (b * 0x9E3779B97F4A7C15ULL) ^ (c * 0xC2B2AE3D27D4EB4FULL);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  return x ^ (x >> 33);
}

/// Job count for stratum k of `strata` equal slices of [lo, hi] on a log
/// scale, jittered inside the slice: every block of a stream covers the
/// whole size range, so seeds differ in detail but not in mix.
std::size_t stratifiedJobs(double lo, double hi, std::size_t k,
                           std::size_t strata, double jitter) {
  const double u = (static_cast<double>(k) + jitter) /
                   static_cast<double>(strata);
  return static_cast<std::size_t>(std::exp(std::log(lo) +
                                           u * (std::log(hi) - std::log(lo))));
}

/// Job-name prefix "<tag><index>_j": unique per dag of a stream.
std::string jobPrefix(char tag, std::uint64_t index) {
  std::string out(1, tag);
  out += std::to_string(index);
  out += "_j";
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

struct Spec {
  std::uint32_t family = 0;  ///< mix family, or LargeFamily when `large`
  bool large = false;
  std::size_t jobs = 0;
  std::uint64_t seed = 0;
  std::string prefix;
};

struct Generated {
  NamedDag dag;
  Rendered rendered;
};

/// Generates and renders every spec, redrawing (with the next attempt's
/// seed) any dag whose structural fingerprint is already in `seen`, so no
/// two dags of a stream are isomorphic. Deterministic: collisions are
/// resolved in spec order.
std::vector<Generated> generateDistinct(const std::vector<Spec>& specs,
                                        bool want_text, bool want_binary,
                                        bool keep_graph,
                                        std::unordered_set<std::uint64_t>& seen,
                                        std::size_t threads) {
  std::vector<Generated> out(specs.size());
  std::vector<std::uint64_t> attempt(specs.size(), 0);
  std::vector<std::size_t> todo(specs.size());
  std::iota(todo.begin(), todo.end(), 0);
  while (!todo.empty()) {
    prio::util::parallelClaim(nullptr, threads, todo.size(), [&](std::size_t k) {
      const std::size_t i = todo[k];
      const Spec& spec = specs[i];
      Rng rng(mixSeed(spec.seed, attempt[i], 0xD1));
      // A parametric family has few shapes at one size, so a redraw also
      // moves the size, a little further on every attempt.
      const double spread =
          std::min(0.05 * static_cast<double>(attempt[i]), 0.5);
      const std::size_t jobs = static_cast<std::size_t>(
          static_cast<double>(spec.jobs) *
          (1.0 + spread * (2.0 * rng.uniform01() - 1.0)));
      // After that, fall back to a family with unbounded shapes.
      const std::uint32_t family =
          attempt[i] < 10 ? spec.family : mixFamilies().front();
      out[i].dag =
          spec.large
              ? generateLargeDag(static_cast<LargeFamily>(spec.family), rng)
              : generateDag(family, jobs, rng);
      out[i].rendered =
          render(out[i].dag.graph, spec.prefix, want_text, want_binary);
      if (!validPriorities(out[i].dag.graph, out[i].rendered.priorities)) {
        throw std::runtime_error("reference priorities are not a valid "
                                 "topological permutation");
      }
      if (!keep_graph) out[i].dag.graph = prio::dag::Digraph();
    });
    std::vector<std::size_t> again;
    for (std::size_t i : todo) {
      if (!seen.insert(out[i].rendered.fingerprint).second) {
        ++attempt[i];
        again.push_back(i);
      }
    }
    todo = std::move(again);
  }
  return out;
}

Item makeItem(const Generated& g, Kind kind) {
  Item item;
  item.kind = kind;
  item.payload = kind == Kind::kText ? g.rendered.text : g.rendered.binary;
  item.expected = kind == Kind::kText ? g.rendered.text_expected
                                      : g.rendered.binary_expected;
  item.jobs = g.rendered.priorities.size();
  item.family = g.dag.family;
  return item;
}

/// Job-count and family summary shared by the stream descriptions.
class Tally {
 public:
  void add(const Item& item) {
    jobs_.push_back(item.jobs);
    ++families_[familyNames()[item.family]];
  }
  [[nodiscard]] std::string str() const {
    if (jobs_.empty()) return "no dags";
    std::vector<std::size_t> sorted = jobs_;
    std::sort(sorted.begin(), sorted.end());
    std::ostringstream out;
    out << sorted.size() << " dags, jobs min " << sorted.front()
        << " median " << sorted[sorted.size() / 2] << " max "
        << sorted.back() << "; families";
    for (const auto& [name, n] : families_) out << " " << name << "=" << n;
    return out.str();
  }

 private:
  std::vector<std::size_t> jobs_;
  std::map<std::string, std::size_t> families_;
};

// ---------------------------------------------------------------------
// miss-mix: every dag new to the run, 100-3000 jobs, eight families.

class MissStream : public Stream {
 public:
  MissStream(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  std::vector<Request> take(std::size_t dags) override {
    const std::size_t blocks = (dags + kBlock - 1) / kBlock;
    std::vector<Spec> specs;
    const std::vector<std::uint32_t> families = mixFamilies();
    for (std::size_t b = 0; b < blocks; ++b, ++block_) {
      std::vector<std::size_t> slots(kBlock);
      std::iota(slots.begin(), slots.end(), 0);
      Rng rng(mixSeed(seed_, block_, 0xB1));
      shuffle(slots, rng);
      for (std::size_t slot : slots) {
        Spec spec;
        spec.family = families[slot % families.size()];
        spec.jobs = stratifiedJobs(100, 3000, slot / families.size(),
                                   kBlock / families.size(),
                                   rng.uniform01());
        spec.seed = mixSeed(seed_, next_, 0x5E);
        spec.prefix = jobPrefix('w', next_++);
        specs.push_back(std::move(spec));
      }
    }
    std::vector<Request> out;
    for (const Generated& g :
         generateDistinct(specs, true, false, false, seen_, threads_)) {
      Request r;
      r.items.push_back(makeItem(g, Kind::kText));
      tally_.add(r.items.back());
      out.push_back(std::move(r));
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    return "miss-mix: " + tally_.str() + "; all fingerprints distinct";
  }

 private:
  static constexpr std::size_t kBlock = 64;  // 8 families x 8 size strata
  std::uint64_t seed_;
  std::size_t threads_;
  std::uint64_t next_ = 0;
  std::uint64_t block_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  Tally tally_;
};

// ---------------------------------------------------------------------
// reuse-mix: a Zipf-popular pool of base workflows, sent identical,
// renamed or fresh, as text, binary or inside 16-item binary batches.

class ReuseStream : public Stream {
 public:
  ReuseStream(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {
    const std::vector<std::uint32_t> families = mixFamilies();
    std::vector<Spec> specs;
    Rng rng(mixSeed(seed_, 0, 0x9001));
    for (std::size_t k = 0; k < kPool; ++k) {
      Spec spec;
      spec.family = families[k % families.size()];
      spec.jobs = stratifiedJobs(50, 1000, k / families.size(),
                                 kPool / families.size(), rng.uniform01());
      spec.seed = mixSeed(seed_, k, 0x9002);
      spec.prefix = jobPrefix('p', k);
      specs.push_back(std::move(spec));
    }
    pool_ = generateDistinct(specs, true, true, true, seen_, threads_);
    // Popularity rank -> pool entry by a fixed bijection (97 is coprime to
    // the pool size): rank r gets family r mod 8 and the same size stratum
    // under every seed, so the work behind the popular entries, which the
    // memo-hit latency follows, does not change with the seed.
    for (std::size_t r = 0; r < kPool; ++r) {
      rank_to_pool_.push_back(r * 97 % kPool);
    }
    double total = 0.0;
    for (std::size_t r = 0; r < kPool; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfS);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  std::vector<Request> take(std::size_t dags) override {
    const std::size_t blocks = (dags + kBlock - 1) / kBlock;
    struct Plan {
      Form form;
      int transport;  // 0 text, 1 binary, 2 batch item
      std::size_t pool = 0;
      std::uint64_t index = 0;
    };
    std::vector<Plan> plans;
    for (std::size_t b = 0; b < blocks; ++b, ++block_) {
      Rng rng(mixSeed(seed_, block_, 0xB2));
      auto forms = [&](std::size_t identical, std::size_t renamed,
                       std::size_t fresh) {
        std::vector<Form> f(identical, Form::kIdentical);
        f.insert(f.end(), renamed, Form::kRenamed);
        f.insert(f.end(), fresh, Form::kFresh);
        shuffle(f, rng);
        return f;
      };
      const std::vector<Form> single_forms = forms(51, 8, 5);
      const std::vector<Form> batch_forms = forms(13, 2, 1);
      std::vector<int> transports(kSingles / 2, 0);
      transports.insert(transports.end(), kSingles / 2, 1);
      shuffle(transports, rng);
      const std::size_t batch_at = rng.below(kSingles + 1);
      auto plan = [&](Form form, int transport) {
        const double u = rng.uniform01();
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin());
        plans.push_back({form, transport,
                         rank_to_pool_[std::min(rank, kPool - 1)], next_++});
      };
      for (std::size_t j = 0; j <= kSingles; ++j) {
        if (j == batch_at) {
          for (Form f : batch_forms) plan(f, 2);
        }
        if (j < kSingles) plan(single_forms[j], transports[j]);
      }
    }

    // Renamed items: the pool dag under fresh job names, same ids, so the
    // pool entry's priorities are the reference (prioritize() reads ids,
    // never names).
    std::vector<Item> items(plans.size());
    std::vector<std::size_t> renamed, fresh;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      if (plans[k].form == Form::kRenamed) renamed.push_back(k);
      if (plans[k].form == Form::kFresh) fresh.push_back(k);
    }
    prio::util::parallelClaim(nullptr, threads_, renamed.size(),
                              [&](std::size_t n) {
      const Plan& p = plans[renamed[n]];
      const Generated& base = pool_[p.pool];
      const bool text = p.transport == 0;
      Generated g;
      g.dag.family = base.dag.family;
      g.rendered = render(base.dag.graph, jobPrefix('r', p.index),
                          text, !text, &base.rendered.priorities);
      g.rendered.fingerprint = base.rendered.fingerprint;
      items[renamed[n]] =
          makeItem(g, text ? Kind::kText : Kind::kBinary);
    });
    std::vector<Spec> specs;
    const std::vector<std::uint32_t> families = mixFamilies();
    for (std::size_t k : fresh) {
      Rng rng(mixSeed(seed_, plans[k].index, 0xF1));
      Spec spec;
      spec.family = families[fresh_count_ % families.size()];
      spec.jobs = stratifiedJobs(50, 1000, (fresh_count_ / families.size()) % 8,
                                 8, rng.uniform01());
      spec.seed = mixSeed(seed_, plans[k].index, 0xF2);
      spec.prefix = jobPrefix('f', plans[k].index);
      specs.push_back(std::move(spec));
      ++fresh_count_;
    }
    const std::vector<Generated> made =
        generateDistinct(specs, true, true, false, seen_, threads_);
    for (std::size_t n = 0; n < fresh.size(); ++n) {
      const bool text = plans[fresh[n]].transport == 0;
      items[fresh[n]] =
          makeItem(made[n], text ? Kind::kText : Kind::kBinary);
    }
    for (std::size_t k = 0; k < plans.size(); ++k) {
      if (plans[k].form != Form::kIdentical) continue;
      const bool text = plans[k].transport == 0;
      items[k] =
          makeItem(pool_[plans[k].pool], text ? Kind::kText : Kind::kBinary);
    }

    std::vector<Request> out;
    Request batch;
    batch.batch = true;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      ++forms_[static_cast<int>(plans[k].form)];
      ++transports_[plans[k].transport];
      tally_.add(items[k]);
      if (plans[k].transport != 2) {
        Request r;
        r.items.push_back(std::move(items[k]));
        out.push_back(std::move(r));
        continue;
      }
      batch.items.push_back(std::move(items[k]));
      if (batch.items.size() == kBatchSize) {
        std::vector<prio::net::BatchItem> wire;
        for (const Item& item : batch.items) {
          wire.push_back({prio::net::PayloadKind::kBinaryCsr, *item.payload});
        }
        batch.envelope = std::make_shared<const std::string>(
            prio::net::encodeBatchRequest(wire));
        out.push_back(std::move(batch));
        batch = Request();
        batch.batch = true;
      }
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    const double n = static_cast<double>(forms_[0] + forms_[1] + forms_[2]);
    std::ostringstream out;
    out.precision(3);
    out << "reuse-mix: pool " << kPool << " (Zipf s=" << kZipfS
        << "), items: identical "
        << forms_[0] / n << " renamed " << forms_[1] / n << " fresh "
        << forms_[2] / n << "; text " << transports_[0] / n << " binary "
        << transports_[1] / n << " batch " << transports_[2] / n << "; "
        << tally_.str();
    return out.str();
  }

 private:
  // The pool size, skew and shares below are assumptions, not measured
  // DAGMan traffic: none is published. They are fixed by the cache sizes
  // and by the need for every cache layer to hit.
  // Larger than the response memo (128) and smaller than the
  // fingerprint cache (1024).
  static constexpr std::size_t kPool = 384;
  // Skewed enough that most identical requests hit the memo, so the
  // median request sits inside one served path rather than between two.
  static constexpr double kZipfS = 1.4;
  // Per block of 80 items: 64 singles (32 text, 32 binary) carrying 51
  // identical, 8 renamed and 5 fresh dags, and one 16-item binary batch
  // carrying 13, 2 and 1: 80% identical, 12.5% renamed, 7.5% fresh in all.
  // Every batch holds exactly one fresh dag, so batch latencies form one
  // population instead of two.
  static constexpr std::size_t kBlock = 80;
  static constexpr std::size_t kSingles = 64;
  static constexpr std::size_t kBatchSize = 16;

  std::uint64_t seed_;
  std::size_t threads_;
  std::uint64_t next_ = 0;
  std::uint64_t block_ = 0;
  std::size_t fresh_count_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<Generated> pool_;
  std::vector<std::size_t> rank_to_pool_;
  std::vector<double> zipf_cdf_;
  std::size_t forms_[3] = {0, 0, 0};
  std::size_t transports_[3] = {0, 0, 0};
  Tally tally_;
};

// ---------------------------------------------------------------------
// large-dag: paper-scale Inspiral and Montage variations, with an SDSS
// at one fixed position in every 25 requests.

class LargeStream : public Stream {
 public:
  LargeStream(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  std::vector<Request> take(std::size_t dags) override {
    std::vector<Spec> specs;
    for (std::size_t k = 0; k < dags; ++k, ++next_) {
      Spec spec;
      spec.large = true;
      spec.family = next_ % 25 == 12 ? kLargeSdss
                    : next_ % 2 == 0 ? kLargeInspiral
                                     : kLargeMontage;
      spec.seed = mixSeed(seed_, next_, 0x1A);
      spec.prefix = jobPrefix('g', next_);
      specs.push_back(std::move(spec));
    }
    std::vector<Request> out;
    for (const Generated& g :
         generateDistinct(specs, true, false, false, seen_, threads_)) {
      Request r;
      r.items.push_back(makeItem(g, Kind::kText));
      tally_.add(r.items.back());
      if (familyNames()[g.dag.family] == "paper.sdss") {
        sdss_jobs_.push_back(r.items.back().jobs);
      }
      out.push_back(std::move(r));
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream out;
    out << "large-dag: " << tally_.str() << "; sdss jobs";
    for (std::size_t j : sdss_jobs_) out << " " << j;
    return out.str();
  }

 private:
  std::uint64_t seed_;
  std::size_t threads_;
  std::uint64_t next_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<std::size_t> sdss_jobs_;
  Tally tally_;
};

}  // namespace

std::unique_ptr<Stream> makeStream(const std::string& workload,
                                   std::uint64_t seed, std::size_t threads) {
  if (workload == "miss-mix") return std::make_unique<MissStream>(seed, threads);
  if (workload == "reuse-mix") {
    return std::make_unique<ReuseStream>(seed, threads);
  }
  if (workload == "large-dag") {
    return std::make_unique<LargeStream>(seed, threads);
  }
  throw std::runtime_error("unknown workload: " + workload);
}

Sizes sizesOf(const std::string& workload) {
  // A fixed-rate reading of 1,000 dags or more has ten samples beyond p99.
  // miss-mix takes one reading of 1,500 (15 s at its rate); reuse-mix
  // takes the median of three of 3,000 (2 s each), which rides out a
  // second-long stall of the host. miss-mix warms with more dags than the
  // fingerprint cache holds (1,024), so it is full and evicting as in a
  // long-running server; reuse-mix warms until the pool is cached.
  // large-dag's closed loop is a fixed 150 dags (a p90 with ten samples
  // beyond it), because the server's caches keep every dag and peak memory
  // must compare across commits.
  if (workload == "miss-mix") return {1000, 1500, 1, 1100, 64};
  if (workload == "reuse-mix") return {3000, 3000, 3, 2000, 160};
  if (workload == "large-dag") return {150, 0, 0, 4, 12};
  throw std::runtime_error("unknown workload: " + workload);
}

std::size_t countDags(const std::vector<Request>& requests) {
  std::size_t n = 0;
  for (const Request& r : requests) n += r.items.size();
  return n;
}

}  // namespace perfbench
