// Old-vs-new differential for the DAGMan parser and writer.
//
// `old` below is the line-by-line std::getline/istringstream parser,
// its toDigraph/toPendingDigraph and its ostream writer as they stood
// before the single-pass scanner replaced them, rebuilt on plain
// structs. It is the only thing in the tree that pins those bytes:
// every other text check renders through the writer under test. The
// one addition: both sides keep a JOB line's DIR directory and NOOP
// flag and write them back, which the original parser and writer
// dropped.
//
// For every input, either both sides throw util::Error with the same
// message, or they agree on jobs, vars, dependencies, extra lines, the
// written bytes, the Digraph (names, children and parents order, arc
// count) and the pending digraph with its job_of_node map. The one
// intended difference: VARS values holding '"' or '\' are escaped by
// the new writer (the old one wrote bytes it could not read back), so
// for those inputs the new bytes must re-parse to the same file instead.
//
// Inputs are seeded dags from several families (workloads/random,
// workloads/pegasus, theory/blocks, scaled AIRSN/Inspiral/Montage/SDSS,
// one rescue dag) written in many surface forms, plus malformed
// variants, every prefix of a small file and random token soup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dag/algorithms.h"
#include "dag/digraph.h"
#include "dagman/dagman_file.h"
#include "stats/rng.h"
#include "theory/blocks.h"
#include "util/check.h"
#include "workloads/pegasus.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using namespace prio;
using dagman::DagmanFile;
using stats::Rng;

// ---------------------------------------------------------------------------
// The reference: the previous parser, graph builders and writer.

namespace old {

struct Job {
  std::string name;
  std::string submit_file;
  std::string dir;
  bool noop = false;
  bool done = false;
  std::vector<std::pair<std::string, std::string>> vars;

  void setVar(const std::string& key, const std::string& value) {
    for (auto& kv : vars) {
      if (kv.first == key) {
        kv.second = value;
        return;
      }
    }
    vars.emplace_back(key, value);
  }
};

struct File {
  std::vector<Job> jobs;
  std::map<std::string, std::size_t> job_index;
  std::vector<std::pair<std::string, std::string>> dependencies;
  std::vector<std::string> extra_lines;

  Job* findJob(const std::string& name) {
    auto it = job_index.find(name);
    return it == job_index.end() ? nullptr : &jobs[it->second];
  }
  Job& addJob(std::string name, std::string submit_file) {
    PRIO_CHECK_MSG(job_index.find(name) == job_index.end(),
                   "duplicate JOB " << name);
    job_index.emplace(name, jobs.size());
    Job job;
    job.name = std::move(name);
    job.submit_file = std::move(submit_file);
    jobs.push_back(std::move(job));
    return jobs.back();
  }
};

std::string toUpper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> splitWs(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> out;
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

std::vector<std::pair<std::string, std::string>> parseVarAssignments(
    const std::string& rest, std::size_t line_no) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  const auto fail = [&](const char* why) {
    PRIO_CHECK_MSG(false, "VARS line " << line_no << ": " << why);
  };
  while (i < rest.size()) {
    while (i < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[i]))) {
      ++i;
    }
    if (i >= rest.size()) break;
    const std::size_t key_start = i;
    while (i < rest.size() && rest[i] != '=' &&
           !std::isspace(static_cast<unsigned char>(rest[i]))) {
      ++i;
    }
    const std::string key = rest.substr(key_start, i - key_start);
    if (key.empty()) fail("empty macro name");
    while (i < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[i]))) {
      ++i;
    }
    if (i >= rest.size() || rest[i] != '=') fail("expected '='");
    ++i;
    while (i < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[i]))) {
      ++i;
    }
    if (i >= rest.size() || rest[i] != '"') fail("expected opening quote");
    ++i;
    std::string value;
    while (i < rest.size() && rest[i] != '"') {
      if (rest[i] == '\\' && i + 1 < rest.size()) ++i;  // escaped char
      value.push_back(rest[i]);
      ++i;
    }
    if (i >= rest.size()) fail("unterminated quoted value");
    ++i;  // closing quote
    out.emplace_back(key, value);
  }
  return out;
}

File parse(const std::string& text) {
  std::istringstream in(text);
  File out;
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::tuple<std::string, std::string, std::size_t>> deps;
  std::vector<std::tuple<std::string, std::string, std::string, std::size_t>>
      vars;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;

    std::istringstream is(stripped);
    std::string keyword;
    is >> keyword;
    const std::string upper = toUpper(keyword);

    if (upper == "JOB") {
      std::string name, file, flag;
      is >> name >> file;
      PRIO_CHECK_MSG(!name.empty() && !file.empty(),
                     "malformed JOB line " << line_no);
      Job& job = out.addJob(name, file);
      while (is >> flag) {
        if (toUpper(flag) == "DONE") job.done = true;
        if (toUpper(flag) == "NOOP") job.noop = true;
        if (toUpper(flag) == "DIR") {
          std::string dir;
          is >> dir;
          job.dir = dir;
        }
      }
    } else if (upper == "PARENT") {
      std::string rest;
      std::getline(is, rest);
      const auto tokens = splitWs(rest);
      const auto child_it =
          std::find_if(tokens.begin(), tokens.end(), [&](const auto& t) {
            return toUpper(t) == "CHILD";
          });
      PRIO_CHECK_MSG(child_it != tokens.end() && child_it != tokens.begin() &&
                         child_it + 1 != tokens.end(),
                     "malformed PARENT/CHILD line " << line_no);
      for (auto p = tokens.begin(); p != child_it; ++p) {
        for (auto c = child_it + 1; c != tokens.end(); ++c) {
          deps.emplace_back(*p, *c, line_no);
        }
      }
    } else if (upper == "VARS") {
      std::string job;
      is >> job;
      PRIO_CHECK_MSG(!job.empty(), "malformed VARS line " << line_no);
      std::string rest;
      std::getline(is, rest);
      for (auto& [k, v] : parseVarAssignments(rest, line_no)) {
        vars.emplace_back(job, k, v, line_no);
      }
    } else {
      out.extra_lines.push_back(stripped);
    }
  }

  for (const auto& [p, c, ln] : deps) {
    PRIO_CHECK_MSG(out.findJob(p) != nullptr,
                   "line " << ln << ": unknown parent job " << p);
    PRIO_CHECK_MSG(out.findJob(c) != nullptr,
                   "line " << ln << ": unknown child job " << c);
    out.dependencies.emplace_back(p, c);
  }
  for (const auto& [job, k, v, ln] : vars) {
    Job* j = out.findJob(job);
    PRIO_CHECK_MSG(j != nullptr, "line " << ln << ": VARS for unknown job "
                                         << job);
    j->setVar(k, v);
  }
  return out;
}

dag::Digraph toDigraph(const File& f) {
  dag::Digraph g;
  g.reserveNodes(f.jobs.size());
  for (const Job& job : f.jobs) g.addNode(job.name);
  for (const auto& [p, c] : f.dependencies) {
    g.addEdge(*g.findNode(p), *g.findNode(c));
  }
  PRIO_CHECK_MSG(dag::isAcyclic(g),
                 "DAGMan dependencies contain a directed cycle");
  return g;
}

dag::Digraph toPendingDigraph(const File& f,
                              std::vector<std::size_t>* job_of_node) {
  dag::Digraph g;
  job_of_node->clear();
  for (std::size_t i = 0; i < f.jobs.size(); ++i) {
    if (f.jobs[i].done) continue;
    g.addNode(f.jobs[i].name);
    job_of_node->push_back(i);
  }
  for (const auto& [p, c] : f.dependencies) {
    const auto pn = g.findNode(p);
    const auto cn = g.findNode(c);
    if (pn.has_value() && cn.has_value()) g.addEdge(*pn, *cn);
  }
  PRIO_CHECK_MSG(dag::isAcyclic(g),
                 "DAGMan dependencies contain a directed cycle");
  return g;
}

std::string write(const File& f) {
  std::ostringstream out;
  for (const Job& job : f.jobs) {
    out << "Job " << job.name << ' ' << job.submit_file;
    if (!job.dir.empty()) out << " DIR " << job.dir;
    if (job.noop) out << " NOOP";
    if (job.done) out << " DONE";
    out << '\n';
  }
  for (const Job& job : f.jobs) {
    for (const auto& [k, v] : job.vars) {
      out << "Vars " << job.name << ' ' << k << "=\"" << v << "\"\n";
    }
  }
  for (const auto& [p, c] : f.dependencies) {
    out << "PARENT " << p << " CHILD " << c << '\n';
  }
  for (const std::string& extra : f.extra_lines) out << extra << '\n';
  return std::move(out).str();
}

}  // namespace old

// ---------------------------------------------------------------------------
// Comparison.

/// The message of a util::Error without the "prio check failed: <expr>
/// at <file>:<line> — " prefix, which names the throwing source line.
std::string messageOf(const util::Error& e) {
  const std::string what = e.what();
  const std::string sep = " \xE2\x80\x94 ";  // " — "
  const std::size_t at = what.find(sep);
  return at == std::string::npos ? what : what.substr(at + sep.size());
}

template <typename Fn>
std::optional<std::string> errorOf(Fn&& fn) {
  try {
    fn();
  } catch (const util::Error& e) {
    return messageOf(e);
  }
  return std::nullopt;
}

void expectSameGraph(const dag::Digraph& a, const dag::Digraph& b) {
  ASSERT_EQ(a.numNodes(), b.numNodes());
  EXPECT_EQ(a.numEdges(), b.numEdges());
  for (dag::NodeId u = 0; u < a.numNodes(); ++u) {
    EXPECT_EQ(a.name(u), b.name(u));
    EXPECT_TRUE(std::ranges::equal(a.children(u), b.children(u)))
        << "children of " << a.name(u);
    EXPECT_TRUE(std::ranges::equal(a.parents(u), b.parents(u)))
        << "parents of " << a.name(u);
  }
}

bool valuesNeedEscaping(const old::File& f) {
  for (const old::Job& job : f.jobs) {
    for (const auto& kv : job.vars) {
      if (kv.second.find_first_of("\"\\") != std::string::npos) return true;
    }
  }
  return false;
}

void expectSameFile(const old::File& ref, const DagmanFile& got) {
  ASSERT_EQ(got.jobs().size(), ref.jobs.size());
  for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
    EXPECT_EQ(got.jobs()[i].name, ref.jobs[i].name);
    EXPECT_EQ(got.jobs()[i].submit_file, ref.jobs[i].submit_file);
    EXPECT_EQ(got.jobs()[i].dir, ref.jobs[i].dir);
    EXPECT_EQ(got.jobs()[i].noop, ref.jobs[i].noop);
    EXPECT_EQ(got.jobs()[i].done, ref.jobs[i].done);
    EXPECT_EQ(got.jobs()[i].vars, ref.jobs[i].vars);
  }
  ASSERT_EQ(got.dependencies().size(), ref.dependencies.size());
  for (std::size_t i = 0; i < ref.dependencies.size(); ++i) {
    const dagman::Dependency d = got.dependencies()[i];
    EXPECT_EQ(got.jobs()[d.parent].name, ref.dependencies[i].first);
    EXPECT_EQ(got.jobs()[d.child].name, ref.dependencies[i].second);
  }
  EXPECT_EQ(got.extraLines(), ref.extra_lines);
}

/// Checks the new parser against the old one on `text`. Returns whether
/// the input parsed (so callers can count how much of a corpus did).
bool expectSameAnswers(const std::string& text) {
  SCOPED_TRACE(::testing::Message() << "input (" << text.size()
                                    << " bytes):\n" << text.substr(0, 400));
  old::File ref;
  const auto ref_err = errorOf([&] { ref = old::parse(text); });
  DagmanFile got;
  const auto got_err = errorOf([&] { got = DagmanFile::parse(text); });
  EXPECT_EQ(got_err, ref_err);
  if (ref_err.has_value() || got_err.has_value()) return false;

  expectSameFile(ref, got);
  {
    std::istringstream in(text);  // the istream adapter agrees too
    expectSameFile(ref, DagmanFile::parse(in));
  }

  const std::string bytes = got.render();
  std::ostringstream streamed;
  got.write(streamed);
  EXPECT_EQ(streamed.str(), bytes);
  if (!valuesNeedEscaping(ref)) {
    EXPECT_EQ(bytes, old::write(ref));
  } else {
    // The old writer emitted these unescaped; the new bytes must at
    // least read back as the same file.
    expectSameFile(ref, DagmanFile::parse(bytes));
  }

  dag::Digraph ref_g;
  dag::Digraph got_g;
  const auto ref_g_err = errorOf([&] { ref_g = old::toDigraph(ref); });
  const auto got_g_err = errorOf([&] { got_g = got.toDigraph(); });
  EXPECT_EQ(got_g_err, ref_g_err);
  if (!ref_g_err.has_value() && !got_g_err.has_value()) {
    expectSameGraph(ref_g, got_g);
  }

  std::vector<std::size_t> ref_map;
  std::vector<std::size_t> got_map;
  const auto ref_p_err =
      errorOf([&] { ref_g = old::toPendingDigraph(ref, &ref_map); });
  const auto got_p_err =
      errorOf([&] { got_g = got.toPendingDigraph(&got_map); });
  EXPECT_EQ(got_p_err, ref_p_err);
  if (!ref_p_err.has_value() && !got_p_err.has_value()) {
    expectSameGraph(ref_g, got_g);
    EXPECT_EQ(got_map, ref_map);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Inputs.

struct Case {
  std::string name;
  dag::Digraph g;
  std::size_t done = 0;  ///< jobs [0, done) are marked DONE
};

std::vector<Case> corpus() {
  std::vector<Case> cases;
  Rng rng(20061009);
  cases.push_back({"layered", workloads::layeredRandom(6, 10, 0.2, rng)});
  cases.push_back({"erdos-renyi", workloads::randomDag(60, 0.15, rng)});
  cases.push_back({"composable", workloads::randomComposable(20, rng)});
  cases.push_back({"cybershake", workloads::makeCybershake({2, 5})});
  cases.push_back({"epigenomics", workloads::makeEpigenomics({2, 3})});
  cases.push_back({"block-W", theory::makeW(3, 4)});
  cases.push_back({"block-M", theory::makeM(4, 3)});
  cases.push_back({"block-N", theory::makeN(5)});
  cases.push_back({"block-cycle", theory::makeCycleDag(4)});
  cases.push_back({"block-clique", theory::makeCliqueDag(4)});
  cases.push_back({"airsn", workloads::makeAirsn({10, 4})});
  cases.push_back({"inspiral", workloads::makeInspiral({3, 4})});
  cases.push_back({"montage", workloads::makeMontage({3, 5, 3})});
  cases.push_back({"sdss", workloads::makeSdss({12, 4, 2, 10})});
  cases.push_back(
      {"rescue", workloads::layeredRandom(4, 8, 0.25, rng), /*done=*/8});
  return cases;
}

/// Knobs for writing a dag in one DAGMan surface form. Every knob keeps
/// the text valid; the malformed variants come from `breakText`.
struct Style {
  bool crlf = false;
  bool odd_blanks = false;     ///< tabs, \v, \f, leading/trailing blanks
  bool comments = false;
  bool mixed_case = false;     ///< keyword and DONE spelling
  bool job_flags = false;      ///< unknown JOB options around DONE
  bool extras = false;         ///< RETRY, SCRIPT, PRIORITY lines
  bool shuffle = false;        ///< forward references: lines in any order
  bool group_arcs = false;     ///< multi-parent and multi-child lines
  bool duplicate_arcs = false;
  bool vars = false;           ///< VARS before/after JOB, repeated keys
  bool escaped_values = false; ///< VARS values holding '"' and '\'
  bool odd_names = false;      ///< CHILD/PARENT/JOB names, bytes >= 0x80, NUL
  bool final_newline = true;
};

Style randomStyle(Rng& rng) {
  const auto coin = [&] { return rng.below(2) == 0; };
  Style s;
  s.crlf = coin();
  s.odd_blanks = coin();
  s.comments = coin();
  s.mixed_case = coin();
  s.job_flags = coin();
  s.extras = coin();
  s.shuffle = coin();
  s.group_arcs = coin();
  s.duplicate_arcs = coin();
  s.vars = coin();
  s.escaped_values = rng.below(4) == 0;
  s.odd_names = rng.below(3) == 0;
  s.final_newline = rng.below(4) != 0;
  return s;
}

std::string spell(const std::string& upper, bool mixed, Rng& rng) {
  if (!mixed) return upper;
  std::string out = upper;
  for (char& c : out) {
    if (rng.below(2) == 0) c = static_cast<char>(std::tolower(c));
  }
  return out;
}

std::string blank(const Style& s, Rng& rng) {
  if (!s.odd_blanks) return " ";
  static const char* kBlanks[] = {" ", "\t", "  ", " \t ", "\v", "\f",
                                  "\t\t", " \r "};
  return kBlanks[rng.below(sizeof(kBlanks) / sizeof(kBlanks[0]))];
}

std::string jobName(const Case& c, dag::NodeId u, const Style& s,
                    const std::vector<dag::NodeId>& sinks) {
  if (s.odd_names) {
    // The last sink is named CHILD, the first sink "child": a PARENT line
    // may list them after its CHILD keyword.
    if (u == sinks.back()) return "CHILD";
    if (u == sinks.front()) return "child";
    switch (u % 7) {
      case 1: return "Parent" + std::to_string(u);
      case 2: return "JOB" + std::string(u == 2 ? "" : std::to_string(u));
      case 3: return "j\xC3\xA9" + std::to_string(u);  // UTF-8 bytes
      case 4: return std::string("n\0ul", 4) + std::to_string(u);
      case 5: return "\xFF" + std::to_string(u);
      default: break;
    }
  }
  return c.g.name(u);
}

std::string quotedValue(const std::string& value) {
  std::string out = "\"";
  for (const char ch : value) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

/// Writes `c` as DAGMan text in style `s` (the line order, spacing and
/// spelling vary; the dag does not, except for duplicated arcs).
std::string dagText(const Case& c, const Style& s, Rng& rng) {
  const std::size_t n = c.g.numNodes();
  const std::vector<dag::NodeId> sinks = c.g.sinks();
  std::vector<std::string> names(n);
  for (dag::NodeId u = 0; u < n; ++u) names[u] = jobName(c, u, s, sinks);
  const auto b = [&] { return blank(s, rng); };
  const auto kw = [&](const char* word) {
    return spell(word, s.mixed_case, rng);
  };

  std::vector<std::string> lines;
  for (dag::NodeId u = 0; u < n; ++u) {
    std::string line = kw("JOB") + b() + names[u] + b() + "job" +
                       std::to_string(u % 3) + ".sub";
    if (s.job_flags && rng.below(3) == 0) line += b() + "DIR" + b() + "d";
    if (u < c.done) line += b() + spell("DONE", s.mixed_case, rng);
    if (s.job_flags && rng.below(3) == 0) line += b() + "NOOP";
    lines.push_back(std::move(line));
  }

  std::vector<std::pair<dag::NodeId, dag::NodeId>> arcs;
  for (dag::NodeId u = 0; u < n; ++u) {
    for (const dag::NodeId v : c.g.children(u)) arcs.emplace_back(u, v);
  }
  if (s.duplicate_arcs && !arcs.empty()) {
    for (int k = 0; k < 4; ++k) arcs.push_back(arcs[rng.below(arcs.size())]);
  }
  if (s.group_arcs) {
    // Group by child: "PARENT p1 p2 ... CHILD v"; every third group also
    // takes the next child, which adds arcs only where they exist.
    std::map<dag::NodeId, std::vector<dag::NodeId>> by_child;
    for (const auto& [u, v] : arcs) by_child[v].push_back(u);
    for (const auto& [v, ps] : by_child) {
      std::string line = kw("PARENT");
      for (const dag::NodeId p : ps) line += b() + names[p];
      line += b() + kw("CHILD") + b() + names[v];
      lines.push_back(std::move(line));
    }
    for (dag::NodeId u = 0; u < n; ++u) {
      const auto kids = c.g.children(u);
      if (kids.size() < 2) continue;
      std::string line = kw("PARENT") + b() + names[u] + b() + kw("CHILD");
      for (const dag::NodeId v : kids) line += b() + names[v];
      lines.push_back(std::move(line));
    }
  } else {
    for (const auto& [u, v] : arcs) {
      lines.push_back(kw("PARENT") + b() + names[u] + b() + kw("CHILD") +
                      b() + names[v]);
    }
  }

  if (s.vars) {
    for (dag::NodeId u = 0; u < n; u += 1 + rng.below(3)) {
      std::string line = kw("VARS") + b() + names[u];
      const std::size_t count = 1 + rng.below(3);
      for (std::size_t k = 0; k < count; ++k) {
        std::string value = std::to_string(rng.below(50));
        value += " with spaces";
        if (s.escaped_values && rng.below(2) == 0) {
          value += rng.below(2) == 0 ? "\"q\"" : "c:\\\\dir\\";
        }
        line += b() + "key" + std::to_string(rng.below(3)) + "=" +
                quotedValue(value);
      }
      lines.push_back(std::move(line));
    }
  }
  if (s.extras) {
    lines.push_back("RETRY" + b() + names[0] + b() + "3");
    lines.push_back("SCRIPT PRE " + names[n - 1] + b() + "pre.sh  arg");
    lines.push_back(spell("PRIORITY", s.mixed_case, rng) + b() + names[0] +
                    " 5");
  }
  if (s.shuffle) {
    for (std::size_t i = lines.size(); i > 1; --i) {
      std::swap(lines[i - 1], lines[rng.below(i)]);
    }
  }

  std::string text;
  const std::string eol = s.crlf ? "\r\n" : "\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (s.comments && rng.below(5) == 0) {
      text += (rng.below(2) == 0 ? "# comment" : "  #indented") + eol;
    }
    if (s.odd_blanks && rng.below(4) == 0) text += b() + eol;  // blank line
    if (s.odd_blanks && rng.below(3) == 0) text += b();
    text += lines[i];
    if (s.odd_blanks && rng.below(3) == 0) text += b();
    if (i + 1 < lines.size() || s.final_newline) text += eol;
  }
  return text;
}

/// One malformed or semantically broken variant of a valid text.
std::string breakText(const std::string& text, Rng& rng) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.empty()) return text;
  const std::size_t at = rng.below(lines.size());
  switch (rng.below(9)) {
    case 0:  // drop a line: may leave an arc or VARS naming no job
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:  // repeat a line: a JOB line becomes a duplicate JOB
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      break;
    case 2:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   "PARENT ghost CHILD " + std::string("ghost2"));
      break;
    case 3:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   "VARS ghost key=\"v\"");
      break;
    case 4:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   "JOB lonely");
      break;
    case 5:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   "PARENT a b CHILD");
      break;
    case 6:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   "VARS x key=unquoted");
      break;
    case 7: {  // a back arc: a cycle (or a self-loop) between real jobs
      std::vector<std::string> jobs;
      for (const std::string& line : lines) {
        std::istringstream is(line);
        std::string kw, name;
        is >> kw >> name;
        if (old::toUpper(kw) == "JOB" && !name.empty()) jobs.push_back(name);
      }
      if (jobs.empty()) break;
      const std::string& a = jobs[rng.below(jobs.size())];
      const std::string& z = jobs[rng.below(jobs.size())];
      lines.push_back("PARENT " + z + " CHILD " + a);
      lines.push_back("PARENT " + a + " CHILD " + z);
      break;
    }
    default:  // truncate mid-line
      if (!lines[at].empty()) lines[at].resize(rng.below(lines[at].size()));
      break;
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// ParserFuzz's token soup.
std::string tokenSoup(Rng& rng) {
  static const char* kTokens[] = {
      "JOB",  "PARENT", "CHILD", "VARS", "DONE",  "RETRY",
      "a",    "b",      "job1",  "x.sub", "=",    "\"v\"",
      "key=", "#",      "",      "  ",    "\\",   "\"",
      "DIR",  "NOOP",
  };
  std::string out;
  const std::size_t lines = 1 + rng.below(8);
  for (std::size_t l = 0; l < lines; ++l) {
    const std::size_t tokens = rng.below(6);
    for (std::size_t t = 0; t < tokens; ++t) {
      out += kTokens[rng.below(sizeof(kTokens) / sizeof(kTokens[0]))];
      out += ' ';
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------

TEST(DagmanDifferential, PlainFormOfEveryFamily) {
  Rng rng(1);
  for (const Case& c : corpus()) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(expectSameAnswers(dagText(c, Style{}, rng)));
  }
}

TEST(DagmanDifferential, PaperScaleInspiralAndMontage) {
  Rng rng(5);
  const Case cases[] = {{"inspiral", workloads::makeInspiral()},
                        {"montage", workloads::makeMontage()}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Style s = randomStyle(rng);
    s.vars = s.duplicate_arcs = s.shuffle = true;
    EXPECT_TRUE(expectSameAnswers(dagText(c, s, rng)));
  }
}

TEST(DagmanDifferential, SeededSurfaceForms) {
  Rng rng(2);
  const std::vector<Case> cases = corpus();
  for (int round = 0; round < 12; ++round) {
    for (const Case& c : cases) {
      const Style s = randomStyle(rng);
      SCOPED_TRACE(::testing::Message() << c.name << " round " << round);
      EXPECT_TRUE(expectSameAnswers(dagText(c, s, rng)));
    }
  }
}

TEST(DagmanDifferential, EveryStyleKnobAlone) {
  Rng rng(3);
  const Case c{"layered", workloads::layeredRandom(4, 5, 0.3, rng), 3};
  for (int knob = 0; knob < 13; ++knob) {
    Style s;
    switch (knob) {
      case 0: s.crlf = true; break;
      case 1: s.odd_blanks = true; break;
      case 2: s.comments = true; break;
      case 3: s.mixed_case = true; break;
      case 4: s.job_flags = true; break;
      case 5: s.extras = true; break;
      case 6: s.shuffle = true; break;
      case 7: s.group_arcs = true; break;
      case 8: s.duplicate_arcs = true; break;
      case 9: s.vars = true; break;
      case 10: s.vars = s.escaped_values = true; break;
      case 11: s.odd_names = true; break;
      default: s.final_newline = false; break;
    }
    SCOPED_TRACE(::testing::Message() << "knob " << knob);
    EXPECT_TRUE(expectSameAnswers(dagText(c, s, rng)));
  }
}

TEST(DagmanDifferential, BrokenVariantsFailAlike) {
  Rng rng(4);
  const std::vector<Case> cases = corpus();
  int parsed = 0;
  int total = 0;
  for (int round = 0; round < 20; ++round) {
    for (const Case& c : cases) {
      const std::string text =
          breakText(dagText(c, randomStyle(rng), rng), rng);
      parsed += expectSameAnswers(text) ? 1 : 0;
      ++total;
    }
  }
  // Both outcomes must be exercised for the comparison to mean anything.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, total);
}

TEST(DagmanDifferential, EveryPrefixOfASmallFile) {
  const std::string text =
      "# a small rescue dag\r\n"
      "JOB  a a.sub DONE\n"
      "job\tb b.sub dir /tmp\n"
      "PARENT a b CHILD c CHILD\n"
      "Job c c.sub\x0b\n"
      "Job CHILD x.sub done\n"
      "VARS c k1=\"x y\" k2=\"q\\\"\" k1=\"z\"\n"
      "VARS a jobpriority=\"7\"\n"
      "RETRY c 3\n"
      "SCRIPT POST c post.sh $RETURN\n"
      "PRIORITY b 10\n"
      "parent c child d\f\n"
      "JOB d d.sub\n"
      "PARENT d CHILD CHILD\n"
      "VARS ghost\n"
      "\xC3\xA9t\xC3\xA9 unknown line\n"
      "PARENT a CHILD b b b\n"
      "JOB \xFFx y.sub\n";
  int parsed = 0;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    parsed += expectSameAnswers(text.substr(0, len)) ? 1 : 0;
  }
  EXPECT_GT(parsed, 10);
}

TEST(DagmanDifferential, NulAndHighBytes) {
  using namespace std::string_literals;
  const std::string cases[] = {
      "JOB a\0b x.sub\nJOB c y.sub\nPARENT a\0b CHILD c\n"s,
      "JOB a x.sub\n\0\nJOB b y.sub\n"s,
      "JOB \x80 x.sub\nJOB \xA0 y.sub\nPARENT \x80 CHILD \xA0\n"s,
      "\0JOB a x.sub\n"s,
      "JOB a x.sub\nJOB b x.sub\nPARENT a CHILD b"s,  // no final newline
      "\n\n\nJOB a x.sub\r\r\n"s,
  };
  for (const std::string& text : cases) expectSameAnswers(text);
}

TEST(DagmanDifferential, TokenSoup) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) expectSameAnswers(tokenSoup(rng));
  }
}

TEST(DagmanDifferential, ErrorPrecedence) {
  // Malformed line before an unknown job, unknown parent before unknown
  // child, arcs before VARS, VARS before graph errors.
  const char* cases[] = {
      "PARENT x CHILD y\nJOB a\n",
      "PARENT x CHILD y\nJOB a a.sub\nJOB a b.sub\n",
      "PARENT x y CHILD a z\nJOB a a.sub\n",
      "PARENT a CHILD z\nPARENT x CHILD a\nJOB a a.sub\n",
      "VARS ghost k=\"v\"\nPARENT a CHILD ghost\nJOB a a.sub\n",
      "JOB a a.sub\nVARS ghost k=\"v\"\nPARENT a CHILD a\n",
      "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT b CHILD a\n"
      "PARENT b CHILD b\n",
      "JOB a a.sub DONE\nJOB b b.sub\nPARENT a CHILD a\nPARENT b CHILD a\n",
  };
  for (const char* text : cases) expectSameAnswers(text);
}

}  // namespace
