#include "dagman/dagman_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "dag/csr.h"
#include "util/atomic_file.h"
#include "util/check.h"

namespace prio::dagman {

namespace {

constexpr std::uint32_t kUnbound = 0xffffffffu;

/// isspace() in the C locale: ' ', \t, \n, \v, \f and \r.
constexpr bool isBlank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && isBlank(s.front())) s.remove_prefix(1);
  while (!s.empty() && isBlank(s.back())) s.remove_suffix(1);
  return s;
}

/// Pops the next blank-separated token off `rest`; empty when none is
/// left.
std::string_view nextToken(std::string_view& rest) {
  std::size_t b = 0;
  while (b < rest.size() && isBlank(rest[b])) ++b;
  std::size_t e = b;
  while (e < rest.size() && !isBlank(rest[e])) ++e;
  const std::string_view token = rest.substr(b, e - b);
  rest.remove_prefix(e);
  return token;
}

/// ASCII case-insensitive match against an upper-case, letters-only
/// keyword. Clearing bit 5 maps exactly 'a'-'z' onto 'A'-'Z' among the
/// bytes that can equal a letter.
bool isKeyword(std::string_view token, std::string_view upper) {
  if (token.size() != upper.size()) return false;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if ((token[i] & ~0x20) != upper[i]) return false;
  }
  return true;
}

// Parses the `key="value"` assignments of a VARS line (value may contain
// spaces; quotes are required, matching DAGMan syntax; a backslash takes
// the next byte literally).
std::vector<std::pair<std::string, std::string>> parseVarAssignments(
    std::string_view rest, std::size_t line_no) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  const auto fail = [&](const char* why) {
    PRIO_CHECK_MSG(false, "VARS line " << line_no << ": " << why);
  };
  const auto skipBlanks = [&] {
    while (i < rest.size() && isBlank(rest[i])) ++i;
  };
  while (i < rest.size()) {
    skipBlanks();
    if (i >= rest.size()) break;
    const std::size_t key_start = i;
    while (i < rest.size() && rest[i] != '=' && !isBlank(rest[i])) ++i;
    const std::string_view key = rest.substr(key_start, i - key_start);
    if (key.empty()) fail("empty macro name");
    skipBlanks();
    if (i >= rest.size() || rest[i] != '=') fail("expected '='");
    ++i;
    skipBlanks();
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
    out.emplace_back(key, std::move(value));
  }
  return out;
}

/// The parse's one name table. Each distinct name (a view into the
/// text) gets a symbol on first mention; the JOB line naming it binds
/// the symbol to that job's index.
struct Symbols {
  std::unordered_map<std::string_view, std::uint32_t> id;
  std::vector<std::string_view> name;
  std::vector<std::uint32_t> job;  ///< kUnbound until its JOB line

  std::uint32_t intern(std::string_view s) {
    const auto [it, fresh] =
        id.try_emplace(s, static_cast<std::uint32_t>(name.size()));
    if (fresh) {
      name.push_back(s);
      job.push_back(kUnbound);
    }
    return it->second;
  }
};

/// One PARENT/CHILD line: parents are arc_syms[begin, split), children
/// arc_syms[split, end).
struct ArcLine {
  std::size_t line_no;
  std::size_t begin;
  std::size_t split;
  std::size_t end;
};

struct PendingVar {
  std::uint32_t sym;
  std::size_t line_no;
  std::string key;
  std::string value;
};

/// The Digraph over `names` with `arcs` (node ids) added in order, as
/// an addNode/addEdge loop would build it: the first self-loop throws,
/// a repeated arc keeps its first position, and children[u] and
/// parents[v] list arcs in declaration order. Built straight into the
/// arrays Digraph::fromAdjacency() adopts.
dag::Digraph buildDigraph(std::vector<std::string> names,
                          const std::vector<Dependency>& arcs) {
  const std::size_t n = names.size();
  std::vector<std::uint32_t> out_deg(n, 0);
  std::vector<std::uint32_t> in_deg(n, 0);
  for (const Dependency& a : arcs) {
    PRIO_CHECK_MSG(a.parent != a.child,
                   "self-loop on node " << names[a.parent]);
    ++out_deg[a.parent];
    ++in_deg[a.child];
  }
  std::vector<std::vector<dag::NodeId>> children(n);
  std::vector<std::vector<dag::NodeId>> parents(n);
  for (std::size_t u = 0; u < n; ++u) {
    children[u].reserve(out_deg[u]);
    parents[u].reserve(in_deg[u]);
  }
  for (const Dependency& a : arcs) {
    children[a.parent].push_back(a.child);
    parents[a.child].push_back(a.parent);
  }
  // A list that holds an arc twice holds its first occurrence first, so
  // keeping the first copy of each id keeps declaration order.
  std::vector<std::size_t> seen(n, 0);
  std::size_t stamp = 0;
  std::size_t num_edges = 0;
  const auto dropRepeats = [&](std::vector<dag::NodeId>& list) {
    if (list.size() < 2) return;
    ++stamp;
    std::size_t kept = 0;
    for (const dag::NodeId v : list) {
      if (seen[v] != stamp) {
        seen[v] = stamp;
        list[kept++] = v;
      }
    }
    list.resize(kept);
  };
  for (auto& list : children) {
    dropRepeats(list);
    num_edges += list.size();
  }
  for (auto& list : parents) dropRepeats(list);
  PRIO_CHECK_MSG(dag::isAcyclicAdjacency(children, parents),
                 "DAGMan dependencies contain a directed cycle");
  return dag::Digraph::fromAdjacency(std::move(names), std::move(children),
                                     std::move(parents), num_edges);
}

/// Appends a VARS value with '"' and '\' backslash-escaped, which the
/// parser's unescaping reads back unchanged.
void appendEscaped(std::string& out, std::string_view value) {
  for (std::size_t at; (at = value.find_first_of("\"\\")) !=
                       std::string_view::npos;) {
    out.append(value.substr(0, at));
    out.push_back('\\');
    out.push_back(value[at]);
    value.remove_prefix(at + 1);
  }
  out.append(value);
}

/// Reads what is left of `in` through its buffer: one read when the
/// buffer knows how much is there (a string stream, a regular file),
/// growing chunks otherwise.
std::string readAll(std::istream& in) {
  std::string text;
  std::streamsize chunk = 1 << 16;
  if (in.rdbuf() != nullptr) {
    chunk = std::max(chunk, in.rdbuf()->in_avail() + 1);
  }
  while (in) {
    const std::size_t got = text.size();
    text.resize(got + static_cast<std::size_t>(chunk));
    in.read(text.data() + got, chunk);
    text.resize(got + static_cast<std::size_t>(in.gcount()));
    chunk = static_cast<std::streamsize>(text.size()) + 1;
  }
  return text;
}

}  // namespace

std::optional<std::string> DagmanJob::var(const std::string& key) const {
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    if (it->first == key) return it->second;
  }
  return std::nullopt;
}

void DagmanJob::setVar(std::string_view key, std::string value) {
  for (auto& kv : vars) {
    if (kv.first == key) {
      kv.second = std::move(value);
      return;
    }
  }
  vars.emplace_back(key, std::move(value));
}

DagmanFile DagmanFile::parse(std::string_view text) {
  DagmanFile out;
  Symbols symbols;
  // PARENT/CHILD and VARS lines may name jobs declared later, so they
  // resolve after the scan.
  std::vector<std::uint32_t> arc_syms;
  std::vector<ArcLine> arc_lines;
  std::vector<PendingVar> vars;

  const char* p = text.data();
  const char* const end = p + text.size();
  std::size_t line_no = 0;
  while (p != end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const stop = nl != nullptr ? nl : end;
    ++line_no;
    const std::string_view line =
        trimmed({p, static_cast<std::size_t>(stop - p)});
    p = nl != nullptr ? nl + 1 : end;
    if (line.empty() || line.front() == '#') continue;

    std::string_view rest = line;
    const std::string_view keyword = nextToken(rest);
    if (isKeyword(keyword, "JOB")) {
      const std::string_view name = nextToken(rest);
      const std::string_view submit = nextToken(rest);
      PRIO_CHECK_MSG(!submit.empty(), "malformed JOB line " << line_no);
      const std::uint32_t sym = symbols.intern(name);
      PRIO_CHECK_MSG(symbols.job[sym] == kUnbound, "duplicate JOB " << name);
      PRIO_CHECK_MSG(out.jobs_.size() < kUnbound, "too many jobs");
      symbols.job[sym] = static_cast<std::uint32_t>(out.jobs_.size());
      DagmanJob& job = out.jobs_.emplace_back();
      job.name = name;
      job.submit_file = submit;
      // DIR takes the next token as its directory (none when the line
      // ends); any other option is dropped.
      for (std::string_view flag = nextToken(rest); !flag.empty();
           flag = nextToken(rest)) {
        if (isKeyword(flag, "DONE")) {
          job.done = true;
        } else if (isKeyword(flag, "NOOP")) {
          job.noop = true;
        } else if (isKeyword(flag, "DIR")) {
          job.dir = nextToken(rest);
        }
      }
    } else if (isKeyword(keyword, "PARENT")) {
      ArcLine arcs{line_no, arc_syms.size(), 0, 0};
      bool split = false;
      for (std::string_view tok = nextToken(rest); !tok.empty();
           tok = nextToken(rest)) {
        if (!split && isKeyword(tok, "CHILD")) {
          split = true;
          arcs.split = arc_syms.size();
        } else {
          arc_syms.push_back(symbols.intern(tok));
        }
      }
      arcs.end = arc_syms.size();
      PRIO_CHECK_MSG(
          split && arcs.begin != arcs.split && arcs.split != arcs.end,
          "malformed PARENT/CHILD line " << line_no);
      arc_lines.push_back(arcs);
    } else if (isKeyword(keyword, "VARS")) {
      const std::string_view job = nextToken(rest);
      PRIO_CHECK_MSG(!job.empty(), "malformed VARS line " << line_no);
      const std::uint32_t sym = symbols.intern(job);
      for (auto& [k, v] : parseVarAssignments(rest, line_no)) {
        vars.push_back({sym, line_no, std::move(k), std::move(v)});
      }
    } else {
      out.extra_lines_.emplace_back(line);
    }
  }

  std::size_t num_arcs = 0;
  for (const ArcLine& l : arc_lines) {
    num_arcs += (l.split - l.begin) * (l.end - l.split);
  }
  out.dependencies_.reserve(num_arcs);
  for (const ArcLine& l : arc_lines) {
    for (std::size_t i = l.begin; i != l.split; ++i) {
      for (std::size_t j = l.split; j != l.end; ++j) {
        const std::uint32_t parent = symbols.job[arc_syms[i]];
        PRIO_CHECK_MSG(parent != kUnbound,
                       "line " << l.line_no << ": unknown parent job "
                               << symbols.name[arc_syms[i]]);
        const std::uint32_t child = symbols.job[arc_syms[j]];
        PRIO_CHECK_MSG(child != kUnbound,
                       "line " << l.line_no << ": unknown child job "
                               << symbols.name[arc_syms[j]]);
        out.dependencies_.push_back({parent, child});
      }
    }
  }
  for (PendingVar& v : vars) {
    const std::uint32_t job = symbols.job[v.sym];
    PRIO_CHECK_MSG(job != kUnbound, "line " << v.line_no
                                            << ": VARS for unknown job "
                                            << symbols.name[v.sym]);
    out.jobs_[job].setVar(v.key, std::move(v.value));
  }
  return out;
}

DagmanFile DagmanFile::parse(std::istream& in) {
  const std::string text = readAll(in);
  return parse(std::string_view(text));
}

DagmanFile DagmanFile::parseFile(const std::string& path) {
  // A directory (or other non-regular file) "opens" successfully on
  // Linux and then reads as empty without ever setting badbit — which
  // used to parse as a valid zero-job dag and report success.
  std::error_code ec;
  const auto status = std::filesystem::status(path, ec);
  PRIO_CHECK_MSG(!ec && std::filesystem::is_regular_file(status),
                 "not a regular DAGMan file: " << path);
  std::ifstream in(path, std::ios::binary);
  PRIO_CHECK_MSG(in.good(), "cannot open DAGMan file " << path);
  const std::string text = readAll(in);
  PRIO_CHECK_MSG(!in.bad(), "I/O error while reading DAGMan file " << path);
  return parse(std::string_view(text));
}

void DagmanFile::indexJobs() {
  if (index_.size() == jobs_.size()) return;
  index_.clear();
  index_.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    index_.emplace(jobs_[i].name, static_cast<std::uint32_t>(i));
  }
}

DagmanJob& DagmanFile::addJob(std::string name, std::string submit_file) {
  indexJobs();
  PRIO_CHECK_MSG(jobs_.size() < kUnbound, "too many jobs");
  PRIO_CHECK_MSG(
      index_.try_emplace(name, static_cast<std::uint32_t>(jobs_.size()))
          .second,
      "duplicate JOB " << name);
  DagmanJob& job = jobs_.emplace_back();
  job.name = std::move(name);
  job.submit_file = std::move(submit_file);
  return job;
}

void DagmanFile::addDependency(const std::string& parent,
                               const std::string& child) {
  indexJobs();
  const auto p = index_.find(parent);
  PRIO_CHECK_MSG(p != index_.end(), "unknown parent " << parent);
  const auto c = index_.find(child);
  PRIO_CHECK_MSG(c != index_.end(), "unknown child " << child);
  dependencies_.push_back({p->second, c->second});
}

DagmanJob* DagmanFile::findJob(const std::string& name) {
  indexJobs();
  return const_cast<DagmanJob*>(std::as_const(*this).findJob(name));
}

const DagmanJob* DagmanFile::findJob(const std::string& name) const {
  if (index_.size() == jobs_.size()) {
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : &jobs_[it->second];
  }
  const auto it =
      std::find_if(jobs_.begin(), jobs_.end(),
                   [&](const DagmanJob& j) { return j.name == name; });
  return it == jobs_.end() ? nullptr : &*it;
}

dag::Digraph DagmanFile::toDigraph() const {
  std::vector<std::string> names;
  names.reserve(jobs_.size());
  for (const DagmanJob& job : jobs_) names.push_back(job.name);
  return buildDigraph(std::move(names), dependencies_);
}

dag::Digraph DagmanFile::toPendingDigraph(
    std::vector<std::size_t>* job_of_node) const {
  if (job_of_node != nullptr) job_of_node->clear();
  std::vector<std::uint32_t> node_of(jobs_.size(), kUnbound);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].done) continue;
    node_of[i] = static_cast<std::uint32_t>(names.size());
    names.push_back(jobs_[i].name);
    if (job_of_node != nullptr) job_of_node->push_back(i);
  }
  std::vector<Dependency> arcs;
  arcs.reserve(dependencies_.size());
  for (const Dependency& d : dependencies_) {
    if (node_of[d.parent] != kUnbound && node_of[d.child] != kUnbound) {
      arcs.push_back({node_of[d.parent], node_of[d.child]});
    }
  }
  return buildDigraph(std::move(names), arcs);
}

bool DagmanFile::hasDoneJobs() const {
  for (const DagmanJob& job : jobs_) {
    if (job.done) return true;
  }
  return false;
}

std::string DagmanFile::render() const {
  // Exact size short of VARS escapes, so the appends rarely reallocate.
  std::size_t size = 0;
  for (const DagmanJob& job : jobs_) {
    size += 6 + job.name.size() + job.submit_file.size() +
            (job.dir.empty() ? 0 : 5 + job.dir.size()) + (job.noop ? 5 : 0) +
            (job.done ? 5 : 0);
    for (const auto& [k, v] : job.vars) {
      size += 10 + job.name.size() + k.size() + v.size();
    }
  }
  for (const Dependency& d : dependencies_) {
    size += 15 + jobs_[d.parent].name.size() + jobs_[d.child].name.size();
  }
  for (const std::string& extra : extra_lines_) size += extra.size() + 1;

  std::string out;
  out.reserve(size);
  for (const DagmanJob& job : jobs_) {
    out.append("Job ").append(job.name).append(" ").append(job.submit_file);
    if (!job.dir.empty()) out.append(" DIR ").append(job.dir);
    if (job.noop) out.append(" NOOP");
    if (job.done) out.append(" DONE");
    out.push_back('\n');
  }
  for (const DagmanJob& job : jobs_) {
    for (const auto& [k, v] : job.vars) {
      out.append("Vars ").append(job.name).append(" ").append(k).append("=\"");
      appendEscaped(out, v);
      out.append("\"\n");
    }
  }
  for (const Dependency& d : dependencies_) {
    out.append("PARENT ")
        .append(jobs_[d.parent].name)
        .append(" CHILD ")
        .append(jobs_[d.child].name)
        .push_back('\n');
  }
  for (const std::string& extra : extra_lines_) {
    out.append(extra).push_back('\n');
  }
  return out;
}

void DagmanFile::write(std::ostream& out) const {
  const std::string text = render();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void DagmanFile::writeFile(const std::string& path) const {
  std::ofstream out(path);
  PRIO_CHECK_MSG(out.good(), "cannot write DAGMan file " << path);
  write(out);
}

void DagmanFile::writeFileAtomic(const std::string& path) const {
  util::atomicWriteFile(path, [this](std::ostream& out) { write(out); });
}

}  // namespace prio::dagman
