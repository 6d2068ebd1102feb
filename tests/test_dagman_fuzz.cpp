// Robustness tests for the DAGMan parser: random token soup must either
// parse cleanly or throw util::Error (never crash or corrupt state), and
// structured random files must round-trip exactly.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dagman/dagman_file.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/random.h"

namespace {

using prio::dagman::DagmanFile;
using prio::stats::Rng;

std::string randomToken(Rng& rng) {
  static const char* kTokens[] = {
      "JOB",  "PARENT", "CHILD", "VARS", "DONE",  "RETRY",
      "a",    "b",      "job1",  "x.sub", "=",    "\"v\"",
      "key=", "#",      "",      "  ",    "\\",   "\"",
      "DIR",  "NOOP",
  };
  return kTokens[rng.below(sizeof(kTokens) / sizeof(kTokens[0]))];
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, GarbageEitherParsesOrThrowsError) {
  Rng rng(GetParam());
  for (int file_no = 0; file_no < 200; ++file_no) {
    std::ostringstream os;
    const std::size_t lines = 1 + rng.below(8);
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t tokens = rng.below(6);
      for (std::size_t t = 0; t < tokens; ++t) {
        os << randomToken(rng) << ' ';
      }
      os << '\n';
    }
    std::istringstream in(os.str());
    DagmanFile f;
    try {
      f = DagmanFile::parse(in);
    } catch (const prio::util::Error&) {
      continue;  // expected for malformed input
    }
    // Whatever parsed must re-parse from its own bytes, to the same
    // file and the same bytes. The re-parse must not throw: a writer
    // that emits text its own parser rejects is a bug, not bad input.
    const std::string bytes = f.render();
    DagmanFile f2;
    ASSERT_NO_THROW(f2 = DagmanFile::parse(bytes)) << bytes;
    ASSERT_EQ(f2.jobs().size(), f.jobs().size());
    for (std::size_t i = 0; i < f.jobs().size(); ++i) {
      EXPECT_EQ(f2.jobs()[i].name, f.jobs()[i].name);
      EXPECT_EQ(f2.jobs()[i].submit_file, f.jobs()[i].submit_file);
      EXPECT_EQ(f2.jobs()[i].dir, f.jobs()[i].dir);
      EXPECT_EQ(f2.jobs()[i].noop, f.jobs()[i].noop);
      EXPECT_EQ(f2.jobs()[i].done, f.jobs()[i].done);
      EXPECT_EQ(f2.jobs()[i].vars, f.jobs()[i].vars);
    }
    EXPECT_EQ(f2.dependencies(), f.dependencies());
    EXPECT_EQ(f2.extraLines(), f.extraLines());
    EXPECT_EQ(f2.render(), bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

class RoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripProperty, StructuredRandomFilesRoundTrip) {
  Rng rng(GetParam());
  const auto g = prio::workloads::randomDag(25, 0.12, rng);
  DagmanFile file;
  for (prio::dag::NodeId u = 0; u < g.numNodes(); ++u) {
    auto& job = file.addJob("job_" + std::to_string(u),
                            "submit_" + std::to_string(rng.below(5)) +
                                ".sub");
    if (rng.below(4) == 0) job.done = true;
    if (rng.below(3) == 0) job.dir = "run/" + std::to_string(rng.below(4));
    if (rng.below(5) == 0) job.noop = true;
    if (rng.below(3) == 0) {
      // Values may hold quotes and backslashes, which the writer must
      // escape for the parser to read them back.
      static const char* kTails[] = {"", "", "\"q\"", "c:\\dir", "end\\",
                                     "\\\"", "x\"y\\z"};
      std::string value = "value with spaces ";
      value += std::to_string(rng.below(100));
      value += kTails[rng.below(sizeof(kTails) / sizeof(kTails[0]))];
      job.setVar("key" + std::to_string(rng.below(3)), value);
    }
  }
  for (prio::dag::NodeId u = 0; u < g.numNodes(); ++u) {
    for (prio::dag::NodeId v : g.children(u)) {
      file.addDependency("job_" + std::to_string(u),
                         "job_" + std::to_string(v));
    }
  }

  std::ostringstream out;
  file.write(out);
  std::istringstream in(out.str());
  const auto parsed = DagmanFile::parse(in);

  ASSERT_EQ(parsed.jobs().size(), file.jobs().size());
  for (std::size_t i = 0; i < file.jobs().size(); ++i) {
    EXPECT_EQ(parsed.jobs()[i].name, file.jobs()[i].name);
    EXPECT_EQ(parsed.jobs()[i].submit_file, file.jobs()[i].submit_file);
    EXPECT_EQ(parsed.jobs()[i].dir, file.jobs()[i].dir);
    EXPECT_EQ(parsed.jobs()[i].noop, file.jobs()[i].noop);
    EXPECT_EQ(parsed.jobs()[i].done, file.jobs()[i].done);
    EXPECT_EQ(parsed.jobs()[i].vars, file.jobs()[i].vars);
  }
  EXPECT_EQ(parsed.dependencies(), file.dependencies());

  // And the dag the file describes is unchanged.
  const auto g1 = file.toDigraph();
  const auto g2 = parsed.toDigraph();
  EXPECT_EQ(g1.numNodes(), g2.numNodes());
  EXPECT_EQ(g1.numEdges(), g2.numEdges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Range<std::uint64_t>(10, 20));

// ---------------------------------------------------------------------------
// Targeted malformed-input cases: each must parse cleanly or throw
// prio::util::Error — never crash, hang, or corrupt the file object.

DagmanFile parseString(const std::string& text) {
  std::istringstream in(text);
  return DagmanFile::parse(in);
}

TEST(ParserHardening, TruncatedLinesThrowOrParse) {
  const char* cases[] = {
      "JOB",                      // keyword only
      "JOB a",                    // missing submit file
      "PARENT",                   // no jobs at all
      "JOB a a.sub\nPARENT a",    // PARENT without CHILD
      "JOB a a.sub\nPARENT CHILD a",   // no parents before CHILD
      "JOB a a.sub\nPARENT a CHILD",   // no children after CHILD
      "JOB a a.sub\nVARS",        // VARS without job
      "JOB a a.sub\nVARS a k=",   // missing quoted value
      "JOB a a.sub\nVARS a k=\"v",  // unterminated quote
  };
  for (const char* text : cases) {
    EXPECT_THROW((void)parseString(text), prio::util::Error) << text;
  }
}

TEST(ParserHardening, CrlfLineEndingsParseIdentically) {
  const std::string unix_text =
      "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nVARS a k=\"v\"\n";
  std::string crlf_text;
  for (const char c : unix_text) {
    if (c == '\n') crlf_text += '\r';
    crlf_text += c;
  }
  const auto f1 = parseString(unix_text);
  const auto f2 = parseString(crlf_text);
  ASSERT_EQ(f2.jobs().size(), f1.jobs().size());
  for (std::size_t i = 0; i < f1.jobs().size(); ++i) {
    EXPECT_EQ(f2.jobs()[i].name, f1.jobs()[i].name);
    EXPECT_EQ(f2.jobs()[i].submit_file, f1.jobs()[i].submit_file);
    EXPECT_EQ(f2.jobs()[i].vars, f1.jobs()[i].vars);
  }
  EXPECT_EQ(f2.dependencies(), f1.dependencies());
}

TEST(ParserHardening, DuplicateParentChildEdgesCollapseInDigraph) {
  const auto f = parseString(
      "JOB a a.sub\nJOB b b.sub\n"
      "PARENT a CHILD b\nPARENT a CHILD b\nPARENT a CHILD b b\n");
  const auto g = f.toDigraph();
  EXPECT_EQ(g.numNodes(), 2u);
  EXPECT_EQ(g.numEdges(), 1u);  // Digraph::addEdge dedups
  // Round trip keeps whatever the file recorded without corruption.
  std::ostringstream out;
  f.write(out);
  std::istringstream in(out.str());
  const auto f2 = DagmanFile::parse(in);
  EXPECT_EQ(f2.dependencies(), f.dependencies());
  EXPECT_EQ(f2.toDigraph().numEdges(), 1u);
}

TEST(ParserHardening, AbsurdRetryCountsNeverCrash) {
  // RETRY is a preserved directive; executor-side parsing must survive
  // overflow, negatives, and garbage counts.
  const char* cases[] = {
      "JOB a a.sub\nRETRY a 999999999999999999999999999999\n",
      "JOB a a.sub\nRETRY a -5\n",
      "JOB a a.sub\nRETRY a banana\n",
      "JOB a a.sub\nRETRY\n",
      "JOB a a.sub\nRETRY nosuchjob 3\n",
  };
  for (const char* text : cases) {
    const auto f = parseString(text);  // extra lines are preserved verbatim
    EXPECT_EQ(f.jobs().size(), 1u) << text;
    EXPECT_EQ(f.extraLines().size(), 1u) << text;
    // And the digraph is still sound.
    EXPECT_EQ(f.toDigraph().numNodes(), 1u) << text;
  }
}

}  // namespace
