// Tests for DAGMan file parsing/writing, JSDF handling and the Fig. 3
// instrumentation pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "dagman/jsdf.h"
#include "util/check.h"

namespace {

namespace fs = std::filesystem;
using namespace prio::dagman;

// The paper's Fig. 3 input file (IV.dag).
constexpr const char* kFig3 =
    "# IV.dag\n"
    "Job a a.submit\n"
    "Job b b.submit\n"
    "Job c c.submit\n"
    "Job d d.submit\n"
    "Job e e.submit\n"
    "PARENT a CHILD b\n"
    "PARENT c CHILD d e\n";

TEST(DagmanParse, Fig3File) {
  std::istringstream in(kFig3);
  const auto f = DagmanFile::parse(in);
  ASSERT_EQ(f.jobs().size(), 5u);
  EXPECT_EQ(f.jobs()[0].name, "a");
  EXPECT_EQ(f.jobs()[0].submit_file, "a.submit");
  ASSERT_EQ(f.dependencies().size(), 3u);
  // Dependencies are job indices: a=0, b=1, c=2, d=3, e=4.
  EXPECT_EQ(f.dependencies()[0], (Dependency{0, 1}));
  EXPECT_EQ(f.dependencies()[1], (Dependency{2, 3}));
  EXPECT_EQ(f.dependencies()[2], (Dependency{2, 4}));
}

TEST(DagmanParse, MultiParentMultiChildExpansion) {
  std::istringstream in(
      "JOB x x.sub\nJOB y y.sub\nJOB z z.sub\nJOB w w.sub\n"
      "PARENT x y CHILD z w\n");
  const auto f = DagmanFile::parse(in);
  EXPECT_EQ(f.dependencies().size(), 4u);
}

TEST(DagmanParse, CaseInsensitiveKeywordsAndDone) {
  std::istringstream in("job a a.sub done\njOb b b.sub\nparent a child b\n");
  const auto f = DagmanFile::parse(in);
  EXPECT_TRUE(f.jobs()[0].done);
  EXPECT_FALSE(f.jobs()[1].done);
  EXPECT_EQ(f.dependencies().size(), 1u);
}

TEST(DagmanParse, VarsWithQuotedValues) {
  std::istringstream in(
      "JOB a a.sub\n"
      "VARS a key1=\"hello world\" key2=\"x\\\"y\"\n");
  const auto f = DagmanFile::parse(in);
  EXPECT_EQ(f.jobs()[0].var("key1"), std::optional<std::string>("hello world"));
  EXPECT_EQ(f.jobs()[0].var("key2"), std::optional<std::string>("x\"y"));
  EXPECT_EQ(f.jobs()[0].var("missing"), std::nullopt);
}

TEST(DagmanParse, ForwardReferencesInParentLines) {
  // PARENT may name jobs declared later in the file.
  std::istringstream in("PARENT a CHILD b\nJOB a a.sub\nJOB b b.sub\n");
  const auto f = DagmanFile::parse(in);
  EXPECT_EQ(f.dependencies().size(), 1u);
}

TEST(DagmanParse, PreservesUnknownDirectives) {
  std::istringstream in(
      "JOB a a.sub\nRETRY a 3\nSCRIPT POST a cleanup.sh\n");
  const auto f = DagmanFile::parse(in);
  ASSERT_EQ(f.extraLines().size(), 2u);
  EXPECT_EQ(f.extraLines()[0], "RETRY a 3");
}

TEST(DagmanParse, CommentsAndBlankLinesIgnored) {
  std::istringstream in("\n# comment\n  \nJOB a a.sub\n");
  const auto f = DagmanFile::parse(in);
  EXPECT_EQ(f.jobs().size(), 1u);
  EXPECT_TRUE(f.extraLines().empty());
}

TEST(DagmanParse, Errors) {
  {
    std::istringstream in("JOB a a.sub\nJOB a other.sub\n");
    EXPECT_THROW((void)DagmanFile::parse(in), prio::util::Error);
  }
  {
    std::istringstream in("JOB a a.sub\nPARENT a CHILD ghost\n");
    EXPECT_THROW((void)DagmanFile::parse(in), prio::util::Error);
  }
  {
    std::istringstream in("JOB a a.sub\nPARENT a\n");
    EXPECT_THROW((void)DagmanFile::parse(in), prio::util::Error);
  }
  {
    std::istringstream in("JOB a a.sub\nVARS a key=unquoted\n");
    EXPECT_THROW((void)DagmanFile::parse(in), prio::util::Error);
  }
  {
    std::istringstream in("JOB a a.sub\nVARS ghost key=\"v\"\n");
    EXPECT_THROW((void)DagmanFile::parse(in), prio::util::Error);
  }
}

TEST(DagmanToDigraph, BuildsCorrectDag) {
  std::istringstream in(kFig3);
  const auto f = DagmanFile::parse(in);
  const auto g = f.toDigraph();
  EXPECT_EQ(g.numNodes(), 5u);
  EXPECT_EQ(g.numEdges(), 3u);
  EXPECT_TRUE(g.hasEdge(*g.findNode("c"), *g.findNode("e")));
}

TEST(DagmanToDigraph, DetectsCycles) {
  std::istringstream in(
      "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT b CHILD a\n");
  const auto f = DagmanFile::parse(in);
  EXPECT_THROW((void)f.toDigraph(), prio::util::Error);
}

TEST(DagmanWrite, RoundTrips) {
  std::istringstream in(kFig3);
  const auto f = DagmanFile::parse(in);
  std::ostringstream out;
  f.write(out);
  std::istringstream in2(out.str());
  const auto f2 = DagmanFile::parse(in2);
  EXPECT_EQ(f2.jobs().size(), f.jobs().size());
  EXPECT_EQ(f2.dependencies(), f.dependencies());
}

TEST(DagmanWrite, KeepsDirAndNoop) {
  // DIR takes the next token; NOOP and DONE are flags in any case and
  // order; other options are dropped. Render writes them in one order.
  const auto f = DagmanFile::parse(
      "JOB a a.sub noop DIR sub/dir RETRY done\n"
      "JOB b b.sub Dir d2\n"
      "JOB c c.sub DIR\n"
      "JOB d d.sub DIR NOOP\n"
      "JOB e e.sub\n");
  ASSERT_EQ(f.jobs().size(), 5u);
  EXPECT_EQ(f.jobs()[0].dir, "sub/dir");
  EXPECT_TRUE(f.jobs()[0].noop);
  EXPECT_TRUE(f.jobs()[0].done);
  EXPECT_EQ(f.jobs()[1].dir, "d2");
  EXPECT_FALSE(f.jobs()[1].noop);
  EXPECT_EQ(f.jobs()[2].dir, "");  // DIR with nothing after it
  EXPECT_EQ(f.jobs()[3].dir, "NOOP");
  EXPECT_FALSE(f.jobs()[3].noop);
  const std::string bytes = f.render();
  EXPECT_EQ(bytes,
            "Job a a.sub DIR sub/dir NOOP DONE\n"
            "Job b b.sub DIR d2\n"
            "Job c c.sub\n"
            "Job d d.sub DIR NOOP\n"
            "Job e e.sub\n");
  EXPECT_EQ(DagmanFile::parse(bytes).render(), bytes);
}

TEST(Instrument, Fig3PrioritiesMatchPaper) {
  std::istringstream in(kFig3);
  auto f = DagmanFile::parse(in);
  const auto result = prioritizeDagmanFile(f);
  // PRIO schedule c,a,b,d,e -> priorities c=5, a=4, b=3, d=2, e=1.
  EXPECT_EQ(f.findJob("c")->var("jobpriority"),
            std::optional<std::string>("5"));
  EXPECT_EQ(f.findJob("a")->var("jobpriority"),
            std::optional<std::string>("4"));
  EXPECT_TRUE(result.certified_ic_optimal);
  // The written file carries the Vars lines.
  std::ostringstream out;
  f.write(out);
  EXPECT_NE(out.str().find("Vars c jobpriority=\"5\""), std::string::npos);
}

TEST(Instrument, RejectsWrongPriorityCount) {
  std::istringstream in(kFig3);
  auto f = DagmanFile::parse(in);
  const std::vector<std::size_t> wrong{1, 2, 3};
  EXPECT_THROW(instrumentDagmanFile(f, wrong), prio::util::Error);
}

TEST(Jsdf, ParseAndQueryCommands) {
  std::istringstream in(
      "# submit\nexecutable = work.sh\nUniverse = vanilla\nqueue\n");
  const auto j = Jsdf::parse(in);
  EXPECT_EQ(j.command("executable"), std::optional<std::string>("work.sh"));
  EXPECT_EQ(j.command("universe"), std::optional<std::string>("vanilla"));
  EXPECT_EQ(j.command("priority"), std::nullopt);
}

TEST(Jsdf, InstrumentInsertsBeforeQueue) {
  std::istringstream in("executable = work.sh\nqueue\n");
  auto j = Jsdf::parse(in);
  j.instrumentPriorityMacro();
  EXPECT_EQ(j.command("priority"),
            std::optional<std::string>("$(jobpriority)"));
  // priority line must precede queue.
  ASSERT_EQ(j.lines().size(), 3u);
  EXPECT_EQ(j.lines()[1], "priority = $(jobpriority)");
}

TEST(Jsdf, InstrumentIsIdempotentAndReplaces) {
  std::istringstream in("priority = 7\nexecutable = w\nqueue\n");
  auto j = Jsdf::parse(in);
  j.instrumentPriorityMacro();
  j.instrumentPriorityMacro();
  int count = 0;
  for (const auto& line : j.lines()) {
    if (line.find("priority") == 0) ++count;
  }
  EXPECT_EQ(count, 1);
  EXPECT_EQ(j.command("priority"),
            std::optional<std::string>("$(jobpriority)"));
}

TEST(InstrumentSubmitFiles, RewritesExistingSkipsMissing) {
  const fs::path dir =
      fs::temp_directory_path() / "prio_test_jsdf";
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "a.submit");
    out << "executable = a.sh\nqueue\n";
  }
  std::istringstream in(kFig3);
  const auto f = DagmanFile::parse(in);
  const auto rewritten = instrumentSubmitFiles(f, dir.string());
  // Only a.submit exists on disk.
  ASSERT_EQ(rewritten.size(), 1u);
  EXPECT_EQ(rewritten[0], "a.submit");
  const auto j = Jsdf::parseFile((dir / "a.submit").string());
  EXPECT_EQ(j.command("priority"),
            std::optional<std::string>("$(jobpriority)"));
  fs::remove_all(dir);
}

TEST(DagmanFile, FileRoundTripOnDisk) {
  const fs::path dir = fs::temp_directory_path() / "prio_test_dag";
  fs::create_directories(dir);
  const fs::path path = dir / "iv.dag";
  {
    std::ofstream out(path);
    out << kFig3;
  }
  auto f = DagmanFile::parseFile(path.string());
  (void)prioritizeDagmanFile(f);
  f.writeFile(path.string());
  const auto f2 = DagmanFile::parseFile(path.string());
  EXPECT_EQ(f2.findJob("c")->var("jobpriority"),
            std::optional<std::string>("5"));
  fs::remove_all(dir);
}

// A directory "opens" fine on Linux and reads as empty without setting
// badbit; parseFile used to return a zero-job dag for it (and prio_serve
// reported success for a manifest entry naming a directory). It must be
// a parse failure.
TEST(DagmanFile, ParseFileRejectsDirectory) {
  const fs::path dir = fs::temp_directory_path() / "prio_test_dag_dir";
  fs::create_directories(dir);
  EXPECT_THROW(DagmanFile::parseFile(dir.string()), prio::util::Error);
  fs::remove_all(dir);
}

TEST(DagmanFile, ParseFileRejectsMissingPath) {
  EXPECT_THROW(
      DagmanFile::parseFile((fs::temp_directory_path() /
                             "prio_test_no_such_file.dag").string()),
      prio::util::Error);
}

}  // namespace
