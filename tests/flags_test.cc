#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "crawler/snapshot.h"
#include "crawler/update_module.h"
#include "estimator/change_estimator.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/record_line.h"
#include "util/text_snapshot.h"

namespace webevo {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser flags = Parse({"--days=42", "--scale=0.5"});
  EXPECT_EQ(flags.GetInt("days", 0), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 0.0), 0.5);
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser flags = Parse({"--days", "42", "--name", "webevo"});
  EXPECT_EQ(flags.GetInt("days", 0), 42);
  EXPECT_EQ(flags.GetString("name", ""), "webevo");
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  FlagParser flags = Parse({"--verbose", "--also=false"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("also", true));
}

TEST(FlagParserTest, BareFlagFollowedByFlagStaysBoolean) {
  FlagParser flags = Parse({"--a", "--b=1"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_EQ(flags.GetInt("b", 0), 1);
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = Parse({"study", "--days=3", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "study");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagParserTest, MalformedNumbersFallBack) {
  FlagParser flags = Parse({"--days=abc", "--scale=1.5x"});
  EXPECT_EQ(flags.GetInt("days", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 2.0), 2.0);
}

TEST(FlagParserTest, MissingFlagsUseFallbacks) {
  FlagParser flags = Parse({});
  EXPECT_FALSE(flags.Has("days"));
  EXPECT_EQ(flags.GetInt("days", -1), -1);
  EXPECT_EQ(flags.GetString("mode", "x"), "x");
  EXPECT_TRUE(flags.GetBool("on", true));
}

TEST(FlagParserTest, LaterDuplicateWins) {
  FlagParser flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n", 0), 2);
}

TEST(FlagParserTest, BoolSpellings) {
  FlagParser flags =
      Parse({"--a=yes", "--b=no", "--c=on", "--d=off", "--e=garbage"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_TRUE(flags.GetBool("e", true));  // fallback on garbage
}

TEST(FlagParserTest, ValidateCatchesUnknown) {
  FlagParser flags = Parse({"--days=1", "--capasity=2"});
  Status st = flags.Validate({"days", "capacity"});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("capasity"), std::string::npos);
  EXPECT_TRUE(Parse({"--days=1"}).Validate({"days"}).ok());
}

TEST(FlagParserTest, NegativeNumbers) {
  FlagParser flags = Parse({"--offset=-5", "--temp=-1.5"});
  EXPECT_EQ(flags.GetInt("offset", 0), -5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("temp", 0.0), -1.5);
}

TEST(FlagParserTest, NonFiniteDoublesFallBack) {
  // nan/inf parse as valid doubles but would poison every downstream
  // rate/probability computation; GetDouble rejects them.
  FlagParser flags = Parse({"--a=nan", "--b=inf", "--c=-inf",
                            "--d=NaN", "--e=INFINITY"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("a", 1.5), 1.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("b", 2.5), 2.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("c", 3.5), 3.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d", 4.5), 4.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("e", 5.5), 5.5);
}

TEST(FlagParserTest, OverflowingDoubleFallsBack) {
  // 1e999 overflows to +inf inside strtod; the isfinite guard treats
  // that the same as a literal "inf".
  FlagParser flags = Parse({"--big=1e999", "--small=-1e999"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("big", 0.25), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("small", 0.75), 0.75);
}

TEST(FlagParserTest, OverflowingIntFallsBack) {
  // strtoll clamps out-of-range input to LLONG_MAX/LLONG_MIN and only
  // reports the overflow via errno; a silently saturated value must
  // fall back exactly like an unparsable one.
  FlagParser flags = Parse({"--big=9223372036854775808",
                            "--huge=999999999999999999999999"});
  EXPECT_EQ(flags.GetInt("big", 13), 13);
  EXPECT_EQ(flags.GetInt("huge", 17), 17);
}

TEST(FlagParserTest, UnderflowingIntFallsBack) {
  FlagParser flags = Parse({"--small=-9223372036854775809"});
  EXPECT_EQ(flags.GetInt("small", -13), -13);
  // The exact representable bounds still parse.
  FlagParser bounds = Parse({"--min=-9223372036854775808",
                             "--max=9223372036854775807"});
  EXPECT_EQ(bounds.GetInt("min", 0), INT64_MIN);
  EXPECT_EQ(bounds.GetInt("max", 0), INT64_MAX);
}

TEST(FlagParserTest, PartialIntParseFallsBack) {
  FlagParser flags = Parse({"--a=12abc", "--b=1 2", "--c=", "--d=0x10"});
  EXPECT_EQ(flags.GetInt("a", 5), 5);
  EXPECT_EQ(flags.GetInt("b", 5), 5);
  EXPECT_EQ(flags.GetInt("c", 5), 5);
  EXPECT_EQ(flags.GetInt("d", 5), 5);  // base-10 parser: "x10" trails
}

TEST(FlagParserTest, TrailingGarbageDoubleFallsBack) {
  FlagParser flags = Parse({"--a=1.5abc", "--b=0.5 0.6", "--c="});
  EXPECT_DOUBLE_EQ(flags.GetDouble("a", 9.0), 9.0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("b", 9.0), 9.0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("c", 9.0), 9.0);
}

TEST(EnumNameTest, EveryValueRoundTripsThroughItsName) {
  for (crawler::RevisitPolicy policy :
       {crawler::RevisitPolicy::kUniform, crawler::RevisitPolicy::kProportional,
        crawler::RevisitPolicy::kOptimal}) {
    auto parsed =
        crawler::ParseRevisitPolicy(crawler::RevisitPolicyName(policy));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, policy);
  }
  for (estimator::EstimatorKind kind :
       {estimator::EstimatorKind::kNaive, estimator::EstimatorKind::kPoissonCi,
        estimator::EstimatorKind::kBayesian, estimator::EstimatorKind::kRatio,
        estimator::EstimatorKind::kLastModified}) {
    auto parsed =
        estimator::ParseEstimatorKind(estimator::EstimatorKindName(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, kind);
  }
  // Names match exactly: no case folding, no prefixes.
  EXPECT_FALSE(crawler::ParseRevisitPolicy("Optimal").ok());
  EXPECT_FALSE(crawler::ParseRevisitPolicy("").ok());
  EXPECT_FALSE(estimator::ParseEstimatorKind("eb").ok());
  EXPECT_FALSE(estimator::ParseEstimatorKind("EBB").ok());
}

// ------------------------------------------------------- CLI tools

struct CliRun {
  int exit_code = -1;  // -1 when the tool did not exit normally
  std::string output;  // stdout and stderr
};

CliRun RunCli(const std::string& tool, const std::string& args) {
  CliRun run;
  const std::string command = "\"" + tool + "\" " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

// The Status text both tools print, with exit code 2, for a web past
// the PageId site cap.
constexpr char kSiteCapError[] = "site count exceeds PageId site cap";

TEST(CliFlagsTest, ScaleBeyondSiteCapExitsTwo) {
  // --scale=1e8 overflows int in WebConfig::Scaled and --scale=1e6 asks
  // for 270M sites; both tools must refuse the web with the Status
  // text rather than crawl a different one.
  for (const char* args : {"crawl --scale=1e8", "crawl --scale=1e6"}) {
    const CliRun run = RunCli(WEBEVO_SIM_BIN, args);
    EXPECT_EQ(run.exit_code, 2) << args << "\n" << run.output;
    EXPECT_NE(run.output.find(kSiteCapError), std::string::npos) << args;
  }
  const CliRun query = RunCli(WEBEVO_QUERY_BIN, "pages --from=x --scale=1e6");
  EXPECT_EQ(query.exit_code, 2) << query.output;
  EXPECT_NE(query.output.find(kSiteCapError), std::string::npos);
}

TEST(CliFlagsTest, UnknownEnumValuesExitTwoListingTheValidNames) {
  // A misspelt crawler, policy or estimator must not fall back to a
  // default and run a different crawl: both tools refuse it before
  // crawling or loading anything.
  struct Case {
    const char* flag;
    const char* valid;
  };
  for (const Case& c :
       {Case{"--crawler=periodc", "incremental|periodic"},
        Case{"--policy=optimul", "uniform, proportional, optimal"},
        Case{"--estimator=EBB", "naive, EP, EB, ratio, EL"}}) {
    const CliRun sim = RunCli(
        WEBEVO_SIM_BIN, std::string("crawl --days=1 --scale=0.02 ") + c.flag);
    EXPECT_EQ(sim.exit_code, 2) << c.flag << "\n" << sim.output;
    EXPECT_NE(sim.output.find(c.valid), std::string::npos) << sim.output;
    const CliRun query =
        RunCli(WEBEVO_QUERY_BIN, std::string("summary --from=x ") + c.flag);
    EXPECT_EQ(query.exit_code, 2) << c.flag << "\n" << query.output;
    EXPECT_NE(query.output.find(c.valid), std::string::npos) << query.output;
  }
}

TEST(CliFlagsTest, UnusableStoreDirExitsTwo) {
  // A paged store whose scratch directory is missing, or is a file,
  // cannot write its pages back; the tool must refuse it before
  // crawling rather than crawl on with pages it cannot keep.
  const std::string missing = ::testing::TempDir() + "/no-such-store-dir";
  const std::string file = ::testing::TempDir() + "/store-dir-is-a-file";
  std::ofstream(file) << "x";
  for (const std::string& dir : {missing, file}) {
    const CliRun run = RunCli(
        WEBEVO_SIM_BIN,
        "crawl --days=1 --scale=0.02 --store=paged --store-dir=" + dir);
    EXPECT_EQ(run.exit_code, 2) << dir << "\n" << run.output;
    EXPECT_NE(run.output.find("is not an existing, writable directory"),
              std::string::npos)
        << run.output;
  }
  std::remove(file.c_str());
}

TEST(CliFlagsTest, MalformedOrOutOfRangeNumbersExitTwo) {
  // A numeric flag that does not parse in full, or lies outside its
  // range, must not fall back to its default or wrap through an
  // unsigned type and run a different crawl: both tools refuse it
  // before crawling or loading anything, naming the flag and value.
  const std::string checkpoint = ::testing::TempDir() + "/every.bin";
  const std::string periodic = "crawl --crawler=periodic --scale=0.02 ";
  struct Case {
    std::string args;
    const char* named;
  };
  for (const Case& c : {
           Case{"crawl --scale=0.02 --days=abc", "--days value 'abc'"},
           Case{periodic + "--days=1 --capacity=1O0",
                "--capacity value '1O0'"},
           Case{periodic + "--days=1 --capacity=-3",
                "--capacity value '-3'"},
           Case{"study --scale=0.02 --window=20 --days=2.5",
                "--days value '2.5'"},
           Case{periodic + "--days=1 --checkpoint=" + checkpoint +
                    " --checkpoint-every=-1",
                "--checkpoint-every value '-1'"},
           Case{periodic + "--days=0", "--days value '0'"},
           Case{periodic + "--days=1 --cycle=0", "--cycle value '0'"},
           Case{periodic + "--days=1 --window=-2", "--window value '-2'"},
           Case{"crawl --crawler=periodic --scale=0 --days=1",
                "--scale value '0'"},
       }) {
    const CliRun run = RunCli(WEBEVO_SIM_BIN, c.args);
    EXPECT_EQ(run.exit_code, 2) << c.args << "\n" << run.output;
    EXPECT_NE(run.output.find(c.named), std::string::npos) << run.output;
  }
  std::remove(checkpoint.c_str());
  for (const Case& c : {Case{"pages --from=x --limit=-1", "--limit value '-1'"},
                        Case{"pages --from=x --capacity=1O0",
                             "--capacity value '1O0'"}}) {
    const CliRun run = RunCli(WEBEVO_QUERY_BIN, c.args);
    EXPECT_EQ(run.exit_code, 2) << c.args << "\n" << run.output;
    EXPECT_NE(run.output.find(c.named), std::string::npos) << run.output;
  }
}

TEST(CliFlagsTest, ParallelismOutsideItsBoundExitsTwo) {
  // Each shard (or study visitor) starts a worker thread, so
  // --parallelism has a fixed upper bound; 4294967297 used to become one
  // shard through int. Each value exits before any thread starts.
  for (const std::string mode : {"crawl", "study"}) {
    for (const std::string value : {"0", "257", "4294967297"}) {
      const CliRun run =
          RunCli(WEBEVO_SIM_BIN,
                 mode + " --days=1 --scale=0.02 --parallelism=" + value);
      EXPECT_EQ(run.exit_code, 2) << mode << " " << value << "\n"
                                  << run.output;
      EXPECT_NE(run.output.find("--parallelism value '" + value + "'"),
                std::string::npos)
          << run.output;
    }
  }
}

TEST(CliFlagsTest, UnwritableCsvExitsOne) {
  // A --csv path in a missing directory cannot be written: every mode
  // must fail naming it, not report success.
  const std::string csv = ::testing::TempDir() + "/no-such-csv-dir/out.csv";
  for (const std::string args : {"study --days=2 --scale=0.02 --window=20",
                                 "crawl --days=2 --scale=0.02",
                                 "compare --days=2 --scale=0.02"}) {
    const CliRun run = RunCli(WEBEVO_SIM_BIN, args + " --csv=" + csv);
    EXPECT_EQ(run.exit_code, 1) << args << "\n" << run.output;
    EXPECT_NE(run.output.find("FAILED"), std::string::npos) << run.output;
    EXPECT_NE(run.output.find(csv), std::string::npos) << run.output;
  }
}

TEST(CliFlagsTest, UnreadableDeltaLogExitsOne) {
  // A delta log that exists but cannot be read (here a directory) must
  // fail the resume, the query and the inspector, naming the log,
  // instead of stopping them with an uncaught exception.
  const std::string base = ::testing::TempDir() + "/unreadable_log.bin";
  const std::string deltas = base + ".deltas";
  const std::string crawl = "crawl --crawler=incremental --scale=0.02 ";
  std::remove(deltas.c_str());
  const std::string incremental =
      "--days=3 --checkpoint-every=1 --checkpoint-incremental --checkpoint=";
  const CliRun write = RunCli(WEBEVO_SIM_BIN, crawl + incremental + base);
  ASSERT_EQ(write.exit_code, 0) << write.output;
  ASSERT_EQ(std::remove(deltas.c_str()), 0);
  ASSERT_EQ(::mkdir(deltas.c_str(), 0755), 0);
  const CliRun resume =
      RunCli(WEBEVO_SIM_BIN, crawl + "--days=4 --resume=" + base);
  EXPECT_EQ(resume.exit_code, 1) << resume.output;
  EXPECT_NE(resume.output.find("failed: "), std::string::npos)
      << resume.output;
  const CliRun query =
      RunCli(WEBEVO_QUERY_BIN, "pages --scale=0.02 --from=" + base);
  EXPECT_EQ(query.exit_code, 1) << query.output;
  const CliRun inspect = RunCli(WEBEVO_CHECKPOINT_BIN, "inspect " + base);
  EXPECT_EQ(inspect.exit_code, 1) << inspect.output;
  EXPECT_NE(inspect.output.find("error: "), std::string::npos)
      << inspect.output;
  for (const CliRun& run : {resume, query, inspect}) {
    EXPECT_NE(run.output.find(deltas), std::string::npos) << run.output;
  }
  ::rmdir(deltas.c_str());
  std::remove(base.c_str());
}

// Rewrites the first record of `section` in the checkpoint at `from`
// with `rewrite` and writes the result to `to`, re-framing the
// section's trailer and the container's section table as the writer
// does.
void RewriteFirstRecord(
    const std::string& from, const std::string& to, const std::string& section,
    const std::function<std::string(const std::string&)>& rewrite) {
  std::ifstream in(from, std::ios::binary);
  auto container = crawler::ReadCheckpointContainer(in);
  ASSERT_TRUE(container.ok()) << container.status().ToString();
  for (storage::Section& s : container->sections) {
    if (s.name != section) continue;
    std::istringstream lines(s.bytes);
    std::ostringstream framed;
    TrailerWriter writer(framed);
    std::string line;
    for (int i = 0; std::getline(lines, line); ++i) {
      if (line.rfind(kSnapshotTrailerMagic, 0) == 0) break;
      writer.Line(i == 1 ? rewrite(line) : line);
    }
    writer.Finish();
    s.bytes = framed.str();
  }
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start("webevo-crawler", 1, container->kind,
                         container->sections.size()));
  for (const storage::Section& s : container->sections) {
    writer.Line(line.Start("S", s.name, s.bytes.size(), Fnv1a64(s.bytes)));
  }
  writer.Finish();
  for (const storage::Section& s : container->sections) out << s.bytes;
}

TEST(CliFlagsTest, FrontierSiteOutsideTheWebResumes) {
  // The readers check only politeness sites, so a checkpoint whose
  // frontier names a site the web lacks (-1 reads as 2^32 - 1) loads;
  // the resumed crawl must fetch it, get NotFound and go on.
  const std::string dir = ::testing::TempDir();
  const std::string saved = dir + "/outside_site_a.bin";
  const std::string crawl =
      "crawl --crawler=incremental --scale=0.08 --capacity=400 ";
  const CliRun write =
      RunCli(WEBEVO_SIM_BIN, crawl + "--days=3 --checkpoint=" + saved);
  ASSERT_EQ(write.exit_code, 0) << write.output;
  for (const char* site : {"-1", "4294967294"}) {
    SCOPED_TRACE(site);
    const std::string crafted = dir + "/outside_site_b.bin";
    // F <site> <slot> <incarnation> <when> <seq>: the entry moves to
    // (site, 0, 0) at the front of the queue and keeps its seq.
    RewriteFirstRecord(saved, crafted, "frontier",
                       [site](const std::string& record) {
                         return std::string("F ") + site + " 0 0 -1e+18" +
                                record.substr(record.rfind(' '));
                       });
    const CliRun inspect =
        RunCli(WEBEVO_CHECKPOINT_BIN, "inspect " + crafted);
    EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
    const CliRun resume =
        RunCli(WEBEVO_SIM_BIN, crawl + "--days=6 --resume=" + crafted +
                                   " --checkpoint=" + dir +
                                   "/outside_site_c.bin");
    EXPECT_EQ(resume.exit_code, 0) << resume.output;
    std::remove(crafted.c_str());
  }
  std::remove(saved.c_str());
  std::remove((dir + "/outside_site_c.bin").c_str());
}

}  // namespace
}  // namespace webevo
