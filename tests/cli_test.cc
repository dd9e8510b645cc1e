// End-to-end test of the roadpart_cli binary (path injected by CMake as
// RP_CLI_PATH): generate -> mine -> simulate -> partition -> evaluate ->
// sweep, all through the real command-line surface.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

#ifndef RP_CLI_PATH
#define RP_CLI_PATH "roadpart_cli"
#endif

int RunCli(const std::string& args) {
  std::string command = std::string(RP_CLI_PATH) + " " + args +
                        " > /dev/null 2>&1";
  return std::system(command.c_str());
}

bool FileNonEmpty(const std::string& path) {
  std::ifstream in(path);
  return in.good() && in.peek() != std::ifstream::traits_type::eof();
}

class CliWorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir();
    net_ = dir_ + "/cli_city.net";
    ASSERT_EQ(RunCli("generate --preset=D1 --seed=3 " + net_), 0);
    ASSERT_TRUE(FileNonEmpty(net_));
  }

  std::string dir_;
  std::string net_;
};

TEST_F(CliWorkflowTest, PartitionAndEvaluate) {
  std::string csv = dir_ + "/cli_partition.csv";
  EXPECT_EQ(RunCli("partition --scheme=ASG --k=5 " + net_ + " " + csv), 0);
  EXPECT_TRUE(FileNonEmpty(csv));
  EXPECT_EQ(RunCli("evaluate " + net_ + " " + csv), 0);
  std::remove(csv.c_str());
}

TEST_F(CliWorkflowTest, MineWritesSupergraph) {
  std::string sg = dir_ + "/cli_city.sg";
  EXPECT_EQ(RunCli("mine " + net_ + " " + sg), 0);
  EXPECT_TRUE(FileNonEmpty(sg));
  std::remove(sg.c_str());
}

TEST_F(CliWorkflowTest, SimulateWritesDensities) {
  std::string densities = dir_ + "/cli.densities";
  EXPECT_EQ(
      RunCli("simulate --vehicles=500 --horizon=600 " + net_ + " " + densities),
      0);
  EXPECT_TRUE(FileNonEmpty(densities));
  std::remove(densities.c_str());
}

TEST_F(CliWorkflowTest, SeriesAndAnalyze) {
  std::string series = dir_ + "/cli_series.csv";
  std::string densities = dir_ + "/cli2.densities";
  EXPECT_EQ(RunCli("simulate --vehicles=400 --horizon=600 --interval=200 "
                   "--series=" +
                   series + " " + net_ + " " + densities),
            0);
  EXPECT_TRUE(FileNonEmpty(series));
  EXPECT_EQ(RunCli("analyze --scheme=ASG --k=3 " + net_ + " " + series), 0);
  std::remove(series.c_str());
  std::remove(densities.c_str());
}

TEST_F(CliWorkflowTest, SweepRuns) {
  EXPECT_EQ(RunCli("sweep --scheme=ASG --kmin=2 --kmax=4 " + net_), 0);
}

TEST_F(CliWorkflowTest, SnapshotOutWritesTheLibrarySnapshot) {
  const std::string csv = dir_ + "/cli_snap.csv";
  const std::string snap = dir_ + "/cli_snap.rpsnap";
  const std::string log = dir_ + "/cli_snap.log";
  ASSERT_EQ(std::system((std::string(RP_CLI_PATH) +
                         " partition --scheme=ASG --k=5 --snapshot-out=" +
                         snap + " " + net_ + " " + csv + " > " + log)
                            .c_str()),
            0);
  std::ostringstream out;
  out << std::ifstream(log).rdbuf();
  EXPECT_NE(out.str().find("wrote serving snapshot " + snap + "\n"),
            std::string::npos)
      << out.str();

  // The file is exactly the snapshot the library builds from the network
  // and the partition the command wrote.
  auto net = LoadRoadNetwork(net_);
  ASSERT_TRUE(net.ok());
  auto labels = LoadPartitionCsv(csv, net->num_segments());
  ASSERT_TRUE(labels.ok());
  auto expected = Snapshot::Build(*net, *labels);
  ASSERT_TRUE(expected.ok());
  const std::string expected_path = dir_ + "/cli_snap_expected.rpsnap";
  ASSERT_TRUE(expected->Save(expected_path).ok());
  EXPECT_EQ(ReadFileBytes(snap).value(), ReadFileBytes(expected_path).value());

  // A snapshot that cannot be saved fails the command before the CSV.
  const std::string blocked_csv = dir_ + "/cli_snap_blocked.csv";
  std::remove(blocked_csv.c_str());
  EXPECT_NE(RunCli("partition --scheme=ASG --k=5 --snapshot-out=" + csv +
                   "/under_a_file.rpsnap " + net_ + " " + blocked_csv),
            0);
  EXPECT_FALSE(FileNonEmpty(blocked_csv));
  for (const std::string& path : {csv, snap, log, expected_path}) {
    std::remove(path.c_str());
  }
}

// Runs the CLI with stdout and stderr captured into one string.
int RunCliCaptured(const std::string& args, const std::string& log,
                   std::string* output) {
  const int status = std::system(
      (std::string(RP_CLI_PATH) + " " + args + " > " + log + " 2>&1")
          .c_str());
  std::ostringstream out;
  out << std::ifstream(log).rdbuf();
  *output = out.str();
  return status;
}

TEST_F(CliWorkflowTest, RefreshIsolatesAPoisonedIntervalUnlessStrict) {
  // A legacy series (bare CSV rows, no envelope) whose snapshot 1 carries
  // one NaN density: the region holding that segment rejects its re-cut.
  auto net = LoadRoadNetwork(net_);
  ASSERT_TRUE(net.ok());
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.seed = 4;
  CongestionField field(*net, field_opt);
  const std::string series = dir_ + "/cli_refresh_series.csv";
  {
    std::ofstream out(series);
    for (int t = 0; t < 3; ++t) {
      const std::vector<double> densities = field.DensitiesAt(0.3 + 0.1 * t);
      out << StrPrintf("%.3f", 120.0 * t);
      for (size_t s = 0; s < densities.size(); ++s) {
        out << (t == 1 && s == 0 ? std::string(",nan")
                                 : StrPrintf(",%.17g", densities[s]));
      }
      out << "\n";
    }
  }
  const std::string log = dir_ + "/cli_refresh.log";
  const std::string args =
      "--k=3 --inner-k=2 --trigger-ratio=0 " + net_ + " " + series;

  std::string output;
  EXPECT_EQ(RunCliCaptured("refresh " + args, log, &output), 0) << output;
  std::istringstream lines(output);
  std::vector<std::string> rows;
  for (std::string line; std::getline(lines, line);) rows.push_back(line);
  // "initial ..." line, column header, one row per snapshot.
  ASSERT_EQ(rows.size(), 5u) << output;
  EXPECT_EQ(rows[2].substr(rows[2].size() - 4), "  ok") << output;
  EXPECT_EQ(rows[3].substr(rows[3].size() - 18), "  invalid-argument")
      << output;
  EXPECT_EQ(rows[4].substr(rows[4].size() - 4), "  ok") << output;

  // --strict fails the command on that interval; no table is printed.
  const int strict = RunCliCaptured("refresh --strict " + args, log, &output);
  ASSERT_TRUE(WIFEXITED(strict));
  EXPECT_EQ(WEXITSTATUS(strict), 1);
  EXPECT_EQ(output,
            "error: InvalidArgument: 1 of 3 region re-cuts failed (first: "
            "invalid-argument)\n");
  for (const std::string& path : {series, log}) std::remove(path.c_str());
}

TEST_F(CliWorkflowTest, BadInputsFailCleanly) {
  EXPECT_NE(RunCli("partition --scheme=BOGUS --k=5 " + net_ + " /tmp/x.csv"), 0);
  EXPECT_NE(RunCli("generate --preset=XX /tmp/x.net"), 0);
  EXPECT_NE(RunCli("evaluate /no/such.net /no/such.csv"), 0);
  EXPECT_NE(RunCli("nonsense"), 0);
  EXPECT_NE(RunCli(""), 0);
}

TEST_F(CliWorkflowTest, OutOfRangeIntegerFlagsFail) {
  // A 32-bit cast would turn --k=4294967300 into k=4, and strtoll would
  // clamp the seed to INT64_MAX; both must be usage errors instead.
  const std::string log = dir_ + "/cli_flags.log";
  const std::string csv = dir_ + "/cli_flags.csv";
  std::string output;
  int status = RunCliCaptured(
      "partition --k=4294967300 " + net_ + " " + csv, log, &output);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("--k"), std::string::npos) << output;
  status = RunCliCaptured("generate --seed=99999999999999999999 " + dir_ +
                              "/cli_flags.net",
                          log, &output);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("--seed"), std::string::npos) << output;
  for (const std::string& path : {log, csv}) std::remove(path.c_str());
}

TEST_F(CliWorkflowTest, EvaluateRejectsAnOutOfRangePartitionLabel) {
  // A legacy (envelope-less) partition file whose label indexes far past
  // any partition table: a typed error, not a crash.
  auto net = LoadRoadNetwork(net_);
  ASSERT_TRUE(net.ok());
  const std::string csv = dir_ + "/cli_bad_label.csv";
  {
    std::ofstream out(csv);
    for (int s = 0; s < net->num_segments(); ++s) {
      out << s << "," << (s == 5 ? "2147483647" : "0") << "\n";
    }
  }
  const std::string log = dir_ + "/cli_bad_label.log";
  std::string output;
  const int status = RunCliCaptured("evaluate " + net_ + " " + csv, log,
                                    &output);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("OutOfRange"), std::string::npos) << output;
  for (const std::string& path : {csv, log}) std::remove(path.c_str());
}

TEST_F(CliWorkflowTest, FirstResumeIntoAnEmptyCheckpointDirIsSilent) {
  // A missing manifest is a first run: nothing to adopt, nothing to warn.
  const std::string cp = dir_ + "/cli_first_resume";
  std::filesystem::remove_all(cp);
  std::filesystem::create_directories(cp);
  const std::string csv = dir_ + "/cli_first_resume.csv";
  const std::string log = dir_ + "/cli_first_resume.log";
  std::string output;
  EXPECT_EQ(RunCliCaptured("partition --scheme=ASG --k=5 --checkpoint-dir=" +
                               cp + " --resume " + net_ + " " + csv,
                           log, &output),
            0)
      << output;
  EXPECT_EQ(output.find("warning:"), std::string::npos) << output;
  std::filesystem::remove_all(cp);
  for (const std::string& path : {csv, log}) std::remove(path.c_str());
}

TEST(CliTest, TearDownNetwork) {
  // Cleanup of the shared network file after the suite (best effort).
  std::remove((testing::TempDir() + "/cli_city.net").c_str());
  SUCCEED();
}

}  // namespace
}  // namespace roadpart
