// rp_perfbench: runs one benchmark workload and prints its result as the
// last line of stdout. See perfbench/README.md for the workloads, metrics
// and checks; perfbench/run.py builds this program and forwards arguments.
//
//   rp_perfbench --workload=<cold_asg|live> --seed=<n>
//                --seconds=<s> --trace=<0|1> --work-dir=<fresh dir>
//                [--tiny] [--corrupt=<kind>]
//
// Exit codes: 0 correct, 1 a correctness check failed (the result line is
// still printed), 2 usage or environment error (no result line).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace roadpart::perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "rp_perfbench: %s\nusage: rp_perfbench --workload=<cold_asg|"
               "live> --seed=<n> --seconds=<s> --trace=<0|1> "
               "--work-dir=<dir> [--tiny] [--corrupt=<kind>]\n",
               why);
  return 2;
}

bool ParseCorruption(const std::string& name, Corruption* out) {
  static const std::pair<const char*, Corruption> kNames[] = {
      {"label-range", Corruption::kLabelRange},
      {"label-disconnect", Corruption::kLabelDisconnect},
      {"thread-label", Corruption::kThreadLabel},
      {"decomp-label", Corruption::kDecompLabel},
      {"snapshot-byte", Corruption::kSnapshotByte},
      {"replay-ans", Corruption::kReplayAns},
      {"served-answer", Corruption::kServedAnswer},
  };
  for (const auto& [n, c] : kNames) {
    if (name == n) {
      *out = c;
      return true;
    }
  }
  return false;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Filesystem type of the mount holding `path` (longest /proc/mounts
/// prefix of its canonical form).
std::string FilesystemOf(const std::string& path) {
  std::error_code ec;
  const std::string canonical =
      std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream in("/proc/mounts");
  std::string device, mount_point, type, rest;
  std::string best_type = "unknown";
  size_t best_length = 0;
  while (in >> device >> mount_point >> type && std::getline(in, rest)) {
    const bool under =
        canonical.rfind(mount_point, 0) == 0 &&
        (mount_point == "/" || canonical.size() == mount_point.size() ||
         canonical[mount_point.size()] == '/');
    if (under && mount_point.size() >= best_length) {
      best_length = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

int Main(int argc, char** argv) {
  Config config;
  config.start_s = NowSeconds();
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--tiny") {
      config.tiny = true;
    } else if (key == "--corrupt") {
      if (!ParseCorruption(value, &config.corrupt)) {
        return Usage("bad --corrupt");
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds ||
      config.work_dir.empty()) {
    return Usage("--workload, --seed, --seconds and --work-dir are required");
  }
  if (config.workload != "cold_asg" && config.workload != "live") {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  // Both workloads measure at 1 thread (cold_asg also cuts once at 2 to
  // check bit-identity).
  constexpr int kThreads = 1;

  // Provenance: only the project's Release build (-O2, as the root
  // CMakeLists.txt sets it) may report numbers.
  bool optimized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
  if (std::strcmp(RP_BENCH_BUILD_TYPE, "Release") != 0 || !optimized) {
    std::fprintf(stderr, "rp_perfbench: refusing to report from a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 RP_BENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  if (std::filesystem::exists(config.work_dir, ec) &&
      !std::filesystem::is_empty(config.work_dir, ec)) {
    return Usage("--work-dir must be fresh (missing or empty)");
  }
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create " + config.work_dir).c_str());

  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"threads\": %d, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"nproc\": %ld, "
      "\"cpu_model\": \"%s\", \"state_dir_fs\": \"%s\"}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, kThreads, RP_BENCH_BUILD_TYPE,
      JsonEscape(RP_BENCH_COMPILER).c_str(),
      JsonEscape(RP_BENCH_CXX_FLAGS).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonEscape(CpuModel()).c_str(),
      JsonEscape(FilesystemOf(config.work_dir)).c_str());

  // Every thread knob is explicit: the process-wide default is pinned too,
  // so nothing falls back to RP_THREADS or the hardware count.
  SetDefaultParallelism(kThreads);
  Report report;
  report.Check("fault-injector-disarmed", GlobalFaultInjector() == nullptr);
  if (config.workload == "live") {
    RunLive(config, report);
  } else {
    RunCold(config, report);
  }
  report.Check("fault-injector-disarmed", GlobalFaultInjector() == nullptr);

  for (const auto& [reason, count] : report.failures()) {
    std::printf("failed %s %lld\n", reason.c_str(),
                static_cast<long long>(count));
  }
  const std::string result =
      report.ResultJson(config.trace ? PerLayerMetrics() : EndToEndMetrics());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace roadpart::perfbench

int main(int argc, char** argv) {
  return roadpart::perfbench::Main(argc, argv);
}
