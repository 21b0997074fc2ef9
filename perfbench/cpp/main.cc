// Benchmark program: runs one workload for one seed and prints the result
// as one JSON object on the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
#include <malloc.h>

#include <cstdio>
#include <exception>
#include <string>

#include "runner.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <table3_cold|crawl_warm|explosion|service_replay>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Known defect of the scanner, worked around here until the scanner sets
  // these itself: under glibc's adaptive mmap and trim thresholds, a
  // long-running process that scans app after app falls, depending on
  // heap layout, into stretches of several passes in which every cheap
  // scan is about 3x slower (re-faulting trimmed memory). When that
  // happens depends on the app order, so it would decide the figures by
  // seed instead of by code. The values are glibc's own adaptive
  // ceilings. Arena count stays at its default, as in the shipped
  // programs.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
  perfbench::RunConfig config;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || !have_workload || !perfbench::is_workload(config.workload) ||
      !(config.seconds > 0.0)) {
    return usage();
  }

  try {
    const perfbench::RunResult result = perfbench::run_workload(config);
    for (const std::string& p : result.problems) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
    }
    std::printf("%s\n", perfbench::result_json(result).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
