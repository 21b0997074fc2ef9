// Runs one workload for one seed and reports its metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Working directory for service state, per-app tables and span files
  // (created if missing).
  std::string work_dir = ".bench_build/run";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // first few oracle failures, for stderr
};

// Untraced: the seven end-to-end metrics. Traced: the per-layer metrics.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(const RunResult& result);

}  // namespace perfbench
