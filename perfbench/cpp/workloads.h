// The benchmark's workloads: which apps each one scans, with the verdict
// each scan must reach. Every generated input derives from the seed, and
// the same seed always yields byte-identical apps.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector/detector.h"

namespace perfbench {

// splitmix64: a tiny generator whose output is fixed by its definition,
// so generated apps are identical on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi].
  int between(int lo, int hi);

 private:
  std::uint64_t state_;
};

// Mixes a seed with a stream label, so independent decisions (app order
// of pass 3, filler of app 17, ...) draw from unrelated streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view label,
                                        std::uint64_t index = 0);

struct BenchApp {
  uchecker::core::Application app;
  uchecker::core::Verdict expected = uchecker::core::Verdict::kNotVulnerable;
};

inline constexpr std::string_view kWorkloads[] = {"table3_cold", "crawl_warm",
                                                  "explosion", "service_replay"};

[[nodiscard]] bool is_workload(std::string_view name);

// The apps `workload` scans under `seed`. Throws std::invalid_argument on
// an unknown workload name.
[[nodiscard]] std::vector<BenchApp> workload_apps(std::string_view workload,
                                                  std::uint64_t seed);

// Table III without Cimy, plus the helper-chain suite; expected verdicts
// are the paper's UChecker column and the helper suite's ground truth.
[[nodiscard]] std::vector<BenchApp> table3_apps();

// The synthetic plugin crawl (crawl_warm and service_replay).
inline constexpr std::size_t kCrawlApps = 120;
[[nodiscard]] std::vector<BenchApp> crawl_apps(std::uint64_t seed);

// Cimy, three branch-heavy Table III apps and seeded deep-branching
// synthetic apps.
[[nodiscard]] std::vector<BenchApp> explosion_apps(std::uint64_t seed);

// The order in which pass `pass` visits `n` apps (a seeded permutation).
[[nodiscard]] std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                                  std::size_t pass);

}  // namespace perfbench
