// Order statistics and whole-pass accounting for the benchmark.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Median of `values` (mean of the two middle values for an even count).
// Throws std::invalid_argument on an empty input.
[[nodiscard]] double median(std::vector<double> values);

// Geometric mean; every value must be positive (throws otherwise).
[[nodiscard]] double geometric_mean(const std::vector<double>& values);

// Per-app timing samples collected in whole passes. A pass scans every
// app exactly once; end_pass() rejects a pass that skipped or repeated
// an app, so every reported figure covers the same mix of apps.
//
// The reported figures are best-of-passes: other load on the host only
// ever adds time, so an app's fastest pass is the closest reading of
// what the code itself costs, and it moves far less with the host's
// drift than the median does.
class PassLog {
 public:
  explicit PassLog(std::size_t apps);

  void record(std::size_t app, double ms);
  void end_pass(double wall_s);

  [[nodiscard]] std::size_t apps() const { return samples_.size(); }
  [[nodiscard]] std::size_t passes() const { return passes_; }
  [[nodiscard]] std::size_t scans() const { return passes_ * samples_.size(); }
  [[nodiscard]] double wall_s() const { return wall_s_; }
  [[nodiscard]] const std::vector<double>& pass_wall_s() const { return pass_wall_s_; }
  // Every sample, [app][pass].
  [[nodiscard]] const std::vector<std::vector<double>>& samples() const { return samples_; }

  // Apps per pass divided by the sum of the per-app fastest times: the
  // throughput of a whole pass in which every app ran at its best. Each
  // app needs only one calm sample, where the fastest whole pass needs
  // every app of one pass to be calm at once.
  [[nodiscard]] double apps_per_s() const;
  // Each app's fastest time over the closed passes.
  [[nodiscard]] std::vector<double> app_best_ms() const;
  // Each app's median time over the closed passes.
  [[nodiscard]] std::vector<double> app_medians_ms() const;
  // Geometric mean over apps of the per-app fastest times.
  [[nodiscard]] double gmean_ms() const;
  // Largest per-app fastest time.
  [[nodiscard]] double worst_ms() const;

 private:
  std::vector<std::vector<double>> samples_;  // [app][pass]
  std::vector<bool> seen_;                    // apps recorded this pass
  std::vector<double> pass_wall_s_;
  std::size_t passes_ = 0;
  double wall_s_ = 0.0;
};

}  // namespace perfbench
