#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geometric mean of no values");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geometric mean of a non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

PassLog::PassLog(std::size_t apps) : samples_(apps), seen_(apps, false) {
  if (apps == 0) throw std::invalid_argument("a pass needs at least one app");
}

void PassLog::record(std::size_t app, double ms) {
  if (app >= samples_.size() || seen_[app]) {
    throw std::logic_error("app recorded twice in one pass or out of range");
  }
  seen_[app] = true;
  samples_[app].push_back(ms);
}

void PassLog::end_pass(double wall_s) {
  if (std::find(seen_.begin(), seen_.end(), false) != seen_.end()) {
    throw std::logic_error("pass ended before every app was scanned");
  }
  std::fill(seen_.begin(), seen_.end(), false);
  ++passes_;
  wall_s_ += wall_s;
  pass_wall_s_.push_back(wall_s);
}

double PassLog::apps_per_s() const {
  double best_s = 0.0;
  for (const double ms : app_best_ms()) best_s += ms / 1e3;
  return static_cast<double>(samples_.size()) / best_s;
}

std::vector<double> PassLog::app_best_ms() const {
  if (passes_ == 0) throw std::logic_error("no closed pass");
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const std::vector<double>& s : samples_) {
    out.push_back(*std::min_element(s.begin(), s.end()));
  }
  return out;
}

std::vector<double> PassLog::app_medians_ms() const {
  if (passes_ == 0) throw std::logic_error("no closed pass");
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const std::vector<double>& s : samples_) out.push_back(median(s));
  return out;
}

double PassLog::gmean_ms() const { return geometric_mean(app_best_ms()); }

double PassLog::worst_ms() const {
  const std::vector<double> best = app_best_ms();
  return *std::max_element(best.begin(), best.end());
}

}  // namespace perfbench
