// Self-tests of the benchmark program: input generation, expected
// verdicts and the order statistics behind the reported metrics.
// Exits non-zero when any check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fmax(1.0, std::fabs(b)); }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

using perfbench::BenchApp;
using uchecker::core::Verdict;

// Every byte that defines a workload's input: names, file contents and
// the expected verdicts.
std::string serialize(const std::vector<BenchApp>& apps) {
  std::string out;
  for (const BenchApp& a : apps) {
    out += a.app.name + '\0' + std::to_string(static_cast<int>(a.expected)) + '\0';
    for (const auto& f : a.app.files) out += f.name + '\0' + f.content + '\0';
  }
  return out;
}

std::size_t count(const std::vector<BenchApp>& apps, Verdict v) {
  std::size_t n = 0;
  for (const BenchApp& a : apps) n += a.expected == v ? 1 : 0;
  return n;
}

std::size_t total_bytes(const std::vector<BenchApp>& apps) {
  std::size_t n = 0;
  for (const BenchApp& a : apps) {
    for (const auto& f : a.app.files) n += f.content.size();
  }
  return n;
}

void test_order_statistics() {
  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(perfbench::median({7.0}), 7.0));
  CHECK(throws([] { (void)perfbench::median({}); }));
  CHECK(near(perfbench::geometric_mean({1.0, 4.0, 16.0}), 4.0));
  CHECK(near(perfbench::geometric_mean({2.0, 8.0}), 4.0));
  CHECK(throws([] { (void)perfbench::geometric_mean({1.0, 0.0}); }));
}

void test_whole_passes() {
  perfbench::PassLog log(3);
  // Pass 1: 1, 20, 200 ms; pass 2: 3, 10, 300 ms; pass 3: 2, 30, 100 ms.
  // Each app's fastest time is in another pass.
  const double samples[3][3] = {{1, 20, 200}, {3, 10, 300}, {2, 30, 100}};
  const double pass_wall_s[3] = {0.5, 0.6, 0.3};
  for (int p = 0; p < 3; ++p) {
    log.record(2, samples[p][2]);
    log.record(0, samples[p][0]);
    log.record(1, samples[p][1]);
    log.end_pass(pass_wall_s[p]);
  }
  CHECK(log.passes() == 3);
  CHECK(log.scans() == 9);
  CHECK(near(log.wall_s(), 1.4));
  CHECK(near(log.apps_per_s(), 3.0 / 0.111));  // 3 apps, best times 1 + 10 + 100 ms
  const std::vector<double> best = log.app_best_ms();
  CHECK(best.size() == 3 && near(best[0], 1) && near(best[1], 10) && near(best[2], 100));
  const std::vector<double> medians = log.app_medians_ms();
  CHECK(medians.size() == 3 && near(medians[0], 2) && near(medians[1], 20) &&
        near(medians[2], 200));
  CHECK(near(log.gmean_ms(), 10.0));
  CHECK(near(log.worst_ms(), 100.0));

  // A pass that skips an app or scans one twice is refused.
  perfbench::PassLog partial(2);
  partial.record(0, 1.0);
  CHECK(throws([&] { partial.end_pass(0.1); }));
  CHECK(throws([&] { partial.record(0, 1.0); }));
  CHECK(throws([&] { partial.record(2, 1.0); }));
  perfbench::PassLog empty(1);
  CHECK(throws([&] { (void)empty.apps_per_s(); }));
}

void test_rng_is_fixed() {
  // splitmix64's published first output for state 0.
  perfbench::Rng rng(0);
  CHECK(rng.next() == 0xE220A8397B1DCDAFULL);
  CHECK(perfbench::derive_seed(1, "a") != perfbench::derive_seed(1, "b"));
  CHECK(perfbench::derive_seed(1, "a", 0) != perfbench::derive_seed(1, "a", 1));
  CHECK(perfbench::derive_seed(1, "a") != perfbench::derive_seed(2, "a"));
}

void test_generation_is_seeded() {
  for (const std::string_view w : perfbench::kWorkloads) {
    const std::string a = serialize(perfbench::workload_apps(w, 7));
    const std::string b = serialize(perfbench::workload_apps(w, 7));
    CHECK(a == b);
    const std::string c = serialize(perfbench::workload_apps(w, 8));
    // Table III is the paper's fixed corpus; there the seed only orders.
    CHECK((w == "table3_cold") == (a == c));
  }
  CHECK(perfbench::pass_order(46, 7, 0) == perfbench::pass_order(46, 7, 0));
  CHECK(perfbench::pass_order(46, 7, 0) != perfbench::pass_order(46, 8, 0));
  CHECK(perfbench::pass_order(46, 7, 0) != perfbench::pass_order(46, 7, 1));
  std::vector<std::size_t> sorted = perfbench::pass_order(46, 7, 3);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) CHECK(sorted[i] == i);
  CHECK(throws([] { (void)perfbench::workload_apps("no_such_workload", 1); }));
}

void test_expected_verdicts() {
  // Table III without Cimy: 15 true and 2 false positives flagged, 26
  // benign; the helper suite adds two vulnerable apps and one benign.
  const std::vector<BenchApp> table3 = perfbench::table3_apps();
  CHECK(table3.size() == 46);
  CHECK(count(table3, Verdict::kVulnerable) == 19);
  CHECK(count(table3, Verdict::kNotVulnerable) == 27);
  for (const BenchApp& a : table3) CHECK(a.app.name.find("Cimy") == std::string::npos);

  // Cimy is the one app expected to stay undecided.
  const std::vector<BenchApp> explosion = perfbench::explosion_apps(3);
  CHECK(explosion.size() == 12);
  CHECK(count(explosion, Verdict::kAnalysisIncomplete) == 1);
  CHECK(count(explosion, Verdict::kVulnerable) == 11);

  const std::vector<BenchApp> crawl = perfbench::crawl_apps(3);
  CHECK(crawl.size() == perfbench::kCrawlApps);
  CHECK(count(crawl, Verdict::kVulnerable) == 5);
  CHECK(count(crawl, Verdict::kNotVulnerable) == perfbench::kCrawlApps - 5);
  for (const BenchApp& a : crawl) {
    CHECK(a.app.files.size() >= 3 && a.app.files.size() <= 8);  // 2 + 1..6 filler
  }
}

void test_crawl_size_is_stratified() {
  // Every seed crawls about the same amount of code, so runs with
  // different seeds time the same work.
  std::vector<double> sizes;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sizes.push_back(static_cast<double>(total_bytes(perfbench::crawl_apps(seed))));
  }
  const double lo = *std::min_element(sizes.begin(), sizes.end());
  const double hi = *std::max_element(sizes.begin(), sizes.end());
  CHECK(hi / lo < 1.03);
}

}  // namespace

int main() {
  test_order_statistics();
  test_whole_passes();
  test_rng_is_fixed();
  test_generation_is_seeded();
  test_expected_verdicts();
  test_crawl_size_is_stratified();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
