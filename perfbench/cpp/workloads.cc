#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "corpus/corpus.h"

namespace perfbench {

using uchecker::core::Application;
using uchecker::core::AppFile;
using uchecker::core::Verdict;
namespace corpus = uchecker::corpus;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::between(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view label,
                          std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the label
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  Rng mix(seed ^ h);
  Rng again(mix.next() ^ index);
  return again.next();
}

namespace {

// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.next() % i]);
  }
  return p;
}

std::string app_label(const char* kind, std::uint64_t seed, std::size_t index) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-%08llx-%03zu", kind,
                static_cast<unsigned long long>(derive_seed(seed, kind) & 0xFFFFFFFFULL),
                index);
  return buf;
}

// Splits `loc` lines of seeded filler over `files` extra files of `app`.
void add_filler(Application& app, std::size_t loc, int files, std::uint64_t seed) {
  for (int f = 0; f < files; ++f) {
    const auto file_seed = static_cast<unsigned>(
        derive_seed(seed, "filler-file", static_cast<std::uint64_t>(f)));
    app.files.push_back(AppFile{
        app.name + "-inc-" + std::to_string(f) + ".php",
        corpus::filler_php(loc / static_cast<std::size_t>(files), file_seed,
                           "lib" + std::to_string(f))});
  }
}

Verdict flag_verdict(bool flagged) {
  return flagged ? Verdict::kVulnerable : Verdict::kNotVulnerable;
}

bool is_cimy(const corpus::CorpusEntry& e) {
  return e.app.name.rfind("Cimy User Extra Fields", 0) == 0;
}

}  // namespace

bool is_workload(std::string_view name) {
  for (const std::string_view w : kWorkloads) {
    if (w == name) return true;
  }
  return false;
}

std::vector<BenchApp> table3_apps() {
  std::vector<BenchApp> out;
  for (corpus::CorpusEntry& e : corpus::full_corpus()) {
    if (is_cimy(e)) continue;
    out.push_back(BenchApp{std::move(e.app), flag_verdict(e.paper_flagged_by_uchecker)});
  }
  for (corpus::CorpusEntry& e : corpus::helper_sink_suite()) {
    out.push_back(BenchApp{std::move(e.app), flag_verdict(e.ground_truth_vulnerable)});
  }
  return out;
}

std::vector<BenchApp> crawl_apps(std::uint64_t seed) {
  // Filler sizes and file counts are stratified: slot k draws its size
  // from the k-th of kCrawlApps equal-probability bands of the log-uniform
  // 1k-40k LoC distribution, and every file count 1-6 is used equally
  // often. The seed picks the values inside each band and which app gets
  // which, so every seed crawls the same amount of code.
  constexpr double kMinLoc = 1000.0;
  constexpr double kMaxLoc = 40000.0;
  constexpr std::size_t kVulnerable = 5;  // ~4% of 120
  const std::vector<std::size_t> size_slot = permutation(kCrawlApps, derive_seed(seed, "crawl-size"));
  const std::vector<std::size_t> file_slot = permutation(kCrawlApps, derive_seed(seed, "crawl-files"));
  const std::vector<std::size_t> vuln_slot = permutation(kCrawlApps, derive_seed(seed, "crawl-vuln"));
  Rng band(derive_seed(seed, "crawl-band"));

  std::vector<BenchApp> out;
  out.reserve(kCrawlApps);
  for (std::size_t k = 0; k < kCrawlApps; ++k) {
    const double u = (static_cast<double>(size_slot[k]) + band.uniform()) /
                     static_cast<double>(kCrawlApps);
    const auto loc = static_cast<std::size_t>(kMinLoc * std::pow(kMaxLoc / kMinLoc, u));
    const int files = 1 + static_cast<int>(file_slot[k] % 6);
    const bool vulnerable = vuln_slot[k] < kVulnerable;

    corpus::SynthSpec spec;
    spec.name = app_label("plugin", seed, k);
    spec.vulnerable = vulnerable;
    spec.filler_loc = 0;
    spec.filler_files = 0;
    BenchApp app{corpus::synth_app(spec), flag_verdict(vulnerable)};
    add_filler(app.app, loc, files, derive_seed(seed, "crawl-filler", k));
    out.push_back(std::move(app));
  }
  return out;
}

std::vector<BenchApp> explosion_apps(std::uint64_t seed) {
  std::vector<BenchApp> out;
  for (corpus::CorpusEntry& e : corpus::known_vulnerable()) {
    const std::string& n = e.app.name;
    const bool chosen = n.rfind("Avatar Uploader", 0) == 0 ||
                        n.rfind("Simple Ad Manager", 0) == 0 ||
                        n.rfind("wp-Powerplaygallery", 0) == 0;
    if (is_cimy(e)) {
      // Table III's one false negative: the path budget runs out.
      out.push_back(BenchApp{std::move(e.app), Verdict::kAnalysisIncomplete});
    } else if (chosen) {
      out.push_back(BenchApp{std::move(e.app), flag_verdict(e.paper_flagged_by_uchecker)});
    }
  }
  if (out.size() != 4) throw std::logic_error("explosion: corpus apps not found");

  // One synthetic app per (ifs, switch) shape, so every seed runs the
  // same path counts: 2^(ifs+1) * max(1, ways) = 4k..98k paths, all under
  // the default 100k budget.
  Rng rng(derive_seed(seed, "explosion"));
  std::size_t index = 0;
  for (int ifs = 11; ifs <= 14; ++ifs) {
    for (const int ways : {0, 3}) {
      corpus::SynthSpec spec;
      spec.name = app_label("deep", seed, index);
      spec.sequential_ifs = ifs;
      spec.switch_ways = ways;
      spec.vulnerable = true;
      spec.filler_loc = 0;
      spec.filler_files = 0;
      BenchApp app{corpus::synth_app(spec), Verdict::kVulnerable};
      add_filler(app.app, static_cast<std::size_t>(rng.between(500, 1500)), 1,
                 derive_seed(seed, "explosion-filler", index));
      out.push_back(std::move(app));
      ++index;
    }
  }
  return out;
}

std::vector<BenchApp> workload_apps(std::string_view workload, std::uint64_t seed) {
  if (workload == "table3_cold") return table3_apps();
  if (workload == "crawl_warm" || workload == "service_replay") return crawl_apps(seed);
  if (workload == "explosion") return explosion_apps(seed);
  throw std::invalid_argument("unknown workload: " + std::string(workload));
}

std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed, std::size_t pass) {
  return permutation(n, derive_seed(seed, "pass-order", pass));
}

}  // namespace perfbench
