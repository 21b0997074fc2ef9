#include "runner.h"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/detector/report_io.h"
#include "replay.h"
#include "service/scan_service.h"
#include "stats.h"
#include "support/profile.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = uchecker::core;
namespace service = uchecker::service;
using Clock = std::chrono::steady_clock;
using core::Verdict;

// Set-up is repeated this many times per untraced run; setup_s is the
// median, so one slow start-up does not decide the metric.
constexpr int kSetupReps = 5;
constexpr std::size_t kMaxProblems = 8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One scanning client, one scan at a time, with serial parsing: the
// only threads besides the caller are the service's.
core::ScanOptions bench_options() {
  core::ScanOptions options;
  options.parse_threads = 1;
  return options;
}

// Compares every scan's verdict with the expected answer. Any mismatch,
// or any other broken output check, is a failed operation.
struct Oracle {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t decided = 0;
  std::vector<std::string> problems;

  void check(const BenchApp& app, Verdict got, const std::string& problem = {}) {
    attempted += 1;
    if (got == Verdict::kVulnerable || got == Verdict::kNotVulnerable) decided += 1;
    std::string why = problem;
    if (why.empty() && got != app.expected) {
      why = "verdict " + std::string(core::verdict_name(got)) + ", expected " +
            std::string(core::verdict_name(app.expected));
    }
    if (why.empty()) return;
    failed += 1;
    if (problems.size() < kMaxProblems) problems.push_back(app.app.name + ": " + why);
  }
};

// What one timed scan runs. `problem` is set when an output check other
// than the verdict fails.
class Target {
 public:
  virtual ~Target() = default;
  virtual Verdict scan(std::size_t i, std::string& problem) = 0;
};

// table3_cold: a fresh Detector, so an empty solver cache, per scan.
class ColdTarget final : public Target {
 public:
  explicit ColdTarget(const std::vector<BenchApp>& apps) : apps_(apps) {}
  Verdict scan(std::size_t i, std::string&) override {
    const core::Detector detector(bench_options());
    return detector.scan(apps_[i].app).verdict;
  }

 private:
  const std::vector<BenchApp>& apps_;
};

// crawl_warm, explosion: one long-lived Detector whose solver cache the
// untimed set-up pass fills.
class WarmTarget final : public Target {
 public:
  explicit WarmTarget(const std::vector<BenchApp>& apps)
      : apps_(apps), detector_(bench_options()) {}
  Verdict scan(std::size_t i, std::string&) override {
    return detector_.scan(apps_[i].app).verdict;
  }
  [[nodiscard]] const core::Detector& detector() const { return detector_; }

 private:
  const std::vector<BenchApp>& apps_;
  core::Detector detector_;
};

// service_replay: an in-process ScanService over a primed state
// directory. Set-up scans every app cold through a first service, which
// stores the reports, then restarts the service from that directory.
// A timed request must be a verdict-cache hit whose bytes equal the
// report the cold pass stored; reports the service does not cache
// (degraded scans) are checked by verdict only.
class ServiceTarget final : public Target {
 public:
  ServiceTarget(const std::vector<BenchApp>& apps, std::string state_dir, Oracle& oracle)
      : apps_(apps), state_dir_(std::move(state_dir)) {
    std::filesystem::remove_all(state_dir_);
    service::ServiceOptions options;
    options.state_dir = state_dir_;
    options.workers = 2;
    options.scan = bench_options();
    {
      service::ScanService cold(options);
      if (!cold.start()) throw std::runtime_error("service failed to start");
      for (const BenchApp& app : apps_) {
        std::optional<service::ScanOutcome> out = cold.scan(app.app);
        if (!out.has_value()) throw std::runtime_error("service refused a set-up scan");
        oracle.check(app, out->report.verdict);
        cacheable_.push_back(!out->report.degraded() &&
                             out->report.verdict != Verdict::kAnalysisError);
        stored_.push_back(std::move(out->report_json));
      }
      cold.stop();
    }
    service_ = std::make_unique<service::ScanService>(options);
    if (!service_->start()) throw std::runtime_error("service failed to restart");
  }

  ~ServiceTarget() override {
    service_->stop();
    service_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(state_dir_, ignored);
  }
  ServiceTarget(const ServiceTarget&) = delete;
  ServiceTarget& operator=(const ServiceTarget&) = delete;

  Verdict scan(std::size_t i, std::string& problem) override {
    std::optional<service::ScanOutcome> out = service_->scan(apps_[i].app);
    if (!out.has_value()) {
      problem = "service refused the request";
      return Verdict::kAnalysisError;
    }
    hits_ += out->from_cache ? 1 : 0;
    if (cacheable_[i]) {
      if (!out->from_cache) {
        problem = "not served from the verdict cache";
      } else if (out->report_json != stored_[i]) {
        problem = "replayed report differs from the stored cold-pass report";
      }
    }
    return out->report.verdict;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  const std::vector<BenchApp>& apps_;
  std::string state_dir_;
  std::vector<std::string> stored_;
  std::vector<bool> cacheable_;
  std::unique_ptr<service::ScanService> service_;
  std::uint64_t hits_ = 0;
};

std::string state_dir(const RunConfig& config, const char* tag, int rep) {
  return config.work_dir + "/state-" + config.workload + "-" + tag + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(rep);
}

std::unique_ptr<Target> make_target(const RunConfig& config,
                                    const std::vector<BenchApp>& apps, int rep,
                                    Oracle& oracle) {
  if (config.workload == "table3_cold") return std::make_unique<ColdTarget>(apps);
  if (config.workload == "service_replay") {
    return std::make_unique<ServiceTarget>(apps, state_dir(config, "timed", rep), oracle);
  }
  return std::make_unique<WarmTarget>(apps);
}

// Pass numbers at and above this one order the untimed set-up passes.
constexpr std::size_t kSetupPass = 1u << 20;

void untimed_pass(Target& target, const std::vector<BenchApp>& apps, std::uint64_t seed,
                  std::size_t pass, Oracle& oracle) {
  for (const std::size_t i : pass_order(apps.size(), seed, pass)) {
    std::string problem;
    const Verdict v = target.scan(i, problem);
    oracle.check(apps[i], v, problem);
  }
}

double peak_rss_mb() {
  return static_cast<double>(uchecker::profile::peak_rss_bytes()) / (1024.0 * 1024.0);
}

RunResult finish(const Oracle& oracle, std::vector<Metric> metrics) {
  RunResult result;
  result.attempted = oracle.attempted;
  result.failed = oracle.failed;
  result.problems = oracle.problems;
  result.metrics = std::move(metrics);
  return result;
}

// One set-up: input generation, target start-up and one untimed whole
// pass. Returns its wall time in seconds.
double set_up(const RunConfig& config, int rep, std::vector<BenchApp>& apps,
              std::unique_ptr<Target>& target, Oracle& oracle) {
  const Clock::time_point t0 = Clock::now();
  apps = workload_apps(config.workload, config.seed);
  target = make_target(config, apps, rep, oracle);
  untimed_pass(*target, apps, config.seed, kSetupPass + static_cast<std::size_t>(rep), oracle);
  return seconds_since(t0);
}

// What a forked set-up reports back to the parent.
struct ChildSetUp {
  double seconds = -1.0;  // negative: the set-up threw
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t decided = 0;
};

// Runs one set-up in a forked child, so that every repetition is the
// set-up of a fresh process and leaves no threads, allocator arenas or
// caches behind in the process that runs the timed passes. The caller
// must have no threads of its own. The child's oracle counts are merged
// into `oracle`; it prints its own problems to stderr.
double forked_set_up(const RunConfig& config, int rep, Oracle& oracle) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ChildSetUp out;
    try {
      Oracle child_oracle;
      std::vector<BenchApp> apps;
      std::unique_ptr<Target> target;
      out.seconds = set_up(config, rep, apps, target, child_oracle);
      target.reset();
      out.attempted = child_oracle.attempted;
      out.failed = child_oracle.failed;
      out.decided = child_oracle.decided;
      for (const std::string& p : child_oracle.problems) {
        std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up %d failed: %s\n", rep, e.what());
    }
    const bool sent = ::write(fds[1], &out, sizeof out) == static_cast<ssize_t>(sizeof out);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  ChildSetUp got;
  const ssize_t n = ::read(fds[0], &got, sizeof got);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof got) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got.seconds < 0.0) {
    throw std::runtime_error("set-up " + std::to_string(rep) + " failed in its child process");
  }
  oracle.attempted += got.attempted;
  oracle.failed += got.failed;
  oracle.decided += got.decided;
  return got.seconds;
}

RunResult run_untraced(const RunConfig& config) {
  Oracle oracle;
  std::vector<double> setup_s;
  for (int rep = 1; rep < kSetupReps; ++rep) {
    setup_s.push_back(forked_set_up(config, rep, oracle));
  }
  std::vector<BenchApp> apps;
  std::unique_ptr<Target> target;
  setup_s.push_back(set_up(config, 0, apps, target, oracle));

  PassLog log(apps.size());
  const Clock::time_point start = Clock::now();
  std::size_t pass = 0;
  do {
    const std::vector<std::size_t> order = pass_order(apps.size(), config.seed, pass);
    const Clock::time_point pass_start = Clock::now();
    for (const std::size_t i : order) {
      std::string problem;
      const Clock::time_point t0 = Clock::now();
      const Verdict v = target->scan(i, problem);
      log.record(i, ms_between(t0, Clock::now()));
      oracle.check(apps[i], v, problem);
    }
    log.end_pass(seconds_since(pass_start));
    ++pass;
  } while (seconds_since(start) < config.seconds);
  target.reset();

  // Per-app figures and samples, for reading a run app by app.
  {
    const std::vector<double> best = log.app_best_ms();
    const std::vector<double> medians = log.app_medians_ms();
    std::ofstream out(config.work_dir + "/apps-" + config.workload + "-" +
                      std::to_string(config.seed) + ".tsv");
    out << "app\texpected\tbest_ms\tmedian_ms\tsamples_ms\n";
    for (std::size_t i = 0; i < apps.size(); ++i) {
      out << apps[i].app.name << '\t' << core::verdict_name(apps[i].expected) << '\t'
          << best[i] << '\t' << medians[i] << '\t';
      for (std::size_t k = 0; k < log.passes(); ++k) {
        out << (k > 0 ? "," : "") << log.samples()[i][k];
      }
      out << '\n';
    }
  }

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu apps x %zu timed passes = %zu scans "
               "(%zu samples per app) in %.3f s\nperfbench: set-up times (s):",
               config.workload.c_str(), static_cast<unsigned long long>(config.seed),
               log.apps(), log.passes(), log.scans(), log.passes(), log.wall_s());
  for (const double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\nperfbench: pass wall times (s):");
  for (const double s : log.pass_wall_s()) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  const double attempted = static_cast<double>(oracle.attempted);
  return finish(oracle, {
      {"setup_s", median(setup_s), "s"},
      {"apps_per_s", log.apps_per_s(), "1/s"},
      {"verdict_ms_gmean", log.gmean_ms(), "ms"},
      {"worst_app_ms", log.worst_ms(), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"decided_frac", static_cast<double>(oracle.decided) / attempted, "ratio"},
      {"correct_frac", static_cast<double>(oracle.attempted - oracle.failed) / attempted,
       "ratio"},
  });
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

RunResult run_traced(const RunConfig& config) {
  Oracle oracle;
  const std::vector<BenchApp> apps = workload_apps(config.workload, config.seed);
  const bool cold = config.workload == "table3_cold";
  const core::ScanOptions options = bench_options();
  std::optional<WarmTarget> warm;
  if (!cold) {
    warm.emplace(apps);
    untimed_pass(*warm, apps, config.seed, kSetupPass, oracle);
  }
  // service_replay and table3_cold also send each app through a primed
  // ScanService, so the gated table3_cold measures the service layer;
  // on the other workloads the service.* metrics are 0.
  std::optional<ServiceTarget> probe;
  if (config.workload == "service_replay" || cold) {
    probe.emplace(apps, state_dir(config, "traced", 0), oracle);
    untimed_pass(*probe, apps, config.seed, kSetupPass + 1, oracle);
  }

  SpanRecorder spans;
  LayerCounts counts;
  double scan_ms = 0.0;
  double replay_ms = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  const std::uint64_t hits_before = probe ? probe->hits() : 0;
  const Clock::time_point start = Clock::now();
  std::size_t passes = 0;
  do {
    for (const std::size_t i : pass_order(apps.size(), config.seed, passes)) {
      const BenchApp& app = apps[i];
      const auto id = static_cast<std::uint32_t>(i);
      core::SolverQueryCache fresh;
      core::SolverQueryCache& cache = cold ? fresh : warm->detector().query_cache();
      Verdict replayed = Verdict::kAnalysisError;
      const auto replay = [&] {
        const Clock::time_point t0 = Clock::now();
        replayed = replay_scan(app.app, options, cache, id, spans, counts);
        replay_ms += ms_between(t0, Clock::now());
      };
      core::ScanReport report;
      const auto scan = [&] {
        const Clock::time_point t0 = Clock::now();
        report = cold ? core::Detector(options).scan(app.app) : warm->detector().scan(app.app);
        scan_ms += ms_between(t0, Clock::now());
      };
      // Whichever runs second finds the app's data in the CPU caches;
      // alternating the order gives neither side that advantage.
      if (passes % 2 == 0) {
        replay();
        scan();
      } else {
        scan();
        replay();
      }
      {
        const SpanRecorder::Scope s(spans, "report", id);
        const std::string json = core::to_json(report);
        if (json.empty()) throw std::logic_error("empty report JSON");
      }
      std::string problem;
      if (replayed != report.verdict) {
        mismatches += 1;
        problem = "replay verdict " + std::string(core::verdict_name(replayed)) +
                  " differs from Detector::scan verdict " +
                  std::string(core::verdict_name(report.verdict));
      }
      oracle.check(app, report.verdict, problem);
      if (!probe) continue;

      {
        const SpanRecorder::Scope s(spans, "service.verdict_key", id);
        if (service::ScanService::verdict_key(app.app, options).empty()) {
          throw std::logic_error("empty verdict key");
        }
      }
      std::string service_problem;
      Verdict served = Verdict::kAnalysisError;
      {
        const SpanRecorder::Scope s(spans, "service.request", id);
        served = probe->scan(i, service_problem);
      }
      oracle.check(app, served, service_problem);
      requests += 1;
    }
    ++passes;
  } while (seconds_since(start) < config.seconds);

  std::vector<std::string> names;
  for (const BenchApp& app : apps) names.push_back(app.app.name);
  std::filesystem::create_directories(config.work_dir);
  const std::string span_file = config.work_dir + "/spans-" + config.workload + "-" +
                                std::to_string(config.seed) + ".json";
  std::ofstream(span_file) << spans.to_chrome_json(names);

  const auto n = static_cast<double>(counts.scans);
  const auto p = static_cast<double>(passes);
  const auto per_scan = [&](const char* name) { return spans.total_ms(name) / n; };
  double layers_ms = 0.0;
  for (const char* layer : kScanLayers) layers_ms += spans.total_ms(layer);
  // The traced pipeline is the replay without its token-counting re-lex.
  const double traced_ms = replay_ms - spans.total_ms("phplex");
  const double untraced_aps = n / (scan_ms / 1e3);
  const double traced_aps = n / (traced_ms / 1e3);
  std::fprintf(stderr,
               "perfbench: %s seed %llu traced: %zu apps x %zu passes, %zu spans "
               "written to %s, %llu replay/scan verdict mismatches\n",
               config.workload.c_str(), static_cast<unsigned long long>(config.seed),
               apps.size(), passes, spans.spans().size(), span_file.c_str(),
               static_cast<unsigned long long>(mismatches));
  return finish(oracle, {
      {"source.ms", per_scan("source"), "ms"},
      {"phplex.ms", per_scan("phplex"), "ms"},
      {"phplex.tokens_per_ms", static_cast<double>(counts.tokens) / spans.total_ms("phplex"),
       "tokens/ms"},
      {"phpparse.ms", per_scan("phpparse"), "ms"},
      {"phpparse.kloc_per_s",
       static_cast<double>(counts.total_loc) / spans.total_ms("phpparse"), "kloc/s"},
      {"callgraph.program_ms", per_scan("callgraph.program"), "ms"},
      {"callgraph.graph_ms", per_scan("callgraph.graph"), "ms"},
      {"locality.ms", per_scan("locality"), "ms"},
      {"locality.roots", static_cast<double>(counts.roots) / p, "count"},
      {"locality.analyzed_frac", frac(counts.analyzed_loc, counts.total_loc), "ratio"},
      {"staticpass.summary_ms", per_scan("staticpass.summary"), "ms"},
      {"staticpass.root_ms", per_scan("staticpass.root"), "ms"},
      {"staticpass.pruned_frac", frac(counts.pruned_roots, counts.roots), "ratio"},
      {"staticpass.summary_hit_frac", frac(counts.summary_hits, counts.summary_lookups),
       "ratio"},
      {"smt.setup_ms", per_scan("smt.setup"), "ms"},
      {"smt.checks", static_cast<double>(counts.smt_checks) / p, "count"},
      {"smt.retries", static_cast<double>(counts.smt_retries) / p, "count"},
      {"interp.ms", per_scan("interp"), "ms"},
      {"interp.paths", static_cast<double>(counts.paths) / p, "count"},
      {"interp.objects", static_cast<double>(counts.objects) / p, "count"},
      {"interp.cons_hit_frac", frac(counts.cons_hits, counts.cons_hits + counts.objects),
       "ratio"},
      {"interp.budget_exhausted_roots", static_cast<double>(counts.budget_exhausted_roots) / p,
       "count"},
      {"interp.accounted_mb",
       static_cast<double>(counts.max_accounted_bytes) / (1024.0 * 1024.0), "MB"},
      {"vulnmodel.ms", per_scan("vulnmodel"), "ms"},
      {"vulnmodel.sinks", static_cast<double>(counts.sinks) / p, "count"},
      {"vulnmodel.cache_hit_frac",
       frac(counts.sink_cache_hits, counts.sink_cache_hits + counts.sink_solver_calls),
       "ratio"},
      {"report.ms", per_scan("report"), "ms"},
      {"detector.scan_ms", scan_ms / n, "ms"},
      {"detector.unattributed_frac", 1.0 - layers_ms / scan_ms, "ratio"},
      {"trace.untraced_apps_per_s", untraced_aps, "1/s"},
      {"trace.traced_apps_per_s", traced_aps, "1/s"},
      {"trace.overhead_frac", 1.0 - traced_aps / untraced_aps, "ratio"},
      {"service.verdict_key_ms", spans.total_ms("service.verdict_key") / n, "ms"},
      {"service.request_ms", spans.total_ms("service.request") / n, "ms"},
      {"service.hit_frac", frac(probe ? probe->hits() - hits_before : 0, requests), "ratio"},
  });
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  if (!is_workload(config.workload)) {
    throw std::invalid_argument("unknown workload: " + config.workload);
  }
  std::filesystem::create_directories(config.work_dir);
  return config.trace ? run_traced(config) : run_untraced(config);
}

std::string result_json(const RunResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) throw std::logic_error("metric " + m.name + " is not finite");
    out << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
