// The traced run's layer replay: the calls Detector::scan makes, in the
// same order, each wrapped in a span recorded from outside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/detector/detector.h"

namespace perfbench {

// Spans kept in memory and written out when the run ends.
class SpanRecorder {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name;  // a string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint32_t app;
  };

  // RAII: the span ends when the scope object is destroyed.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint32_t app,
          std::int32_t parent = kNoParent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int32_t id() const { return id_; }

   private:
    SpanRecorder& recorder_;
    std::int32_t id_;
  };

  SpanRecorder();

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Summed duration (ms) of every span named `name`.
  [[nodiscard]] double total_ms(const std::string& name) const;
  // Chrome trace-event JSON, one complete event per span.
  [[nodiscard]] std::string to_chrome_json(const std::vector<std::string>& app_names) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Work counts gathered at the same layer boundaries as the spans, summed
// over every replayed scan.
struct LayerCounts {
  std::uint64_t scans = 0;
  std::uint64_t tokens = 0;
  std::uint64_t total_loc = 0;
  std::uint64_t analyzed_loc = 0;
  std::uint64_t roots = 0;
  std::uint64_t pruned_roots = 0;
  std::uint64_t summary_hits = 0;
  std::uint64_t summary_lookups = 0;
  std::uint64_t paths = 0;
  std::uint64_t objects = 0;
  std::uint64_t cons_hits = 0;
  std::uint64_t budget_exhausted_roots = 0;
  std::uint64_t max_accounted_bytes = 0;  // largest single scan
  std::uint64_t sinks = 0;
  std::uint64_t sink_cache_hits = 0;   // sinks answered by SolverQueryCache
  std::uint64_t sink_solver_calls = 0; // sinks that went to Z3
  std::uint64_t smt_checks = 0;
  std::uint64_t smt_retries = 0;
};

// Replays one scan of `app` layer by layer, recording one "replay" span
// with the layer spans under it. Solver outcomes go through `cache`, as
// Detector::scan's go through Detector::query_cache(). Returns the
// verdict Detector::scan would reach from the same layer results.
[[nodiscard]] uchecker::core::Verdict replay_scan(
    const uchecker::core::Application& app, const uchecker::core::ScanOptions& options,
    uchecker::core::SolverQueryCache& cache, std::uint32_t app_id,
    SpanRecorder& spans, LayerCounts& counts);

// Layer span names, in pipeline order. "phplex" re-lexes each file only
// to count tokens (parse_files lexes internally) and "report" renders the
// Detector::scan report; neither is part of the replayed scan.
inline constexpr const char* kScanLayers[] = {
    "source", "phpparse", "callgraph.program", "callgraph.graph", "locality",
    "staticpass.summary", "staticpass.root", "smt.setup", "interp", "vulnmodel"};

}  // namespace perfbench
