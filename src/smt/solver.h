// Thin RAII layer over the Z3 C++ API.
//
// Keeps Z3 usage in one place: context ownership, solver configuration
// (timeouts), satisfiability checking with exception containment, and
// model extraction. The translation module builds z3::expr terms through
// the context exposed here; everything downstream of the detector sees
// only SatResult / SolverOutcome values.
//
// Robustness: check() never lets a z3::exception escape, clamps its
// timeout to any attached scan Deadline, and retries *retryable*
// unknowns (Z3 timeouts/cancellations and TransientError fault
// injections) with escalating timeouts — 1x, 2x, 4x the configured base,
// capped at kTimeoutEscalationCap — recording every attempt in the
// returned SolverOutcome.
#pragma once

#include <z3++.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/deadline.h"

namespace uchecker::telemetry {
class ScanTrace;
class Telemetry;
}  // namespace uchecker::telemetry

namespace uchecker::profile {
class PathProfiler;
}  // namespace uchecker::profile

namespace uchecker::smt {

enum class SatResult : std::uint8_t { kSat, kUnsat, kUnknown };

[[nodiscard]] std::string_view sat_result_name(SatResult r);

// A satisfying assignment, rendered as strings for reporting. For an
// unrestricted-file-upload finding this typically shows e.g.
//   s_ext = "php", s_filename = "x"
struct Model {
  std::map<std::string, std::string> assignments;

  [[nodiscard]] std::string to_string() const;
};

struct SolverOutcome {
  SatResult result = SatResult::kUnknown;
  std::optional<Model> model;   // present iff result == kSat
  std::string error;            // populated when Z3 threw / timed out
  // Retry bookkeeping: how many solve attempts ran and the timeout (ms)
  // each one was given. attempts == 1 for a clean first solve;
  // non-retryable failures never retry.
  unsigned attempts = 0;
  std::vector<unsigned> attempt_timeouts_ms;
  // True when the scan deadline expired (or the scan was cancelled)
  // before or during solving; such outcomes are never retried.
  bool deadline_exceeded = false;
};

// Renders `constraints` as one SMT-LIB benchmark, byte-identical to
// z3::solver::to_smt2() on a solver holding the same assertions: every
// constraint but the last is an assertion and the last is the formula
// (`true` when there are none, built in `ctx`). All constraints must
// belong to `ctx`.
[[nodiscard]] std::string to_smt2(z3::context& ctx,
                                  const std::vector<z3::expr>& constraints);

// Owns the z3::context that query terms are built in. The context is
// created on the first ctx() call, so a scan whose roots the static pass
// prunes never pays for one. check() prints the constraints with
// to_smt2() and solves the text with a `simple` solver in a fresh
// scratch context per attempt (solver.cc says why). Not thread-safe (Z3
// contexts are not); create one Checker per scan thread.
class Checker {
 public:
  // Escalated per-attempt timeouts never exceed this.
  static constexpr unsigned kTimeoutEscalationCap = 60'000;

  explicit Checker(unsigned timeout_ms = 5000, unsigned max_retries = 2);

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  [[nodiscard]] z3::context& ctx() {
    if (!ctx_.has_value()) ctx_.emplace();
    return *ctx_;
  }

  // Bounds all subsequent check() calls: per-attempt timeouts are
  // clamped to the remaining wall-clock time, and an already-expired
  // deadline short-circuits to kUnknown without invoking Z3.
  void set_deadline(Deadline deadline) { deadline_ = std::move(deadline); }
  [[nodiscard]] const Deadline& deadline() const { return deadline_; }

  // Attaches telemetry (both optional, default detached). With a trace,
  // every check() records a "solve" span plus a latency sample carrying
  // attempt count and timeout escalations; with a Telemetry, solver
  // counters (checks, sat/unsat/unknown, retries) and the
  // "solver.latency_ms" histogram are updated.
  void set_telemetry(telemetry::Telemetry* telemetry,
                     telemetry::ScanTrace* trace) {
    telemetry_ = telemetry;
    trace_ = trace;
  }
  [[nodiscard]] telemetry::ScanTrace* trace() const { return trace_; }

  // Attaches the path-explosion profiler (null detaches — the default,
  // one pointer test per check). With a profiler, every check()'s wall
  // time and query count are attributed to the origin set by
  // set_query_origin; the vulnerability model also records its warm
  // SolverQueryCache/memo hits against the same origins.
  void set_profiler(profile::PathProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] profile::PathProfiler* profiler() const { return profiler_; }

  // Names the sink occurrence issuing subsequent check() calls: the
  // sink function plus the raw (file id, line) of the call site. The
  // vulnerability model sets this before each sink's constraint checks.
  void set_query_origin(std::string sink, std::uint32_t file,
                        std::uint32_t line) {
    origin_sink_ = std::move(sink);
    origin_file_ = file;
    origin_line_ = line;
  }

  // Checks the conjunction of `constraints`. Any z3::exception is caught
  // and converted into an outcome with result == kUnknown.
  [[nodiscard]] SolverOutcome check(const std::vector<z3::expr>& constraints);

  // Convenience for a single constraint.
  [[nodiscard]] SolverOutcome check(const z3::expr& constraint);

  // Total number of check() calls, for benchmark accounting.
  [[nodiscard]] std::uint64_t check_count() const { return check_count_; }

  // Total retry attempts (beyond each check's first) across all checks.
  [[nodiscard]] std::uint64_t retry_count() const { return retry_count_; }

 private:
  std::optional<z3::context> ctx_;
  unsigned timeout_ms_;
  unsigned max_retries_;
  Deadline deadline_;
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::ScanTrace* trace_ = nullptr;
  profile::PathProfiler* profiler_ = nullptr;
  std::string origin_sink_;
  std::uint32_t origin_file_ = 0;
  std::uint32_t origin_line_ = 0;
  std::uint64_t check_count_ = 0;
  std::uint64_t retry_count_ = 0;
};

}  // namespace uchecker::smt
