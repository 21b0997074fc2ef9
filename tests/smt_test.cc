// Tests for the Z3 wrapper layer.
#include "smt/solver.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "support/deadline.h"
#include "support/fault_injector.h"

namespace uchecker::smt {
namespace {

TEST(Checker, SatWithModel) {
  Checker checker;
  z3::context& ctx = checker.ctx();
  const z3::expr x = ctx.string_const("x");
  const SolverOutcome outcome =
      checker.check(z3::suffixof(ctx.string_val(".php"), x));
  EXPECT_EQ(outcome.result, SatResult::kSat);
  ASSERT_TRUE(outcome.model.has_value());
  EXPECT_TRUE(outcome.model->assignments.contains("x"));
}

TEST(Checker, Unsat) {
  Checker checker;
  z3::context& ctx = checker.ctx();
  const z3::expr x = ctx.int_const("x");
  const SolverOutcome outcome = checker.check({x > 5, x < 3});
  EXPECT_EQ(outcome.result, SatResult::kUnsat);
  EXPECT_FALSE(outcome.model.has_value());
}

TEST(Checker, ConjunctionOfConstraints) {
  Checker checker;
  z3::context& ctx = checker.ctx();
  const z3::expr s = ctx.string_const("s");
  const SolverOutcome outcome = checker.check(
      {z3::suffixof(ctx.string_val(".php"), s),
       s.length() == 7});
  EXPECT_EQ(outcome.result, SatResult::kSat);
}

TEST(Checker, StringTheoryOperations) {
  Checker checker;
  z3::context& ctx = checker.ctx();
  const z3::expr a = ctx.string_val("upload");
  const z3::expr b = ctx.string_val(".php");
  // concat("upload", ".php") has length 10 and ends with ".php".
  const z3::expr cat = z3::concat(a, b);
  EXPECT_EQ(checker.check(cat.length() == 10).result, SatResult::kSat);
  EXPECT_EQ(checker.check(cat.length() != 10).result, SatResult::kUnsat);
  EXPECT_EQ(checker.check(!z3::suffixof(b, cat)).result, SatResult::kUnsat);
}

TEST(Checker, CountsChecks) {
  Checker checker;
  z3::context& ctx = checker.ctx();
  EXPECT_EQ(checker.check_count(), 0u);
  (void)checker.check(ctx.bool_val(true));
  (void)checker.check(ctx.bool_val(false));
  EXPECT_EQ(checker.check_count(), 2u);
}

TEST(Checker, TrivialBooleans) {
  Checker checker;
  z3::context& ctx = checker.ctx();
  EXPECT_EQ(checker.check(ctx.bool_val(true)).result, SatResult::kSat);
  EXPECT_EQ(checker.check(ctx.bool_val(false)).result, SatResult::kUnsat);
}

TEST(Model, ToStringIsStable) {
  Model m;
  m.assignments["b"] = "\"y\"";
  m.assignments["a"] = "\"x\"";
  EXPECT_EQ(m.to_string(), "a = \"x\", b = \"y\"");
}

TEST(SatResultName, AllValues) {
  EXPECT_EQ(sat_result_name(SatResult::kSat), "sat");
  EXPECT_EQ(sat_result_name(SatResult::kUnsat), "unsat");
  EXPECT_EQ(sat_result_name(SatResult::kUnknown), "unknown");
}

// ---------------------------------------------------------------------------
// Failure containment and retry escalation.

class CheckerFaults : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

TEST_F(CheckerFaults, ExceptionPathPopulatesErrorWithoutRetry) {
  // A permanent (non-transient) exception inside the solve attempt is
  // contained: kUnknown + error, and no escalation retry is wasted.
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrow,
                                std::chrono::milliseconds{0}, 1);
  Checker checker(100, 2);
  const SolverOutcome outcome = checker.check(checker.ctx().bool_val(true));
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.model.has_value());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(checker.retry_count(), 0u);
}

TEST_F(CheckerFaults, TransientFailureRetriesWithEscalatedTimeouts) {
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrowTransient,
                                std::chrono::milliseconds{0}, /*max_hits=*/1);
  Checker checker(100, 2);
  const SolverOutcome outcome = checker.check(checker.ctx().bool_val(true));
  // Attempt 1 failed transiently; attempt 2 ran with a doubled timeout
  // and succeeded.
  EXPECT_EQ(outcome.result, SatResult::kSat);
  EXPECT_EQ(outcome.attempts, 2u);
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 2u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[0], 100u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[1], 200u);
  EXPECT_EQ(checker.retry_count(), 1u);
  EXPECT_TRUE(outcome.error.empty());
}

TEST_F(CheckerFaults, RetryBudgetExhaustsAtOneTwoFourTimes) {
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrowTransient,
                                std::chrono::milliseconds{0}, -1);
  Checker checker(100, 2);
  const SolverOutcome outcome = checker.check(checker.ctx().bool_val(true));
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(outcome.attempts, 3u);  // 1 initial + 2 retries
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 3u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[0], 100u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[1], 200u);
  EXPECT_EQ(outcome.attempt_timeouts_ms[2], 400u);
  EXPECT_EQ(checker.retry_count(), 2u);
}

TEST_F(CheckerFaults, EscalationRespectsCap) {
  FaultInjector::instance().arm("solve-attempt",
                                FaultInjector::Action::kThrowTransient,
                                std::chrono::milliseconds{0}, -1);
  Checker checker(Checker::kTimeoutEscalationCap, 2);
  const SolverOutcome outcome = checker.check(checker.ctx().bool_val(true));
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 3u);
  for (const unsigned t : outcome.attempt_timeouts_ms) {
    EXPECT_EQ(t, Checker::kTimeoutEscalationCap);
  }
}

TEST(CheckerDeadline, ExpiredDeadlineShortCircuits) {
  Checker checker;
  checker.set_deadline(Deadline::after(std::chrono::milliseconds{0}));
  const SolverOutcome outcome = checker.check(checker.ctx().bool_val(true));
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_TRUE(outcome.deadline_exceeded);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.model.has_value());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(checker.retry_count(), 0u);  // deadline unknowns never retry
}

TEST(CheckerDeadline, RemainingTimeClampsAttemptTimeout) {
  Checker checker(5000, 2);
  checker.set_deadline(Deadline::after(std::chrono::milliseconds{50}));
  const SolverOutcome outcome = checker.check(checker.ctx().bool_val(true));
  EXPECT_EQ(outcome.result, SatResult::kSat);
  ASSERT_EQ(outcome.attempt_timeouts_ms.size(), 1u);
  EXPECT_LE(outcome.attempt_timeouts_ms[0], 50u);
  EXPECT_GE(outcome.attempt_timeouts_ms[0], 1u);
}

TEST(CheckerDeadline, CancellationReportsCancelled) {
  CancellationSource cancel;
  Deadline deadline;  // unlimited, but carries the token
  deadline.attach(cancel.token());
  Checker checker;
  checker.set_deadline(deadline);
  cancel.cancel();
  const SolverOutcome outcome = checker.check(checker.ctx().bool_val(true));
  EXPECT_EQ(outcome.result, SatResult::kUnknown);
  EXPECT_TRUE(outcome.deadline_exceeded);
  EXPECT_NE(outcome.error.find("cancelled"), std::string::npos);
}

TEST(Checker, GenuineTimeoutPopulatesError) {
  // A word equation whose unsatisfiability needs a parity argument the
  // sequence solver searches for unboundedly: x.x = y.y."a" with long
  // minimum lengths. A 20 ms budget cancels the search; the cancellation
  // must surface as a retried kUnknown with a reason, never a hang.
  Checker checker(20, 1);
  z3::context& ctx = checker.ctx();
  const z3::expr x = ctx.string_const("x");
  const z3::expr y = ctx.string_const("y");
  const SolverOutcome outcome = checker.check(
      {z3::concat(x, x) == z3::concat(z3::concat(y, y), ctx.string_val("a")),
       x.length() > 2000, y.length() > 1000});
  if (outcome.result == SatResult::kUnknown) {
    EXPECT_FALSE(outcome.error.empty());
    EXPECT_GE(outcome.attempts, 1u);
    EXPECT_EQ(outcome.attempts, outcome.attempt_timeouts_ms.size());
  }
}

TEST(Checker, IntStringConversions) {
  Checker checker;
  z3::context& ctx = checker.ctx();
  const z3::expr n = ctx.int_val(42);
  EXPECT_EQ(checker.check(n.itos() == ctx.string_val("42")).result,
            SatResult::kSat);
  EXPECT_EQ(checker.check(ctx.string_val("17").stoi() == 17).result,
            SatResult::kSat);
}

// ---------------------------------------------------------------------------
// SMT-LIB serialization. check() parses to_smt2()'s text in its scratch
// context, so the text must be exactly what a solver holding the same
// assertions prints: the bytes decide the scratch context's AST order.

std::string solver_text(z3::context& ctx,
                        const std::vector<z3::expr>& constraints) {
  z3::solver solver(ctx);
  for (const z3::expr& c : constraints) solver.add(c);
  return solver.to_smt2();
}

TEST(ToSmt2, MatchesSolverOnBool) {
  z3::context ctx;
  const z3::expr a = ctx.bool_const("a");
  const z3::expr b = ctx.bool_const("b");
  const std::vector<z3::expr> constraints{a || b, !a, z3::implies(b, a)};
  EXPECT_EQ(to_smt2(ctx, constraints), solver_text(ctx, constraints));
}

TEST(ToSmt2, MatchesSolverOnInt) {
  z3::context ctx;
  const z3::expr x = ctx.int_const("x");
  const z3::expr y = ctx.int_const("y");
  const std::vector<z3::expr> one{x + 1 == y};
  EXPECT_EQ(to_smt2(ctx, one), solver_text(ctx, one));
  const std::vector<z3::expr> two{x > 5, x < 3};
  EXPECT_EQ(to_smt2(ctx, two), solver_text(ctx, two));
}

TEST(ToSmt2, MatchesSolverOnStrings) {
  z3::context ctx;
  const z3::expr name = ctx.string_const("s_filename");
  const z3::expr ext = ctx.string_const("s_ext");
  const z3::expr dst =
      z3::concat(z3::concat(ctx.string_val("/u/"), name),
                 z3::concat(ctx.string_val("."), ext));
  const std::vector<z3::expr> constraints{
      !ext.contains(ctx.string_val(".")),
      !ext.contains(ctx.string_val("/")),
      z3::suffixof(ctx.string_val(".php"), dst)};
  const std::string text = to_smt2(ctx, constraints);
  EXPECT_EQ(text, solver_text(ctx, constraints));
  EXPECT_NE(text.find("str.suffixof"), std::string::npos);
  EXPECT_NE(text.find("str.contains"), std::string::npos);
}

TEST(ToSmt2, MatchesSolverWhenEmpty) {
  z3::context ctx;
  const std::string text = to_smt2(ctx, {});
  EXPECT_EQ(text, solver_text(ctx, {}));
  // Z3 drops the `true` formula: an empty set prints no assertion.
  EXPECT_EQ(text.find("(assert"), std::string::npos) << text;
  EXPECT_NE(text.find("(check-sat)"), std::string::npos) << text;
}

TEST(Checker, EmptyConjunctionIsSatOnFreshChecker) {
  // No ctx() call before check(): the context is created on demand.
  Checker checker;
  const SolverOutcome outcome = checker.check(std::vector<z3::expr>{});
  EXPECT_EQ(outcome.result, SatResult::kSat);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(checker.check_count(), 1u);
}

}  // namespace
}  // namespace uchecker::smt
