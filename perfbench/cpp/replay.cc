#include "replay.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "core/staticpass/summaries.h"
#include "phplex/lexer.h"
#include "phpparse/parse_pool.h"
#include "smt/solver.h"
#include "support/arena.h"

namespace perfbench {

namespace core = uchecker::core;
namespace staticpass = uchecker::core::staticpass;
using uchecker::Arena;
using uchecker::Deadline;
using uchecker::DiagnosticSink;
using uchecker::SourceFile;
using uchecker::SourceManager;

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint32_t app, std::int32_t parent)
    : recorder_(recorder), id_(static_cast<std::int32_t>(recorder.spans_.size())) {
  recorder_.spans_.push_back(Span{name, recorder_.now_ns(), 0, parent, app});
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[static_cast<std::size_t>(id_)].end_ns = recorder_.now_ns();
}

double SpanRecorder::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

std::string SpanRecorder::to_chrome_json(const std::vector<std::string>& app_names) const {
  std::ostringstream out;
  out.precision(15);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"app\":" << s.app << ",\"app_name\":\"";
    // App names are generated or corpus titles: no quotes or backslashes.
    out << (s.app < app_names.size() ? app_names[s.app] : std::string()) << "\"}}";
  }
  out << "]}\n";
  return out.str();
}

core::Verdict replay_scan(const core::Application& app, const core::ScanOptions& options,
                          core::SolverQueryCache& cache, std::uint32_t app_id,
                          SpanRecorder& spans, LayerCounts& counts) {
  using Scope = SpanRecorder::Scope;
  const Scope scan_span(spans, "replay", app_id);
  const std::int32_t top = scan_span.id();
  counts.scans += 1;

  // Every structure is destroyed explicitly inside its layer's span, as
  // its destructor is part of what Detector::scan pays for that layer.
  std::optional<SourceManager> sources;
  std::vector<const SourceFile*> files;
  {
    const Scope s(spans, "source", app_id, top);
    sources.emplace();
    for (const core::AppFile& f : app.files) {
      files.push_back(sources->file(sources->add_file(f.name, f.content)));
    }
  }
  {
    const Scope s(spans, "phplex", app_id, top);
    for (const SourceFile* f : files) {
      Arena arena;
      DiagnosticSink lex_diags;
      counts.tokens += uchecker::phplex::lex_file(*f, lex_diags, arena).size();
    }
  }
  DiagnosticSink diags;
  diags.set_phase("parse");
  std::optional<std::vector<uchecker::phpparse::ParsedUnit>> units;
  {
    const Scope s(spans, "phpparse", app_id, top);
    units = uchecker::phpparse::parse_files(
        files, uchecker::phpparse::resolve_parse_threads(options.parse_threads, files.size()));
    for (const auto& unit : *units) diags.merge(unit.diags);
  }
  counts.total_loc += sources->total_loc();

  std::optional<core::Program> program;
  {
    const Scope s(spans, "callgraph.program", app_id, top);
    std::vector<const uchecker::phpast::PhpFile*> asts;
    for (const auto& unit : *units) {
      if (unit.attempted && unit.error == nullptr) asts.push_back(&unit.ast);
    }
    program = core::build_program(asts);
  }
  diags.set_phase("locality");
  std::optional<core::CallGraph> graph;
  {
    const Scope s(spans, "callgraph.graph", app_id, top);
    graph = core::build_call_graph(*program, options.sinks);
  }
  core::LocalityResult locality;
  {
    const Scope s(spans, "locality", app_id, top);
    locality = core::analyze_locality(*program, *graph, *sources, options.locality);
  }
  counts.roots += locality.roots.size();
  counts.analyzed_loc += locality.analyzed_loc;

  bool vulnerable = false;
  bool incomplete = false;
  if (!locality.roots.empty()) {
    diags.set_phase("staticpass");
    staticpass::StaticPassOptions pass_options;
    pass_options.executable_extensions = options.vuln.executable_extensions;
    std::optional<staticpass::SummaryStore> summaries;
    if (options.summaries) {
      const Scope s(spans, "staticpass.summary", app_id, top);
      summaries.emplace(*program, *graph, *sources, options.sinks, pass_options);
      pass_options.summaries = &*summaries;
    }
    std::vector<staticpass::RootAnalysis> pre;
    {
      const Scope s(spans, "staticpass.root", app_id, top);
      for (const core::AnalysisRoot& root : locality.roots) {
        pre.push_back(staticpass::analyze_root(*program, *graph, root, *sources,
                                               options.sinks, pass_options));
      }
    }
    if (summaries.has_value()) {
      counts.summary_hits += summaries->stats().cache_hits;
      counts.summary_lookups += summaries->stats().cache_hits + summaries->stats().cache_misses;
      const Scope s(spans, "staticpass.summary", app_id, top);
      summaries.reset();
    }

    diags.set_phase("interp");
    std::optional<uchecker::smt::Checker> checker;
    {
      const Scope s(spans, "smt.setup", app_id, top);
      checker.emplace(options.vuln.solver_timeout_ms);
      checker->set_deadline(Deadline::unlimited());
    }
    std::uint64_t accounted = 0;
    for (std::size_t ri = 0; ri < locality.roots.size(); ++ri) {
      if (options.prefilter && pre[ri].prunable) {
        counts.pruned_roots += 1;
        continue;
      }
      const Scope root_span(spans, "root", app_id, top);
      std::optional<core::InterpResult> exec;
      {
        const Scope s(spans, "interp", app_id, root_span.id());
        core::Budget budget = options.budget;
        budget.deadline = Deadline::unlimited();
        core::Interpreter interp(*program, diags, budget, options.sinks);
        exec = interp.run(locality.roots[ri]);
      }
      counts.paths += exec->stats.paths;
      counts.objects += exec->stats.objects;
      counts.cons_hits += exec->stats.cons_hits;
      accounted += exec->graph.memory_bytes() + exec->stats.env_bytes;
      if (exec->stats.budget_exhausted || exec->stats.deadline_exceeded) {
        counts.budget_exhausted_roots += exec->stats.budget_exhausted ? 1 : 0;
        incomplete = true;
        const Scope s(spans, "interp", app_id, root_span.id());
        exec.reset();
        continue;
      }
      counts.sinks += exec->sinks.size();
      core::VulnModelResult vuln;
      {
        const Scope s(spans, "vulnmodel", app_id, root_span.id());
        core::VulnModelOptions vuln_options = options.vuln;
        vuln_options.collect_evidence = options.explain;
        vuln = core::check_sinks(*exec, *checker, vuln_options, &cache);
      }
      counts.sink_cache_hits += vuln.query_cache_hits;
      counts.sink_solver_calls += vuln.solver_calls;
      vulnerable = vulnerable || vuln.vulnerable;
      const Scope s(spans, "interp", app_id, root_span.id());
      exec.reset();
    }
    counts.max_accounted_bytes = std::max(counts.max_accounted_bytes, accounted);
    counts.smt_checks += checker->check_count();
    counts.smt_retries += checker->retry_count();
    const Scope s(spans, "smt.setup", app_id, top);
    checker.reset();
  }

  // Tear the front end down in reverse order of construction.
  {
    const Scope s(spans, "callgraph.graph", app_id, top);
    graph.reset();
  }
  {
    const Scope s(spans, "callgraph.program", app_id, top);
    program.reset();
  }
  {
    const Scope s(spans, "phpparse", app_id, top);
    units.reset();
  }
  {
    const Scope s(spans, "source", app_id, top);
    sources.reset();
  }
  if (vulnerable) return core::Verdict::kVulnerable;
  return incomplete ? core::Verdict::kAnalysisIncomplete : core::Verdict::kNotVulnerable;
}

}  // namespace perfbench
