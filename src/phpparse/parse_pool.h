// Parallel per-file parsing on a small thread pool.
//
// Each file is lexed and parsed into its own Arena with its own
// DiagnosticSink, so workers share nothing while they run: no lock
// guards an allocation, and no diagnostic interleaves with another
// file's. Results come back in input order; the caller merges the
// per-file sinks into the scan-wide one serially, which keeps the
// merged diagnostic stream deterministic regardless of thread count.
//
// Exceptions do not cross threads raw: a file whose parse throws (fault
// injection, bad_alloc) carries the exception_ptr in its unit, and the
// caller rethrows per file to keep the existing contained-error
// reporting (phase/file attribution) intact.
#pragma once

#include <cstddef>
#include <exception>
#include <vector>

#include "phpast/ast.h"
#include "support/arena.h"
#include "support/deadline.h"
#include "support/diag.h"
#include "support/source.h"

namespace uchecker::phpparse {

// One file's parse outcome. The AST is valid exactly as long as `arena`;
// moving the unit moves arena block ownership without invalidating it.
struct ParsedUnit {
  Arena arena;
  phpast::PhpFile ast;
  // False when the deadline expired (or the pool was cancelled) before
  // this file was picked up; its ast is empty and no error is recorded.
  bool attempted = false;
  // Set when lex/parse threw; `ast` must be ignored. The caller decides
  // how to surface it (the detector rethrows for error attribution).
  std::exception_ptr error;
  // Per-file diagnostics, stamped with the "parse" phase, in in-file
  // order. Merge into the scan sink with DiagnosticSink::merge().
  DiagnosticSink diags;
};

// Resolves a ScanOptions-style thread request: 0 = auto (hardware
// concurrency capped at 8), otherwise the request itself; never more
// than one thread per file and never less than 1. No files resolves to
// 1, whatever was requested.
[[nodiscard]] std::size_t resolve_parse_threads(std::size_t requested,
                                                std::size_t file_count);

// Parses `files` (already registered with a SourceManager; their
// pointers must stay valid throughout) into one ParsedUnit each, in
// input order. `threads` is the resolved worker count: 1 parses
// serially on the calling thread — byte-identical diagnostics and AST,
// no pool. `deadline` (optional) is polled before each file; files not
// yet started when it expires come back with attempted == false.
[[nodiscard]] std::vector<ParsedUnit> parse_files(
    const std::vector<const SourceFile*>& files, std::size_t threads,
    const Deadline* deadline = nullptr);

}  // namespace uchecker::phpparse
