// Replayable counterexample artifacts.
//
// When a seed fails, the fuzzer writes one JSON document holding the
// (shrunk) Scenario, the violation verdict, and the execution digest. The
// artifact is self-contained: `co_fuzz --replay file.json` reconstructs
// the scenario, re-runs it deterministically, and confirms both the
// verdict and the digest — proving the bug reproduces byte-for-byte on
// the reader's machine, not just that "something failed once".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/fuzz/runner.h"
#include "src/fuzz/scenario.h"

namespace co::fuzz {

struct Counterexample {
  Scenario scenario;
  std::string mutation;          // mutation the run was executed under
  std::string violation_kind;
  std::string violation_detail;
  // Record digest (RunReport::digest). Zero trace_events marks it absent:
  // a v1 artifact's text-trace digest is dropped on load, and replay then
  // checks the verdict and the effect digest only.
  std::uint64_t digest = 0;
  std::uint64_t trace_events = 0;

  // Sans-io effect-stream digest (EffectRecorder). Zero effects_emitted
  // marks an artifact written before effect recording existed; replay then
  // skips the effect-digest comparison (tolerant load, like `metrics`).
  std::uint64_t effect_digest = 0;
  std::uint64_t effects_emitted = 0;
  std::vector<std::string> effect_sample;  // first rendered effect lines

  // Provenance (informational only; replay ignores them).
  std::uint64_t original_seed = 0;
  std::size_t shrink_runs = 0;

  // Triage context (informational only; replay ignores them). `metrics` is
  // the failing run's final MetricsSnapshot rendered by metrics_to_json;
  // `entity_stats` is the per-entity CoEntityStats dump. Both are written
  // by recent fuzzers and tolerated as absent when loading old artifacts.
  Json metrics;  // null when the artifact predates metrics embedding
  std::string entity_stats;

  Json to_json() const;
  static Counterexample from_json(const Json& j);

  void save(const std::string& path) const;
  static Counterexample load(const std::string& path);

  static Counterexample make(const Scenario& scenario, const RunReport& report,
                             const RunOptions& options);
};

/// Outcome of replaying an artifact.
struct ReplayVerdict {
  bool reproduced = false;   // failed again with the same violation kind
  bool exact = false;        // ... and the same execution digest
  RunReport report;          // the fresh run's report
};

ReplayVerdict replay(const Counterexample& ce);

}  // namespace co::fuzz
