// Scenario runner: executes one fuzz Scenario on a fresh CoCluster and
// checks every oracle the harness has.
//
// Oracles, in the order they are consulted:
//   1. liveness      — every submitted PDU delivered everywhere before the
//                      scenario horizon (causality/checkers check_liveness);
//   2. CO service    — information + local-order + causality preservation
//                      of every delivery log against the vector-clock
//                      oracle (CoCluster::check_co_service);
//   3. PRL order     — each entity's pre-acknowledged log is a linear
//                      extension of the detected causality relation;
//   4. knowledge     — the AL/PAL vector invariants exposed by
//                      CoCore::knowledge_invariant_violation.
//
// Every run folds its full protocol record stream into a RecordDigest
// (src/fuzz/effect_log.h); two runs of the same Scenario produce the same
// digest bit-for-bit, which is what `co_fuzz --replay` verifies.
//
// The record digest is as strict as the text digest it replaced, although
// a record carries no ACK vector, BUF field or minAL value:
//   * a sent PDU's ACK vector is its sender's REQ vector at send time, and
//     REQ changes only on acceptance — every accept is a record, stamped
//     with its actor and time, so the ACK of every kSend is determined by
//     the records before it;
//   * minAL (the PACK condition's bound) is a function of the ACK vectors
//     of accepted PDUs, so it is determined the same way;
//   * BUF is the simulated network's free-buffer sample, and the network
//     is deterministic given the same sends, drops and times.
// A divergence in any of them changes a later record's time, order or
// subject, which the digest folds.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/co/config.h"
#include "src/fuzz/scenario.h"
#include "src/obs/metrics.h"
#include "src/obs/trace/record.h"

namespace co::fuzz {

struct RunOptions {
  /// Deliberate protocol defect (fuzzer self-validation); kNone = real run.
  proto::Mutation mutation = proto::Mutation::kNone;
  /// SIMD kernel backend pinned for every entity in the run (nullptr = the
  /// process-wide selection). The kernel digest-equivalence suite runs the
  /// same Scenario once per backend and requires identical digests.
  const proto::kern::KernelOps* kernels = nullptr;
  /// Flight-recorder ring capacity (records). The recorder is always on:
  /// every run carries a binary event ring, and a failing run's resident
  /// tail rides out in RunReport::flight_tail for the counterexample
  /// sidecar. Runs are single-threaded, so this is one ring.
  std::size_t flight_capacity = std::size_t{1} << 12;
};

struct RunReport {
  bool failed = false;
  std::string violation_kind;    // "liveness", "causality", "knowledge", ...
  std::string violation_detail;  // human-readable description

  std::uint64_t digest = 0;        // RecordDigest over all protocol records
  std::uint64_t trace_events = 0;  // records folded into the digest

  /// Digest of the sans-io effect stream (EffectRecorder over every step's
  /// EffectBatch) and the number of effects folded in. Pins the core's
  /// Input -> Effect mapping itself, one layer below the protocol events.
  std::uint64_t effect_digest = 0;
  std::uint64_t effects_emitted = 0;
  /// First few rendered effect lines, for counterexample triage.
  std::vector<std::string> effect_sample;

  sim::SimTime finished_at = 0;    // sim time the run stopped
  std::uint64_t deliveries = 0;    // total app deliveries across entities
  std::uint64_t submitted = 0;

  /// Final metrics snapshot of the run (always captured; the registry is
  /// callback-sampled, so carrying it costs nothing on the hot path and
  /// does not perturb the digest). Embedded in counterexample artifacts.
  obs::MetricsSnapshot metrics;

  /// Per-entity protocol stats, one line per entity (CoEntityStats dump);
  /// attached to counterexample artifacts for triage.
  std::string entity_stats;

  /// Always-on flight recorder: the ring-resident tail of the binary event
  /// trace, captured only when an oracle fired (empty on success). The last
  /// record is the kViolation marker stamped at the verdict. Deterministic:
  /// replaying the same Scenario reproduces this tail byte-for-byte.
  std::vector<obs::trace::Record> flight_tail;
  /// Records overwritten by ring wrap before the tail was captured.
  std::uint64_t flight_dropped = 0;
};

RunReport run_scenario(const Scenario& scenario, const RunOptions& options);

/// Parse a mutation name ("none", "no_causal_gate", "deliver_on_accept",
/// "ignore_pack_condition", "ignore_ack_condition"); throws on unknown.
proto::Mutation mutation_from_name(const std::string& name);
const char* mutation_name(proto::Mutation m);

}  // namespace co::fuzz
