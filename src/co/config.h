// Tunables of the CO protocol (the paper's window W, plus the timers the
// paper leaves as "some predefined time units").
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/co/pdu.h"
#include "src/co/time.h"
#include "src/common/expect.h"
#include "src/common/types.h"

namespace co::proto {

namespace kern {
struct KernelOps;
}  // namespace kern

/// Deliberate protocol defects for fuzzer self-validation (src/fuzz): each
/// mutation disables one acceptance/delivery criterion inside CoCore. The
/// fuzzer must detect every mutation within a bounded number of seeds —
/// this is the harness's own regression test, proving the oracle actually
/// has teeth. kNone is the real protocol.
enum class Mutation {
  kNone,
  /// Disable the causal pre-ack gate (DESIGN.md deviation #2) — the paper's
  /// bare rules, known to violate the CO service under loss (the
  /// `bench_ablation` A1 table counts how often).
  kNoCausalGate,
  /// Deliver data to the application at acceptance, bypassing PRL ordering
  /// entirely (the PO baseline's behaviour).
  kDeliverOnAccept,
  /// Ignore the PACK condition p.SEQ < minAL_j: pre-acknowledge on accept.
  kIgnorePackCondition,
  /// Ignore the ACK condition p.SEQ < minPAL_src: deliver as soon as packed.
  kIgnoreAckCondition,
};

struct CoConfig {
  ClusterId cid = 1;

  /// Cluster size n (>= 2).
  std::size_t n = 0;

  /// Window size W of the flow condition:
  ///   minAL_i <= SEQ < minAL_i + min(W, minBUF / (H * 2n)), with H = 1.
  SeqNo window = 8;

  /// Deferred confirmation (§4.2/§5): when an entity has no data it sends a
  /// receipt-confirmation PDU only after hearing from every other entity or
  /// after this timeout, cutting traffic from O(n^2) to O(n) PDUs. Setting
  /// `deferred_confirmation = false` reverts to confirm-on-every-receipt
  /// (experiment E5 ablation).
  bool deferred_confirmation = true;
  time::Duration defer_timeout = 2 * time::kMillisecond;

  /// Fast path of the deferral rule: confirm as soon as a PDU from every
  /// other entity has been heard (paper §4.2). When false, confirmations
  /// ride only on data PDUs and the defer timer.
  bool confirm_on_heard_all = true;

  /// How long to wait for a requested retransmission before re-issuing the
  /// RET PDU (the RET itself or the rebroadcast PDU may be lost too).
  time::Duration retransmit_timeout = 4 * time::kMillisecond;

  /// Free-buffer units assumed for a peer before its first PDU arrives.
  BufUnits assumed_peer_buffer = 64;

  /// Deliberate defect injected for fuzzer self-validation; kNone in any
  /// real run.
  Mutation mutation = Mutation::kNone;

  /// SIMD kernel backend for the O(n) vector loops (src/co/kernels).
  /// nullptr — the default for every real deployment — means the
  /// process-wide selection (kern::selected(): CO_FORCE_SCALAR env
  /// override, else best ISA the CPU supports). Tests and the fuzz
  /// harness pin a specific backend here to compare scalar and SIMD
  /// dispatch inside one process (the digest-equivalence suites).
  const kern::KernelOps* kernels = nullptr;

  /// Check the structural invariants every entity relies on; throws
  /// std::logic_error (via CO_EXPECT) on violation. CoCore, CoCluster and
  /// HostBuilder::build() call this, so misconfigurations fail loudly at
  /// construction instead of corrupting a run.
  void validate() const {
    static_assert(kMaxClusterSize >= kMaxSelectiveEntities,
                  "cluster bound must cover the selective-mask width");
    CO_EXPECT_MSG(n >= 2 && n <= kMaxClusterSize,
                  "cluster size n must be in [2, " << kMaxClusterSize
                                                   << "], got " << n);
    CO_EXPECT_MSG(window >= 1, "window W must be >= 1");
    // Note on DstMask: clusters with n > kMaxSelectiveEntities (64) are
    // valid, but only for broadcast-to-all traffic — a selective mask has
    // one bit per entity and cannot address E_64 and beyond. submit()
    // enforces this per request; see DESIGN.md ("Selective destinations").
  }
};

}  // namespace co::proto
