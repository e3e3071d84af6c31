// SIMD kernel layer for the CO protocol's O(n) hot loops.
//
// Every per-PDU cost the paper's protocol pays is a lane-wise scan over
// n-entry sequence-number vectors: merging a received ACK vector into an
// AL/PAL row, refreshing the column minima those rows feed, the failure
// condition F(2) scan, the PACK-candidate sweep over per-source RRL heads,
// and the causal pre-ack gate. This header exposes those loops as a table
// of function pointers (KernelOps) with two interchangeable backends:
//
//   scalar  portable C++, the reference semantics and the fallback
//           wherever AVX2 is not available (always available);
//   avx2    x86-64, 4 lanes per op (runtime cpuid-gated, and built only
//           when the compiler takes -mavx2).
//
// Selection happens ONCE per process (selected()): the environment variable
// CO_FORCE_SCALAR (set to anything but "0") pins the scalar backend, else
// AVX2 wins when the build has it and the CPU supports it. Tests and the
// fuzz harness can instead pin a backend per-core through
// CoConfig::kernels, which is how the scalar-vs-SIMD differential and
// digest-equivalence suites compare backends inside one process.
//
// Contract: every backend computes BIT-IDENTICAL results for all inputs,
// including mod-2^64 sequence wrap (all comparisons are unsigned 64-bit),
// length 0/1 vectors, and misaligned buffers (kernels use unaligned loads;
// alignment of the caller's layout is a throughput nicety, never a
// requirement). tests/kernels_test.cpp enforces this differentially.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace co::proto::kern {

/// Number of 64-bit words a lane bitmask over `n` lanes occupies.
constexpr std::size_t mask_words(std::size_t n) { return (n + 63) / 64; }

/// One kernel backend. All lane indices are LSB-first within mask words
/// (lane k lives at mask[k / 64] bit k % 64); mask kernels write every word
/// covering [0, n), zeroing unused high bits.
struct KernelOps {
  const char* name;

  /// row[k] = max(row[k], ack[k]) element-wise (unsigned), k in [0, n).
  /// Returns true when any lane changed whose OLD value equaled mins[k] —
  /// i.e. the column minimum the caller caches may have moved. When the
  /// caller's mins are already stale the return value is meaningless, but
  /// the caller is then already committed to a recompute (see CoCore's
  /// dirty-flag discipline), so staleness never propagates.
  bool (*merge_max)(SeqNo* row, const SeqNo* ack, const SeqNo* mins,
                    std::size_t n);

  /// out[k] = min over r in [0, rows) of table[r * stride + k], for
  /// k in [0, cols). rows == 0 writes ~SeqNo{0} (min over nothing = +inf).
  void (*column_mins)(const SeqNo* table, std::size_t rows, std::size_t cols,
                      std::size_t stride, SeqNo* out);

  /// Failure condition F(2) sweep: for every lane k in [0, n),
  ///   known_max[k] = max(known_max[k], ack[k] - 1)   when ack[k] > 0,
  /// and bit k of `mask` is set when req[k] < ack[k] (the sender has
  /// accepted PDUs from E_k this entity is still missing).
  void (*loss_scan)(const SeqNo* ack, const SeqNo* req, SeqNo* known_max,
                    std::size_t n, std::uint64_t* mask);

  /// bit k of mask set when a[k] < b[k] (unsigned), k in [0, n). The PACK
  /// sweep uses this over (per-source RRL head SEQ, minAL) lanes.
  void (*lt_mask)(const SeqNo* a, const SeqNo* b, std::size_t n,
                  std::uint64_t* mask);

  /// Causal pre-ack gate: true iff ack[j] <= high[j] + 1 (mod-2^64 add,
  /// unsigned compare) for every j in [0, n) except j == skip. Pass
  /// skip >= n to exempt no lane.
  bool (*causal_gate)(const SeqNo* ack, const SeqNo* high, std::size_t n,
                      std::size_t skip);

  /// True iff flags[j] != 0 for every j in [0, n) except j == skip. The
  /// deferred-confirmation sweep uses this over the heard-since-send bytes.
  bool (*all_set)(const std::uint8_t* flags, std::size_t n, std::size_t skip);
};

/// The process-wide backend: CO_FORCE_SCALAR pins scalar, else AVX2 when
/// this build has it and the CPU supports it, else scalar. Resolved once,
/// on first call.
const KernelOps& selected();

/// Backend by name ("scalar", "avx2"); nullptr when that backend is not
/// compiled in or the CPU cannot run it.
const KernelOps* by_name(std::string_view name);

/// Every backend runnable on this machine (scalar first). The differential
/// test suite compares each of these against scalar.
std::vector<const KernelOps*> available();

}  // namespace co::proto::kern
