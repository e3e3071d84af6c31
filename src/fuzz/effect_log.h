// The two digests of a fuzz run: RecordDigest over the protocol records,
// EffectRecorder over the sans-io effect stream.
//
// EffectRecorder — folds the effect stream of a fuzz run into a digest.
//
// The CoCluster's SimDriver calls the tap once per non-empty step, before
// replaying the batch (src/driver/effect_tap.h). The recorder folds every
// effect — entity, step time, effect kind, payload identity — into an
// FNV-1a digest and keeps the first few rendered effect lines as a
// human-readable transcript sample. Both ride in counterexample artifacts:
// the trace digest already pins the protocol-event stream, and the effect
// digest additionally pins the sans-io boundary itself, so a replay that
// diverges *inside* the core (same events, different effect order) is
// still caught.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/co/observer.h"
#include "src/driver/effect_tap.h"

namespace co::fuzz {

/// Order-sensitive FNV-1a digest over every protocol record of a run (the
/// CoCluster's user observer). It folds at, seq, origin, actor, event and
/// arg of each record; `stream` is the Tracer's business and stays out.
class RecordDigest final : public proto::CoObserver {
 public:
  void on_event(const proto::Record& r) override {
    ++events_;
    mix(&r.at, sizeof r.at);
    mix(&r.seq, sizeof r.seq);
    mix(&r.origin, sizeof r.origin);
    mix(&r.actor, sizeof r.actor);
    mix(&r.event, sizeof r.event);
    mix(&r.arg, sizeof r.arg);
  }

  std::uint64_t digest() const { return hash_; }
  std::uint64_t events() const { return events_; }

 private:
  void mix(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;  // FNV prime
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
  std::uint64_t events_ = 0;
};

class EffectRecorder final : public driver::EffectTap {
 public:
  /// Keep at most `sample_limit` rendered effect lines (0 = digest only).
  explicit EffectRecorder(std::size_t sample_limit = 32)
      : sample_limit_(sample_limit) {}

  void on_effects(EntityId entity, time::Tick at,
                  const proto::EffectBatch& batch) override;

  std::uint64_t digest() const { return digest_; }
  std::uint64_t effects() const { return effects_; }
  /// First sample_limit effect lines ("E0 @521000 broadcast DT 0#1 ...").
  const std::vector<std::string>& sample() const { return sample_; }

 private:
  void fold(std::uint64_t v);

  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

  std::size_t sample_limit_;
  std::uint64_t digest_ = kFnvOffset;
  std::uint64_t effects_ = 0;
  std::vector<std::string> sample_;
};

}  // namespace co::fuzz
