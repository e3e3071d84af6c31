#include "src/co/core.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>

#include "src/common/expect.h"

namespace co::proto {

namespace {
/// Wall-clock nanoseconds, for the Tco (protocol processing time) metric.
std::uint64_t now_wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

CoCore::CoCore(EntityId self, CoConfig config, CoObserver* observer)
    : self_(self),
      config_(config),
      observer_(observer != nullptr ? observer : &null_observer()) {
  config_.validate();
  CO_EXPECT(self_ >= 0 && static_cast<std::size_t>(self_) < config_.n);

  kern_ = config_.kernels != nullptr ? config_.kernels : &kern::selected();

  const std::size_t n = config_.n;
  req_.assign(n, kFirstSeq);
  al_.reset(n, n, kFirstSeq);
  pal_.reset(n, n, kFirstSeq);
  buf_.assign(n, config_.assumed_peer_buffer);
  min_al_.assign(n, kFirstSeq);
  min_pal_.assign(n, kFirstSeq);
  rrl_.resize(n);
  rrl_head_seq_.assign(n, kNoSeq);
  parked_.resize(n);
  known_max_.assign(n, 0);
  packed_high_.assign(n, 0);
  outstanding_ret_.assign(n, std::nullopt);
  heard_since_send_.assign(n, 0);
  loss_mask_.assign(kern::mask_words(n), 0);
  pack_mask_.assign(kern::mask_words(n), 0);
}

std::size_t CoCore::idx(EntityId id) const {
  CO_EXPECT(id >= 0 && static_cast<std::size_t>(id) < config_.n);
  return static_cast<std::size_t>(id);
}

void CoCore::trace(EventId event, const PduKey& key, std::uint32_t arg) {
  Record r;
  r.at = now_;
  r.seq = key.seq;
  r.origin = key.src;
  r.actor = self_;
  r.event = static_cast<std::uint16_t>(event);
  r.arg = arg;
  observer_->on_event(r);
}

// ---------------------------------------------------------------------------
// Step loop — the sans-io boundary
// ---------------------------------------------------------------------------

void CoCore::step(const Input* inputs, std::size_t count, EffectBatch& out) {
  CO_EXPECT_MSG(out_ == nullptr, "step() is not reentrant");
  out_ = &out;
  try {
    // Tco: one clock read before the first arrival of the batch and one
    // after the receipt pipeline. A step without an arrival is not timed.
    bool timed = false;
    std::uint64_t t0 = 0;
    bool pipeline = false;
    for (std::size_t i = 0; i < count; ++i) {
      if (!timed && std::holds_alternative<MessageArrived>(inputs[i].event)) {
        timed = true;
        t0 = now_wall_ns();
      }
      pipeline |= apply(inputs[i]);
    }
    // The receipt pipeline runs once per batch: with one input per step (how
    // the simulation drivers operate) this is exactly the pre-batching
    // per-message order of operations; with N inputs it amortizes the
    // PACK/ACK scan and the confirmation decision over the whole batch.
    if (pipeline) run_receipt_pipeline();
    if (timed) stats_.processing_ns += now_wall_ns() - t0;
  } catch (...) {
    out_ = nullptr;  // malformed-input throws must not wedge the core
    throw;
  }
  out_ = nullptr;
}

bool CoCore::apply(const Input& input) {
  now_ = input.at;
  free_buffer_ = input.free_buffer;

  if (const auto* arrival = std::get_if<MessageArrived>(&input.event)) {
    ++stats_.messages_processed;
    return ingest(*arrival);
  }
  if (const auto* fired = std::get_if<TimerFired>(&input.event)) {
    // Mirror the driver's slot: once a one-shot timer fires it is no longer
    // pending, so the handler (and anything it calls) may re-arm.
    timer_pending_[static_cast<std::size_t>(fired->timer)] = false;
    switch (fired->timer) {
      case TimerId::kDefer: on_defer_timeout(); break;
      case TimerId::kRetransmit: on_retransmit_timer(); break;
    }
    return false;
  }
  if (const auto* submit = std::get_if<AppSubmit>(&input.event)) {
    CO_EXPECT_MSG(!submit->data.empty(), "DT request must carry data");
    CO_EXPECT_MSG(submit->dst == kEveryone || config_.n <= kMaxSelectiveEntities,
                  "selective destinations support clusters up to "
                      << kMaxSelectiveEntities
                      << " entities (DstMask has one bit per entity)");
    // const_cast: AppSubmit payloads are consumed exactly once; stealing the
    // vector keeps the submit path allocation-free for the caller.
    auto& data = const_cast<AppSubmit*>(submit)->data;
    app_queue_.push_back(DtRequest{std::move(data), submit->dst});
    send_pending_data();
    return false;
  }
  // Tick: idle pump.
  send_pending_data();
  maybe_confirm_now();
  return false;
}

void CoCore::run_receipt_pipeline() {
  run_pack_action();
  run_ack_action();
  prune_sent_log();
  // The window may have opened (AL advanced) and confirmations may be owed.
  send_pending_data();
  maybe_confirm_now();
}

void CoCore::arm_timer(TimerId timer, time::Duration delay) {
  timer_pending_[static_cast<std::size_t>(timer)] = true;
  out_->emit(ArmTimerEffect{timer, now_ + delay});
}

void CoCore::cancel_timer(TimerId timer) {
  // Emit only on a state change; cancelling a fired/unarmed slot is the
  // no-op it always was with TimerHandle::cancel().
  if (!timer_pending_[static_cast<std::size_t>(timer)]) return;
  timer_pending_[static_cast<std::size_t>(timer)] = false;
  out_->emit(CancelTimerEffect{timer});
}

// ---------------------------------------------------------------------------
// Transmission (§4.2)
// ---------------------------------------------------------------------------

bool CoCore::flow_condition_holds() const {
  // Paper §4.2: minAL_i <= SEQ < minAL_i + min(W, minBUF / (H * 2n)).
  // minAL_i is the lowest next-expected-from-us across the cluster: PDUs
  // below it are accepted everywhere. The buffer term reserves room at the
  // slowest receiver for 2n-round acknowledgment traffic (§5: a PDU is
  // acknowledged ~2nW receipts after acceptance).
  //
  // Deviation (documented in DESIGN.md): the window counts outstanding DATA
  // PDUs, not raw SEQ distance. The paper states the condition over SEQ but
  // applies it only to DT requests; ack-only confirmation PDUs also consume
  // SEQs, and counting them makes a buffer-limited window unsatisfiable
  // forever (each confirmation round re-fills the window it is trying to
  // open). Bounding data PDUs preserves the intent — at most
  // min(W, minBUF/(H*2n)) unacknowledged data PDUs buffered per source —
  // and keeps the protocol live.
  //
  // H, the buffer units one in-flight PDU occupies at a receiver between
  // acceptance and acknowledgment, is the constant 1: BUF counts PDUs.
  BufUnits min_buf = buf_[0];
  for (const BufUnits b : buf_) min_buf = std::min(min_buf, b);
  const SeqNo buf_window = static_cast<SeqNo>(min_buf / (2 * config_.n));
  const SeqNo eff_window = std::min<SeqNo>(config_.window, buf_window);
  if (eff_window == 0) return false;
  flush_min_al();
  const SeqNo min_al_self = min_al_[idx(self_)];
  CO_DCHECK(seq_ >= min_al_self);
  // Outstanding data PDUs: sent but not yet known-accepted-everywhere.
  while (!outstanding_data_.empty() && outstanding_data_.front() < min_al_self)
    outstanding_data_.pop_front();
  return outstanding_data_.size() < eff_window;
}

void CoCore::transmit(const std::vector<std::uint8_t>& data, DstMask dst) {
  // Fill a pooled body in place: in the steady state the recycled body's
  // ack/data vectors already hold enough capacity, so minting a PDU costs
  // zero allocations.
  CoPdu& p = pool_.checkout();
  p.cid = config_.cid;
  p.src = self_;
  p.seq = seq_++;
  p.ack.assign(req_.begin(), req_.end());
  p.buf = free_buffer_;
  p.dst = dst;
  p.data.assign(data.begin(), data.end());
  const PduRef ref = pool_.seal();

  if (ref->is_data()) {
    ++stats_.data_pdus_sent;
    outstanding_data_.push_back(ref->seq);
  } else {
    ++stats_.ctrl_pdus_sent;
    last_ctrl_tx_ = now_;
  }

  sl_.push_back(ref);
  sl_resent_at_.push_back(-1);
  stats_.max_sl = std::max(stats_.max_sl, sl_.size());

  // A send counts as fresh confirmation of everything accepted so far, and
  // it pays the previous PDU's successor debt. A peer pre-acknowledges a
  // PDU of ours only once a later one shows that we accepted it, and
  // deliveries wait on two kinds being pre-acknowledged: a data PDU, and
  // the first PDU that confirms data we accepted. Each owes a successor.
  successor_owed_ = ref->is_data() || any_data_accepted_since_send_;
  std::fill(heard_since_send_.begin(), heard_since_send_.end(), false);
  accepted_since_send_ = false;
  data_accepted_since_send_ = false;
  any_data_accepted_since_send_ = false;
  cancel_timer(TimerId::kDefer);

  trace(EventId::kSend, ref->key(), ref->is_data() ? 1 : 0);
  out_->emit(BroadcastEffect{Message(ref)});

  // Invariant: while this entity still has data interest, a defer timer is
  // always pending — it is the tail-loss probe of last resort, and this
  // send (or the responses it provokes) may be lost.
  if (has_data_interest()) arm_defer_timer();
}

void CoCore::send_pending_data() {
  while (!app_queue_.empty()) {
    if (!flow_condition_holds()) {
      ++stats_.flow_blocked;
      return;
    }
    DtRequest request = std::move(app_queue_.front());
    app_queue_.pop_front();
    transmit(request.data, request.dst);
  }
}

bool CoCore::confirmation_owed() const { return accepted_since_send_; }

bool CoCore::ctrl_send_allowed() const {
  flush_min_al();
  const SeqNo backlog = seq_ - min_al_[idx(self_)];
  const SeqNo cap = std::max<SeqNo>(2 * config_.window, 16);
  if (backlog < cap) return true;
  // Collapse regime: peers have not confirmed a window's worth of our PDUs
  // (heavy loss / overrun). Slow to one ctrl PDU per retransmit_timeout so
  // the retransmission machinery can catch up instead of racing a growing
  // backlog.
  return last_ctrl_tx_ < 0 ||
         now_ - last_ctrl_tx_ >= config_.retransmit_timeout;
}

bool CoCore::has_data_interest() const {
  // Data this entity is still waiting to send or to deliver: queued DT
  // requests, accepted-but-undelivered data, parked PDUs or known gaps
  // (something is in flight). Own data counts only until this entity
  // delivers it, not until peers do: the source usually delivers first and
  // loses interest while peers still need its next PDU (successor_owed_).
  if (!app_queue_.empty() || undelivered_data_ != 0) return true;
  for (std::size_t j = 0; j < config_.n; ++j) {
    if (!parked_[j].empty()) return true;
    if (j != static_cast<std::size_t>(self_) && req_[j] <= known_max_[j])
      return true;
  }
  return false;
}

void CoCore::maybe_confirm_now() {
  if (!confirmation_owed()) return;
  if (!ctrl_send_allowed()) {
    arm_defer_timer();
    return;
  }
  if (!config_.deferred_confirmation && data_accepted_since_send_) {
    // Ablation (E5): confirm every DATA receipt immediately -> each data
    // broadcast provokes n-1 confirmation broadcasts, O(n^2) PDUs per round.
    // (Confirmations do not confirm confirmations — that would diverge; the
    // deferred timer below still drives the second acknowledgment round.)
    transmit({});
    return;
  }
  // Deferred confirmation: send once we have heard from every other entity
  // since our last send, otherwise fall back to the timer.
  //
  // Two dampers on the fast path keep ack-only traffic from congesting the
  // cluster (ack-only PDUs are exempt from the flow condition, so they are
  // rate-limited here instead):
  //   * only while this entity's exchange is open (exchange_open()): it
  //     still has data in flight or its last PDU owes a successor — an
  //     idle cluster chatters at 1/defer_timeout, not at network rate.
  //     Data interest alone is not enough (DESIGN.md deviation #9): the
  //     entity that delivers first loses it in the very step that
  //     completes its heard-all set, while its peers pre-acknowledge its
  //     last PDU only once this next one arrives;
  //   * never while own data is queued behind a closed window — each
  //     ack-only PDU consumes a SEQ and would keep the window shut forever;
  //     the queued data PDU itself will carry the confirmations, and the
  //     timer covers the case where the window stays closed for a while.
  const bool heard_all = kern_->all_set(heard_since_send_.data(), config_.n,
                                        static_cast<std::size_t>(self_));
  if (heard_all && app_queue_.empty() && exchange_open() &&
      config_.deferred_confirmation && config_.confirm_on_heard_all)
    transmit({});
  else
    arm_defer_timer();
}

void CoCore::arm_defer_timer() {
  if (timer_pending(TimerId::kDefer)) return;
  arm_timer(TimerId::kDefer, config_.defer_timeout);
}

void CoCore::on_defer_timeout() {
  if (!ctrl_send_allowed()) {
    if (confirmation_owed() || has_data_interest()) arm_defer_timer();
    return;
  }
  if (confirmation_owed()) {
    transmit({});
  } else if (has_data_interest()) {
    // Tail-loss probe: we are stuck waiting on the cluster (undelivered
    // data, parked PDUs, or a known gap) but heard nothing new — our last
    // confirmation or a peer's response may have been lost, which nothing
    // else would ever reveal (a lost FINAL PDU leaves no later PDU to
    // trigger the failure conditions). Broadcasting a fresh ack-only PDU
    // restarts the exchange: its SEQ exposes our stream's tail to peers and
    // their responses expose theirs to us.
    ++stats_.heartbeats_sent;
    trace(EventId::kProbe, PduKey{self_, seq_});
    transmit({});
  }
  // Keep probing while the stall persists.
  if (has_data_interest()) arm_defer_timer();
}

// ---------------------------------------------------------------------------
// Receipt (§4.2) and failure detection (§4.3)
// ---------------------------------------------------------------------------

bool CoCore::ingest(const MessageArrived& arrival) {
  const EntityId from = arrival.from;
  if (const auto* ref = std::get_if<PduRef>(&arrival.msg)) {
    const CoPdu& pdu = **ref;
    if (pdu.cid != config_.cid) {
      // Another cluster sharing the medium; not ours. Checked before any
      // shape validation — a co-located cluster may have a different size.
      ++stats_.foreign_cluster_dropped;
      return false;
    }
    CO_EXPECT_MSG(pdu.src == from, "PDU source must match channel");
    // Shape validation: the ACK vector must carry exactly one lane per
    // entity. A wire-decodable PDU with a short (or long) vector — a
    // truncated datagram, a peer misconfigured with a different n, or a
    // fuzzer-crafted frame — is dropped here, BEFORE any kernel reads
    // lanes it does not have; throwing would let one malformed datagram
    // wedge the receive loop.
    if (pdu.ack.size() != config_.n ||
        !(pdu.src >= 0 && static_cast<std::size_t>(pdu.src) < config_.n)) {
      ++stats_.malformed_dropped;
      trace(EventId::kMalformed, pdu.key(),
            static_cast<std::uint32_t>(pdu.ack.size()));
      return false;
    }
    handle_data(*ref);
  } else {
    const auto& ret = std::get<RetPdu>(arrival.msg);
    if (ret.cid != config_.cid) {
      ++stats_.foreign_cluster_dropped;
      return false;
    }
    CO_EXPECT_MSG(ret.src == from, "RET source must match channel");
    if (ret.ack.size() != config_.n ||
        !(ret.src >= 0 && static_cast<std::size_t>(ret.src) < config_.n) ||
        !(ret.lsrc >= 0 && static_cast<std::size_t>(ret.lsrc) < config_.n)) {
      ++stats_.malformed_dropped;
      trace(EventId::kMalformed, PduKey{ret.src, ret.lseq},
            static_cast<std::uint32_t>(ret.ack.size()));
      return false;
    }
    handle_ret(ret);
  }
  return true;
}

void CoCore::handle_data(const PduRef& ref) {
  const CoPdu& pdu = *ref;
  const std::size_t j = idx(pdu.src);
  known_max_[j] = std::max(known_max_[j], pdu.seq);

  if (pdu.seq < req_[j]) {
    // Duplicate (a retransmission we no longer need).
    ++stats_.duplicates_dropped;
    trace(EventId::kDup, pdu.key());
    return;
  }
  if (pdu.seq > req_[j]) {
    // Failure condition (1): PDUs [REQ_j, pdu.seq) from E_j are missing.
    // Selective repeat: park the out-of-order PDU, request only the gap.
    ++stats_.f1_detections;
    // key: first missing SEQ of the gap; arg: gap length (clamped to 32 bits).
    trace(EventId::kF1, PduKey{pdu.src, req_[j]},
          static_cast<std::uint32_t>(
              std::min<SeqNo>(pdu.seq - req_[j], 0xffffffffu)));
    const bool inserted = parked_[j].insert(req_[j], pdu.seq, ref);
    if (inserted) {
      ++stats_.parked_out_of_order;
      std::size_t parked_total = 0;
      for (const auto& b : parked_) parked_total += b.size();
      stats_.max_parked = std::max(stats_.max_parked, parked_total);
      trace(EventId::kPark, pdu.key());
    }
    // F(2) on the parked PDU's ACK vector still applies — the F conditions
    // are checked on *receipt*, not acceptance (§4.3).
    report_loss(pdu.src, pdu.seq);
    scan_acks_for_loss(pdu.ack);
    return;
  }
  accept(ref);
  drain_parked(pdu.src);
}

void CoCore::scan_acks_for_loss(const std::vector<SeqNo>& ack) {
  // Failure condition (2): the sender has accepted PDUs from E_k up to
  // ack[k]-1; if our REQ_k lags, those PDUs exist and we are missing them.
  //
  // One loss_scan kernel pass folds the known_max update and the
  // req < ack lane compare; the (rare) loss lanes come back as a bitmask
  // and only those run the report_loss slow path, in ascending k like the
  // scalar loop they replace. report_loss never reads known_max, so
  // batching all known_max updates ahead of the reports is behaviour-
  // identical. Clamp to ack.size() as a belt-and-braces guard — ingest
  // already drops malformed short vectors.
  const std::size_t n = std::min(ack.size(), config_.n);
  if (n == 0) return;
  kern_->loss_scan(ack.data(), req_.data(), known_max_.data(), n,
                   loss_mask_.data());
  const auto s = static_cast<std::size_t>(self_);
  if (s < n) loss_mask_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  for (std::size_t w = 0; w < kern::mask_words(n); ++w) {
    std::uint64_t word = loss_mask_[w];
    while (word != 0) {
      const std::size_t k =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      ++stats_.f2_detections;
      trace(EventId::kF2, PduKey{static_cast<EntityId>(k), req_[k]},
            static_cast<std::uint32_t>(
                std::min<SeqNo>(ack[k] - req_[k], 0xffffffffu)));
      report_loss(static_cast<EntityId>(k), ack[k]);
    }
  }
}

void CoCore::accept(const PduRef& ref) {
  const CoPdu& pdu = *ref;
  const std::size_t j = idx(pdu.src);
  CO_DCHECK(pdu.seq == req_[j]);

  // Acceptance action (§4.2).
  req_[j] = pdu.seq + 1;
  update_al_row(pdu.src, pdu.ack);
  // Own AL row mirrors our own REQ vector. The stale-min caveat is benign:
  // min_al_[j] is exact while the dirty flag is clear (the only case where
  // this test decides anything), and once dirty it stays dirty until the
  // next flush regardless of what we do here.
  {
    SeqNo* own = al_.row(idx(self_));
    if (own[j] < req_[j]) {
      const SeqNo old = own[j];
      own[j] = req_[j];
      if (old == min_al_[j]) min_al_dirty_ = true;
    }
  }
  buf_[j] = pdu.buf;
  // Share the body into the RRL; the acceptance timestamp rides along so
  // the PACK/ACK latency metrics need no side table.
  rrl_[j].push_back(Prl::Entry{ref, now_});
  if (rrl_[j].size() == 1) rrl_head_seq_[j] = pdu.seq;
  stats_.max_rrl = std::max(stats_.max_rrl, rrl_[j].size());
  ++stats_.pdus_accepted;
  // Selective extension: only destinations owe the application a delivery;
  // everyone still carries the PDU through the PACK/ACK pipeline so the
  // ordering/confirmation machinery stays uniform.
  if (pdu.is_data() && dst_contains(pdu.dst, self_)) {
    ++undelivered_data_;
    if (config_.mutation == Mutation::kDeliverOnAccept) {
      // Mutation: hand the PDU to the application now, skipping the PRL
      // ordering machinery (run_ack_action keeps the pipeline moving but
      // never delivers under this mutation).
      --undelivered_data_;
      ++stats_.delivered_to_app;
      out_->emit(DeliverEffect{ref});
    }
  }

  trace(EventId::kAccept, pdu.key());

  scan_acks_for_loss(pdu.ack);

  if (pdu.is_data()) any_data_accepted_since_send_ = true;
  if (pdu.src != self_) {
    heard_since_send_[j] = true;
    accepted_since_send_ = true;
    if (pdu.is_data()) data_accepted_since_send_ = true;
    arm_defer_timer();
  }

  // The gap (if any) this PDU was blocking has closed this far.
  if (outstanding_ret_[j] && req_[j] >= outstanding_ret_[j]->lseq)
    outstanding_ret_[j].reset();
}

void CoCore::drain_parked(EntityId src) {
  const std::size_t j = idx(src);
  auto& parked = parked_[j];
  // Accept in-sequence parked PDUs. Removing the entry before accept() is
  // equivalent to the old erase-after-accept: accepting E_j's own PDU can
  // never re-enter parked_[j] (report_loss never fires for the source being
  // accepted), and other sources' buffers are untouched here.
  while (!parked.empty()) {
    PduRef next = parked.take(req_[j]);
    if (!next) break;
    accept(next);
  }
  // Drop parked entries that became stale (shouldn't happen — acceptance
  // consumes them in order — but keep the buffer consistent regardless).
  parked.drop_below(req_[j]);
}

void CoCore::report_loss(EntityId lsrc, SeqNo upto) {
  CO_EXPECT(lsrc != self_);
  const std::size_t j = idx(lsrc);
  if (req_[j] >= upto) return;  // nothing missing after all
  // Selective repeat: PDUs already parked out-of-order are not missing, so
  // only the leading hole [REQ_j, first parked SEQ) needs retransmission.
  // (The RET format expresses one contiguous range; later holes are
  // requested once this one fills and detection re-fires.)
  if (!parked_[j].empty())
    upto = std::min(upto, parked_[j].first_seq());
  if (req_[j] >= upto) return;
  auto& pending = outstanding_ret_[j];
  if (pending && pending->lseq >= upto) return;  // already requested
  send_ret(lsrc, upto);
  pending = RetRequest{upto, now_, 1};
  arm_retransmit_timer();
}

void CoCore::send_ret(EntityId lsrc, SeqNo lseq) {
  RetPdu r;
  r.cid = config_.cid;
  r.src = self_;
  r.lsrc = lsrc;
  r.lseq = lseq;
  r.ack = req_;
  r.buf = free_buffer_;
  ++stats_.ret_pdus_sent;
  trace(EventId::kRet, PduKey{lsrc, lseq});
  out_->emit(BroadcastEffect{Message(std::move(r))});
}

void CoCore::handle_ret(const RetPdu& ret) {
  // The RET carries the requester's full REQ vector (Fig. 5); it refreshes
  // our AL row for the requester and our view of its buffer, exactly like a
  // data PDU's ACK field would.
  update_al_row(ret.src, ret.ack);
  buf_[idx(ret.src)] = ret.buf;
  scan_acks_for_loss(ret.ack);

  if (ret.lsrc == self_) {
    const SeqNo from = ret.ack[idx(self_)];
    retransmit_range(ret.src, from, ret.lseq);
  } else {
    // Someone else lost PDUs from a third entity; the source will
    // rebroadcast them to everyone. Just remember they exist so our retry
    // timer re-detects if the rebroadcast is lost here too.
    if (ret.lseq > 0)
      known_max_[idx(ret.lsrc)] =
          std::max(known_max_[idx(ret.lsrc)], ret.lseq - 1);
  }
}

void CoCore::retransmit_range(EntityId /*requester*/, SeqNo from,
                              SeqNo upto) {
  // Rebroadcast g with r.ACK_self <= g.SEQ < r.LSEQ (retransmission action
  // §4.3). The PDUs go out byte-identical to the originals — selective
  // retransmission, nothing before or after the lost range is resent.
  from = std::max(from, sl_base_);
  upto = std::min(upto, seq_);
  // Pace recovery: resend at most a couple of windows per request so a
  // large gap cannot flood small receive buffers; the requester's failure
  // detection / retry timer asks for the next chunk once this one lands.
  const SeqNo burst = std::max<SeqNo>(2 * config_.window, 16);
  if (upto - from > burst) upto = from + burst;
  // Rebroadcast suppression: the medium is a broadcast channel, so one
  // rebroadcast serves every requester; don't repeat a SEQ faster than half
  // the requesters' retry cadence.
  const time::Tick now = now_;
  const time::Duration min_gap = config_.retransmit_timeout / 2;
  for (SeqNo s = from; s < upto; ++s) {
    const std::size_t off = static_cast<std::size_t>(s - sl_base_);
    CO_EXPECT_MSG(off < sl_.size(), "retransmission request below sent log");
    if (sl_resent_at_[off] >= 0 && now - sl_resent_at_[off] < min_gap)
      continue;
    sl_resent_at_[off] = now;
    ++stats_.retransmissions_sent;
    trace(EventId::kRtx, sl_[off]->key());
    // Same shared body as the original broadcast: a refcount bump, not a
    // deep copy.
    out_->emit(BroadcastEffect{Message(sl_[off])});
  }
}

void CoCore::arm_retransmit_timer() {
  if (timer_pending(TimerId::kRetransmit)) return;
  arm_timer(TimerId::kRetransmit, config_.retransmit_timeout);
}

void CoCore::on_retransmit_timer() {
  bool any_gap = false;
  const time::Tick now = now_;
  for (std::size_t j = 0; j < config_.n; ++j) {
    if (j == static_cast<std::size_t>(self_)) continue;
    if (req_[j] > known_max_[j]) continue;  // no known gap
    any_gap = true;
    auto& pending = outstanding_ret_[j];
    SeqNo want = known_max_[j] + 1;
    if (!parked_[j].empty())
      want = std::min(want, parked_[j].first_seq());
    // Exponential backoff: under sustained loss/overrun, hammering RETs at
    // the base cadence floods the very receivers that are already too slow
    // (each RET fans out n copies). Back off until progress resumes — the
    // multiplier resets when the gap starts filling (acceptance clears the
    // outstanding request).
    const std::uint32_t backoff = pending ? pending->backoff : 1;
    if (!pending ||
        now - pending->at >=
            config_.retransmit_timeout * static_cast<time::Duration>(backoff)) {
      ++stats_.ret_retries;
      send_ret(static_cast<EntityId>(j), want);
      pending = RetRequest{want, now, std::min<std::uint32_t>(2 * backoff, 8)};
    }
  }
  if (any_gap) arm_timer(TimerId::kRetransmit, config_.retransmit_timeout);
}

// ---------------------------------------------------------------------------
// AL / PAL bookkeeping
// ---------------------------------------------------------------------------

void CoCore::update_al_row(EntityId j, const std::vector<SeqNo>& ack) {
  // One merge_max lane pass; the return value ("a changed lane's old value
  // was the cached column minimum") is exact while the mins are clean and
  // irrelevant once they are dirty — either way OR-ing it into the dirty
  // flag reproduces the eager refresh's observable values at every read.
  const std::size_t n = std::min(ack.size(), config_.n);
  if (n == 0) return;
  if (kern_->merge_max(al_.row(idx(j)), ack.data(), min_al_.data(), n))
    min_al_dirty_ = true;
}

void CoCore::update_pal_row(EntityId j, const std::vector<SeqNo>& ack) {
  const std::size_t n = std::min(ack.size(), config_.n);
  if (n == 0) return;
  if (kern_->merge_max(pal_.row(idx(j)), ack.data(), min_pal_.data(), n))
    min_pal_dirty_ = true;
}

// ---------------------------------------------------------------------------
// PACK / ACK procedures (§4.4, §4.5)
// ---------------------------------------------------------------------------

bool CoCore::causally_gated(const CoPdu& p) const {
  // Ablation (bench_ablation A1): the bare paper rules.
  if (config_.mutation == Mutation::kNoCausalGate) return true;
  // Causal pre-ack gate (see DESIGN.md): p may move to the PRL only once
  // every PDU it detectably depends on (Theorem 4.1: all q with
  // q.SEQ < p.ACK[q.src]) has itself been pre-acknowledged here. The paper's
  // Prop. 4.3 asserts pre-acknowledgments follow the causality-precedence
  // order, but its proof does not cover dependencies that reach this entity
  // only through third parties; the gate enforces the property outright,
  // which in turn makes the CPI insertion always well-defined (the PRL is a
  // linear extension of the detected relation at all times).
  const std::size_t n = std::min(p.ack.size(), config_.n);
  return kern_->causal_gate(p.ack.data(), packed_high_.data(), n,
                            static_cast<std::size_t>(p.src));
}

void CoCore::run_pack_action() {
  // PACK action: for each source, move the head of RRL_j into PRL while the
  // PACK condition p.SEQ < minAL_j holds (and the causal gate admits it).
  // Only the head may move — this FIFO discipline is part of the protocol's
  // safety argument (Prop. 4.3). Pre-acking one PDU can unlock gated heads
  // of other sources, so iterate to a fixpoint.
  //
  // Candidate selection is one lt_mask kernel pass over the cached
  // per-source head SEQs (kNoSeq lanes — empty RRLs — can never pass):
  // packing touches PAL/packed_high but never AL, so minAL is stable for
  // the whole sweep and a source failing `head < minAL` at pass start
  // cannot become packable mid-pass. Candidates run in ascending j, each
  // re-checking its gate at visit time, exactly like the scalar loop over
  // all n sources this replaces — the non-candidates it visited were
  // no-ops.
  flush_min_al();
  bool progress = true;
  while (progress) {
    progress = false;
    if (config_.mutation == Mutation::kIgnorePackCondition) {
      // Mutation bypass (fuzz self-validation): the PACK condition is
      // ignored, so every non-empty RRL is a candidate.
      for (std::size_t j = 0; j < config_.n; ++j)
        if (!rrl_[j].empty() && pack_from(j)) progress = true;
      continue;
    }
    kern_->lt_mask(rrl_head_seq_.data(), min_al_.data(), config_.n,
                   pack_mask_.data());
    for (std::size_t w = 0; w < kern::mask_words(config_.n); ++w) {
      std::uint64_t word = pack_mask_[w];
      while (word != 0) {
        const std::size_t j =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (pack_from(j)) progress = true;
      }
    }
  }
}

bool CoCore::pack_from(std::size_t j) {
  auto& rrl = rrl_[j];
  bool progress = false;
  while (!rrl.empty() &&
         (rrl.front().pdu->seq < min_al_[j] ||
          config_.mutation == Mutation::kIgnorePackCondition) &&
         causally_gated(*rrl.front().pdu)) {
    Prl::Entry entry = std::move(rrl.front());
    rrl.pop_front();
    const CoPdu& p = *entry.pdu;
    update_pal_row(p.src, p.ack);
    packed_high_[j] = p.seq;
    note_pack_time(entry);
    trace(EventId::kPack, p.key());
    ++stats_.pre_acknowledged;
    prl_.cpi_insert(std::move(entry.pdu), entry.accepted_at);
    stats_.max_prl = std::max(stats_.max_prl, prl_.size());
    progress = true;
  }
  rrl_head_seq_[j] = rrl.empty() ? kNoSeq : rrl.front().pdu->seq;
  return progress;
}

void CoCore::run_ack_action() {
  // ACK action: deliver from the top of PRL while the ACK condition
  // p.SEQ < minPAL_src holds. A top PDU that does not yet satisfy the
  // condition blocks everything behind it — also part of the safety story.
  // ACK dequeues never touch PAL, so one flush covers the whole drain; the
  // SoA key columns decide the condition without touching a PDU body.
  flush_min_pal();
  while (!prl_.empty()) {
    if (prl_.top_seq() >= min_pal_[idx(prl_.top_src())] &&
        config_.mutation != Mutation::kIgnoreAckCondition)
      break;
    Prl::Entry entry = prl_.dequeue();
    const CoPdu& p = *entry.pdu;
    ++stats_.acknowledged;
    note_ack_time(entry);
    const bool deliver = p.is_data() && dst_contains(p.dst, self_) &&
                         config_.mutation != Mutation::kDeliverOnAccept;
    // kDeliver precedes the kAck that completes the span (same time).
    if (deliver) trace(EventId::kDeliver, p.key());
    trace(EventId::kAck, p.key());
    if (deliver) {
      --undelivered_data_;
      ++stats_.delivered_to_app;
      out_->emit(DeliverEffect{entry.pdu});
    }
  }
}

void CoCore::prune_sent_log() {
  // Our PDU with SEQ s is retransmittable until every entity is known to
  // have pre-acknowledged it (then no one can still be missing it):
  // s < minPAL_self.
  flush_min_pal();
  const SeqNo safe_below = min_pal_[idx(self_)];
  while (!sl_.empty() && sl_base_ < safe_below) {
    sl_.pop_front();
    sl_resent_at_.pop_front();
    ++sl_base_;
  }
}

// ---------------------------------------------------------------------------
// Introspection & metrics
// ---------------------------------------------------------------------------

std::size_t CoCore::undelivered_buffered() const {
  std::size_t total = prl_.size();
  for (const auto& q : rrl_) total += q.size();
  return total;
}

std::optional<std::string> CoCore::knowledge_invariant_violation() const {
  const std::size_t n = config_.n;
  // The lazy minima must agree with their tables once flushed — this is
  // exactly the dirty-flag discipline's correctness condition, so the
  // fuzzer oracle re-derives the minima scalar-side below and compares.
  flush_min_al();
  flush_min_pal();
  std::ostringstream os;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      // PAL is sampled at pre-acknowledgment, strictly later than the AL
      // update at acceptance, so it can never run ahead.
      if (pal_.at(j, k) > al_.at(j, k)) {
        os << "E" << self_ << ": PAL[" << j << "][" << k
           << "]=" << pal_.at(j, k) << " > AL[" << j << "][" << k
           << "]=" << al_.at(j, k);
        return os.str();
      }
    }
    // The own AL row mirrors the REQ vector at all times.
    if (al_.at(idx(self_), j) != req_[j]) {
      os << "E" << self_ << ": AL[self][" << j
         << "]=" << al_.at(idx(self_), j) << " != REQ[" << j
         << "]=" << req_[j];
      return os.str();
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    SeqNo mal = al_.at(0, k), mpal = pal_.at(0, k);
    for (std::size_t j = 1; j < n; ++j) {
      mal = std::min(mal, al_.at(j, k));
      mpal = std::min(mpal, pal_.at(j, k));
    }
    if (min_al_[k] != mal || min_pal_[k] != mpal) {
      os << "E" << self_ << ": cached min mismatch at col " << k << ": minAL="
         << min_al_[k] << " (true " << mal << "), minPAL=" << min_pal_[k]
         << " (true " << mpal << ")";
      return os.str();
    }
    // Nothing above our own acceptance cursor can be known accepted, let
    // alone pre-acknowledged, anywhere.
    if (min_pal_[k] > min_al_[k] || min_al_[k] > req_[k]) {
      os << "E" << self_ << ": min ordering broken at col " << k << ": minPAL="
         << min_pal_[k] << " minAL=" << min_al_[k] << " REQ=" << req_[k];
      return os.str();
    }
  }
  // The PACK sweep's head-SEQ lane cache must mirror the actual RRL heads.
  for (std::size_t j = 0; j < n; ++j) {
    const SeqNo head = rrl_[j].empty() ? kNoSeq : rrl_[j].front().pdu->seq;
    if (rrl_head_seq_[j] != head) {
      os << "E" << self_ << ": stale RRL head cache for source " << j << ": "
         << rrl_head_seq_[j] << " != " << head;
      return os.str();
    }
  }
  if (sl_base_ + sl_.size() != seq_) {
    os << "E" << self_ << ": sent log covers [" << sl_base_ << ","
       << sl_base_ + sl_.size() << ") but SEQ=" << seq_;
    return os.str();
  }
  // Pruning the sent log below minPAL_self is only sound if that stability
  // bound never overtakes what we actually sent.
  if (min_pal_[idx(self_)] > seq_) {
    os << "E" << self_ << ": stable bound minPAL[self]=" << min_pal_[idx(self_)]
       << " beyond own SEQ=" << seq_;
    return os.str();
  }
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, const CoEntityStats& s) {
  return os << "{data_sent=" << s.data_pdus_sent
            << " ctrl_sent=" << s.ctrl_pdus_sent
            << " ret_sent=" << s.ret_pdus_sent
            << " rtx_sent=" << s.retransmissions_sent
            << " accepted=" << s.pdus_accepted
            << " dup_dropped=" << s.duplicates_dropped
            << " malformed_dropped=" << s.malformed_dropped
            << " parked=" << s.parked_out_of_order
            << " packed=" << s.pre_acknowledged << " acked=" << s.acknowledged
            << " delivered=" << s.delivered_to_app << " f1=" << s.f1_detections
            << " f2=" << s.f2_detections << " ret_retries=" << s.ret_retries
            << " probes=" << s.heartbeats_sent
            << " flow_blocked=" << s.flow_blocked << " max_rrl=" << s.max_rrl
            << " max_prl=" << s.max_prl << " max_sl=" << s.max_sl
            << " max_parked=" << s.max_parked
            << " tco_us=" << s.tco_us_per_message() << '}';
}

void CoCore::note_pack_time(const Prl::Entry& entry) {
  stats_.accept_to_pack_ms.add(time::to_ms(now_ - entry.accepted_at));
}

void CoCore::note_ack_time(const Prl::Entry& entry) {
  stats_.accept_to_ack_ms.add(time::to_ms(now_ - entry.accepted_at));
}

}  // namespace co::proto
