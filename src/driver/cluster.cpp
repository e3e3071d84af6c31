#include "src/driver/cluster.h"

#include <algorithm>
#include <sstream>

#include "src/common/expect.h"
#include "src/obs/observe.h"
#include "src/obs/trace/tracer.h"

namespace co::proto {

void CoCluster::note_send(EntityId sender, const PduKey& key, bool is_data,
                          sim::SimTime at) {
  if (is_data) {
    // Only data PDUs are delivered, so only their send times are read.
    sent_at_.emplace(key, at);
    data_sent_.push_back(key);
    auto& pending = pending_dst_[static_cast<std::size_t>(sender)];
    const DstMask dst = pending.empty() ? kEveryone : pending.front();
    if (!pending.empty()) pending.pop_front();
    sent_dst_.emplace(key, dst);
    for (std::size_t e = 0; e < expected_deliveries_.size(); ++e)
      if (dst_contains(dst, static_cast<EntityId>(e)))
        ++expected_deliveries_[e];
  }
  if (trace_) trace_->on_send(sender, key);
}

void CoCluster::on_event(const Record& r) {
  const PduKey key{r.origin, r.seq};
  switch (static_cast<EventId>(r.event)) {
    case EventId::kSend: note_send(r.actor, key, r.arg != 0, r.at); break;
    case EventId::kAccept:
      if (trace_) trace_->on_accept(r.actor, key);
      break;
    default: break;
  }
  if (options_.obs) options_.obs->spans.on_event(r);
  if (options_.tracer) options_.tracer->emit(r);
  if (options_.observer) options_.observer->on_event(r);
}

CoCluster::CoCluster(ClusterOptions options) : options_(std::move(options)) {
  auto& proto = options_.proto;
  proto.validate();
  options_.net.n = proto.n;
  network_ = std::make_unique<net::McNetwork<Message>>(sched_, options_.net);
  if (options_.record_trace)
    trace_ = std::make_unique<causality::TraceRecorder>(proto.n);
  deliveries_.resize(proto.n);
  expected_deliveries_.assign(proto.n, 0);
  pending_dst_.resize(proto.n);

  for (std::size_t i = 0; i < proto.n; ++i) {
    const auto id = static_cast<EntityId>(i);
    entities_.push_back(
        std::make_unique<CoCore>(id, proto, static_cast<CoObserver*>(this)));
    driver::SimDriver::Hooks hooks;
    hooks.broadcast = [this, id](Message m) {
      network_->broadcast(id, std::move(m));
    };
    hooks.deliver = [this, id](const CoPdu& p) {
      deliveries_[static_cast<std::size_t>(id)].push_back(
          Delivery{p.key(), p.data, sched_.now()});
      const auto it = sent_at_.find(p.key());
      if (it != sent_at_.end())
        tap_ms_.add(sim::to_ms(sched_.now() - it->second));
    };
    hooks.free_buffer = [this, id] { return network_->free_buffer(id); };
    drivers_.push_back(std::make_unique<driver::SimDriver>(
        *entities_.back(), sched_, std::move(hooks), options_.effect_tap));
  }
  if (options_.obs) register_observability();
  for (std::size_t i = 0; i < proto.n; ++i) {
    const auto id = static_cast<EntityId>(i);
    network_->attach(id, [this, id](EntityId from, const Message& msg) {
      drivers_[static_cast<std::size_t>(id)]->on_message(from, msg);
    });
  }
}

CoCluster::~CoCluster() = default;

CoCore& CoCluster::entity(EntityId i) {
  CO_EXPECT(i >= 0 && static_cast<std::size_t>(i) < entities_.size());
  return *entities_[static_cast<std::size_t>(i)];
}

const CoCore& CoCluster::entity(EntityId i) const {
  CO_EXPECT(i >= 0 && static_cast<std::size_t>(i) < entities_.size());
  return *entities_[static_cast<std::size_t>(i)];
}

driver::SimDriver& CoCluster::entity_driver(EntityId i) {
  CO_EXPECT(i >= 0 && static_cast<std::size_t>(i) < drivers_.size());
  return *drivers_[static_cast<std::size_t>(i)];
}

void CoCluster::submit(EntityId i, std::vector<std::uint8_t> data,
                       proto::DstMask dst) {
  CO_EXPECT(!data.empty());
  ++submitted_;
  // The destination mask travels out-of-band to the observer: each entity's
  // DT requests leave its app queue in FIFO order, so the pending masks
  // line up with its data PDUs as they hit the wire.
  pending_dst_[static_cast<std::size_t>(i)].push_back(dst);
  if (options_.obs) options_.obs->spans.on_submit(i, sched_.now());
  CO_EXPECT(i >= 0 && static_cast<std::size_t>(i) < drivers_.size());
  drivers_[static_cast<std::size_t>(i)]->submit(std::move(data), dst);
}

void CoCluster::submit_text(EntityId i, std::string_view text,
                            proto::DstMask dst) {
  submit(i, std::vector<std::uint8_t>(text.begin(), text.end()), dst);
}

bool CoCluster::all_delivered() const {
  // Every data PDU submitted must have left the app queues...
  std::uint64_t sent = 0;
  for (const auto& e : entities_) {
    if (e->app_queue_depth() != 0) return false;
    sent += e->stats().data_pdus_sent;
  }
  if (sent != submitted_) return false;
  // ...and have been delivered at every entity it was destined to.
  for (std::size_t e = 0; e < deliveries_.size(); ++e)
    if (deliveries_[e].size() != expected_deliveries_[e]) return false;
  return true;
}

bool CoCluster::run_until_delivered(sim::SimTime deadline) {
  // Advance one event at a time so the run stops the instant the goal is
  // reached — the confirmation chatter never self-terminates (see DESIGN.md)
  // and would otherwise run to the deadline every time.
  while (!all_delivered()) {
    if (sched_.now() > deadline || sched_.idle()) return all_delivered();
    sched_.step();
  }
  return true;
}

void CoCluster::run_for(sim::SimDuration span) {
  sched_.run_until(sched_.now() + span);
}

const std::vector<Delivery>& CoCluster::deliveries(EntityId i) const {
  CO_EXPECT(i >= 0 && static_cast<std::size_t>(i) < deliveries_.size());
  return deliveries_[static_cast<std::size_t>(i)];
}

causality::DeliveryLog CoCluster::delivered_keys(EntityId i) const {
  causality::DeliveryLog log;
  for (const auto& d : deliveries(i)) log.push_back(d.key);
  return log;
}

std::vector<causality::DeliveryLog> CoCluster::all_delivered_keys() const {
  std::vector<causality::DeliveryLog> logs;
  logs.reserve(deliveries_.size());
  for (std::size_t i = 0; i < deliveries_.size(); ++i)
    logs.push_back(delivered_keys(static_cast<EntityId>(i)));
  return logs;
}

std::optional<causality::Violation> CoCluster::check_co_service() const {
  CO_EXPECT_MSG(trace_, "cluster built with record_trace = false");
  // With selective destinations, each entity is only owed the PDUs it is a
  // destination of; build the per-entity expected set.
  const auto logs = all_delivered_keys();
  for (std::size_t e = 0; e < logs.size(); ++e) {
    const auto id = static_cast<EntityId>(e);
    std::vector<PduKey> expected;
    for (const auto& key : data_sent_) {
      const auto it = sent_dst_.find(key);
      const DstMask dst = it == sent_dst_.end() ? kEveryone : it->second;
      if (dst_contains(dst, id)) expected.push_back(key);
    }
    if (auto v = causality::check_information_preserved(id, logs[e], expected))
      return v;
    if (auto v = causality::check_local_order_preserved(id, logs[e])) return v;
    if (auto v = causality::check_causality_preserved(id, logs[e], *trace_))
      return v;
  }
  return std::nullopt;
}

void CoCluster::register_observability() {
  obs::MetricsRegistry& reg = options_.obs->registry;
  const std::size_t n = options_.proto.n;
  // Every instrument below is a callback over state the protocol already
  // maintains — sampled only at snapshot() time, so attaching the bundle
  // adds no hot-path work and no scheduler events. Entity counters go
  // through CoEntityStats::snapshot(): the instruments never hold
  // references into the live, mutating counters.
  using SnapField = std::uint64_t CoEntityStats::Snapshot::*;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<EntityId>(i);
    const obs::Labels ent = {{"entity", "E" + std::to_string(i)}};
    const CoCore* e = entities_[i].get();
    auto add_kind = [&](const char* kind, SnapField field, const char* help) {
      obs::Labels labels = ent;
      labels.emplace_back("kind", kind);
      reg.counter_fn("co_pdus_sent_total", std::move(labels),
                     [e, field] {
                       return static_cast<double>(e->stats().snapshot().*field);
                     },
                     help);
    };
    add_kind("data", &CoEntityStats::Snapshot::data_pdus_sent,
             "PDUs broadcast, by kind");
    add_kind("ctrl", &CoEntityStats::Snapshot::ctrl_pdus_sent, "");
    add_kind("ret", &CoEntityStats::Snapshot::ret_pdus_sent, "");
    add_kind("rtx", &CoEntityStats::Snapshot::retransmissions_sent, "");
    auto add_counter = [&](const char* name, SnapField field,
                           const char* help) {
      reg.counter_fn(name, ent,
                     [e, field] {
                       return static_cast<double>(e->stats().snapshot().*field);
                     },
                     help);
    };
    add_counter("co_pdus_accepted_total",
                &CoEntityStats::Snapshot::pdus_accepted,
                "PDUs that passed the acceptance action");
    add_counter("co_pdus_parked_total",
                &CoEntityStats::Snapshot::parked_out_of_order,
                "Out-of-order PDUs parked behind a gap");
    add_counter("co_pre_acknowledged_total",
                &CoEntityStats::Snapshot::pre_acknowledged,
                "PDUs moved into the PRL (PACK action)");
    add_counter("co_acknowledged_total", &CoEntityStats::Snapshot::acknowledged,
                "PDUs acknowledged (ACK action)");
    add_counter("co_delivered_total", &CoEntityStats::Snapshot::delivered_to_app,
                "Data PDUs handed to the application");
    add_counter("co_f1_detections_total",
                &CoEntityStats::Snapshot::f1_detections,
                "Failure condition (1) firings");
    add_counter("co_f2_detections_total",
                &CoEntityStats::Snapshot::f2_detections,
                "Failure condition (2) firings");
    add_counter("co_flow_blocked_total", &CoEntityStats::Snapshot::flow_blocked,
                "DT requests held back by the flow condition");
    reg.gauge_fn("co_undelivered_buffered", ent,
                 [e] { return static_cast<double>(e->undelivered_buffered()); },
                 "Accepted-but-undelivered PDUs buffered (RRL + PRL)");
    reg.gauge_fn("co_prl_size", ent,
                 [e] { return static_cast<double>(e->prl_size()); },
                 "Pre-acknowledged PDUs awaiting the ACK condition");
    reg.gauge_fn("co_sent_log_size", ent,
                 [e] { return static_cast<double>(e->sent_log_size()); },
                 "Own PDUs retained for selective retransmission");
    reg.gauge_fn("co_app_queue_depth", ent,
                 [e] { return static_cast<double>(e->app_queue_depth()); },
                 "DT requests queued behind the flow condition");
    reg.gauge_fn("co_net_ingress_queue_depth", ent,
                 [this, id] {
                   return static_cast<double>(
                       network_->ingress_queue_depth(id));
                 },
                 "PDUs in the MC ingress buffer right now");
  }
  const net::NetworkStats* ns = &network_->stats();
  reg.counter_fn("co_net_pdus_sent_total", {},
                 [ns] { return static_cast<double>(ns->pdus_sent); },
                 "Per-destination PDU copies put on the wire");
  reg.counter_fn("co_net_pdus_delivered_total", {},
                 [ns] { return static_cast<double>(ns->pdus_delivered); },
                 "PDU copies handed to entities");
  reg.counter_fn("co_net_dropped_total", {{"reason", "overrun"}},
                 [ns] { return static_cast<double>(ns->dropped_overrun); },
                 "PDU copies lost, by failure mode");
  reg.counter_fn("co_net_dropped_total", {{"reason", "injected"}},
                 [ns] { return static_cast<double>(ns->dropped_injected); });
  reg.counter_fn("co_net_dropped_total", {{"reason", "fault"}},
                 [ns] { return static_cast<double>(ns->dropped_fault); });
  reg.gauge_fn("co_net_max_queue_depth", {},
               [ns] { return static_cast<double>(ns->max_queue_depth); },
               "Worst ingress-buffer occupancy seen");
  reg.gauge_fn("co_sim_pending_events", {},
               [this] { return static_cast<double>(sched_.pending_events()); },
               "Events in the scheduler queue right now");
  reg.counter_fn("co_sim_executed_events_total", {},
                 [this] {
                   return static_cast<double>(sched_.executed_events());
                 },
                 "Events the scheduler has executed");
  reg.counter_fn("co_sim_scheduled_events_total", {},
                 [this] {
                   return static_cast<double>(sched_.scheduled_events());
                 },
                 "Events (incl. timers) ever armed");
}

std::string CoCluster::dump_entity_stats() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    if (i) os << '\n';
    os << 'E' << i << ' ' << entities_[i]->stats();
  }
  return os.str();
}

CoEntityStats CoCluster::aggregate_stats() const {
  CoEntityStats agg;
  for (const auto& e : entities_) {
    const CoEntityStats::Snapshot s = e->stats().snapshot();
    agg.data_pdus_sent += s.data_pdus_sent;
    agg.ctrl_pdus_sent += s.ctrl_pdus_sent;
    agg.ret_pdus_sent += s.ret_pdus_sent;
    agg.retransmissions_sent += s.retransmissions_sent;
    agg.pdus_accepted += s.pdus_accepted;
    agg.duplicates_dropped += s.duplicates_dropped;
    agg.parked_out_of_order += s.parked_out_of_order;
    agg.pre_acknowledged += s.pre_acknowledged;
    agg.acknowledged += s.acknowledged;
    agg.delivered_to_app += s.delivered_to_app;
    agg.f1_detections += s.f1_detections;
    agg.f2_detections += s.f2_detections;
    agg.ret_retries += s.ret_retries;
    agg.flow_blocked += s.flow_blocked;
    agg.processing_ns += s.processing_ns;
    agg.messages_processed += s.messages_processed;
    agg.max_rrl = std::max(agg.max_rrl, s.max_rrl);
    agg.max_prl = std::max(agg.max_prl, s.max_prl);
    agg.max_sl = std::max(agg.max_sl, s.max_sl);
    agg.max_parked = std::max(agg.max_parked, s.max_parked);
    agg.accept_to_pack_ms.merge(s.accept_to_pack_ms);
    agg.accept_to_ack_ms.merge(s.accept_to_ack_ms);
  }
  return agg;
}

}  // namespace co::proto
