#include "src/fuzz/runner.h"

#include <algorithm>
#include <stdexcept>

#include "src/driver/cluster.h"
#include "src/fuzz/effect_log.h"
#include "src/obs/observe.h"
#include "src/obs/trace/tracer.h"

namespace co::fuzz {

const char* mutation_name(proto::Mutation m) {
  switch (m) {
    case proto::Mutation::kNone: return "none";
    case proto::Mutation::kNoCausalGate: return "no_causal_gate";
    case proto::Mutation::kDeliverOnAccept: return "deliver_on_accept";
    case proto::Mutation::kIgnorePackCondition: return "ignore_pack_condition";
    case proto::Mutation::kIgnoreAckCondition: return "ignore_ack_condition";
  }
  return "?";
}

proto::Mutation mutation_from_name(const std::string& name) {
  for (const auto m :
       {proto::Mutation::kNone, proto::Mutation::kNoCausalGate,
        proto::Mutation::kDeliverOnAccept,
        proto::Mutation::kIgnorePackCondition,
        proto::Mutation::kIgnoreAckCondition}) {
    if (name == mutation_name(m)) return m;
  }
  throw std::runtime_error("unknown mutation: " + name);
}

RunReport run_scenario(const Scenario& scenario, const RunOptions& options) {
  RunReport report;

  RecordDigest digest;
  EffectRecorder effect_recorder;
  obs::Observability observability(scenario.n);
  // Always-on flight recorder: a ring of the newest binary event records,
  // dumped into the report (and from there the counterexample sidecar)
  // when an oracle fires. Off the digest, so replay stays byte-identical.
  obs::trace::TracerConfig flight_config;
  flight_config.ring_capacity = options.flight_capacity;
  obs::trace::Tracer flight(flight_config);
  proto::ClusterOptions o;
  o.proto = scenario.proto_config();
  o.proto.mutation = options.mutation;
  o.proto.kernels = options.kernels;
  o.net = scenario.net_config();
  o.observer = &digest;
  o.obs = &observability;
  o.effect_tap = &effect_recorder;
  o.tracer = &flight;
  proto::CoCluster cluster(o);

  cluster.network().set_fault_schedule(scenario.faults);

  // Deterministic payloads: byte k of submit i is a function of (seed, i).
  auto& sched = cluster.scheduler();
  for (std::size_t i = 0; i < scenario.submits.size(); ++i) {
    const SubmitOp& op = scenario.submits[i];
    sched.schedule_at(op.at, [&cluster, &scenario, op, i] {
      std::vector<std::uint8_t> data(op.payload_bytes);
      for (std::size_t k = 0; k < data.size(); ++k)
        data[k] = static_cast<std::uint8_t>(scenario.seed + 31 * i + k);
      cluster.submit(op.entity, std::move(data));
    });
  }

  auto flag = [&report](const std::string& kind, const std::string& detail) {
    if (report.failed) return;  // keep the first violation
    report.failed = true;
    report.violation_kind = kind;
    report.violation_detail = detail;
  };

  // run_until_delivered() stops as soon as everything submitted SO FAR is
  // delivered — with every submit still scheduled in the future it would
  // return immediately. Drive the scheduler through the submit window
  // first, then wait for the cluster to quiesce.
  //
  // A CO_EXPECT / CO_DCHECK firing inside the protocol is itself a caught
  // bug (deterministically reproducible, so shrink/replay work on it like
  // on any oracle verdict) — report it instead of unwinding further.
  bool delivered = true;
  try {
    sim::SimTime last_submit = 0;
    for (const SubmitOp& op : scenario.submits)
      last_submit = std::max(last_submit, op.at);
    cluster.scheduler().run_until(last_submit);
    delivered = cluster.run_until_delivered(scenario.horizon);
  } catch (const std::exception& e) {
    flag("assertion", e.what());
  }
  report.finished_at = sched.now();
  report.submitted = cluster.submitted();
  for (std::size_t e = 0; e < scenario.n; ++e)
    report.deliveries += cluster.deliveries(static_cast<EntityId>(e)).size();

  // 1. Liveness: the run must have reached all-delivered inside the
  // horizon. check_liveness names the first missing PDU per entity.
  if (!delivered && !report.failed) {
    const auto& sent = cluster.data_sent();
    for (std::size_t e = 0; e < scenario.n && !report.failed; ++e) {
      const auto id = static_cast<EntityId>(e);
      if (auto v = causality::check_liveness(id, cluster.delivered_keys(id),
                                             sent, scenario.horizon,
                                             report.finished_at))
        flag(v->kind, v->to_string());
    }
    if (!report.failed)
      flag("liveness", "run did not reach all-delivered but no PDU is "
                       "missing (app queue wedged: flow window never opened)");
  }

  // 2. The CO service itself (Def. 2.3 / Thm 4.5).
  if (!report.failed) {
    if (auto v = cluster.check_co_service()) flag(v->kind, v->to_string());
  }

  // 3 + 4. Per-entity structural invariants.
  for (std::size_t e = 0; e < scenario.n && !report.failed; ++e) {
    const auto& entity = cluster.entity(static_cast<EntityId>(e));
    if (!entity.prl().causality_preserved())
      flag("prl-order", "E" + std::to_string(e) +
                            ": PRL is not a linear extension of the "
                            "detected causality relation");
    if (auto inv = entity.knowledge_invariant_violation())
      flag("knowledge", *inv);
  }

  if (report.failed) {
    // Stamp the verdict into the ring so the dump's tail self-identifies,
    // then capture the resident records (writer quiesced: same thread).
    flight.emit(obs::trace::EventId::kViolation, sched.now(), kNoEntity,
                kNoEntity, obs::trace::kSeqNone, 0);
    report.flight_tail = flight.snapshot();
    report.flight_dropped = flight.dropped();
  }

  report.digest = digest.digest();
  report.trace_events = digest.events();
  report.effect_digest = effect_recorder.digest();
  report.effects_emitted = effect_recorder.effects();
  report.effect_sample = effect_recorder.sample();
  report.metrics = observability.registry.snapshot(sched.now());
  report.entity_stats = cluster.dump_entity_stats();
  return report;
}

}  // namespace co::fuzz
