#include "src/harness/experiment.h"

#include "src/baselines/baseline_clusters.h"
#include "src/driver/cluster.h"
#include "src/common/expect.h"

namespace co::harness {

namespace {

/// Step the simulation until `done()` holds, the deadline passes, or the
/// event queue drains. (Cluster-level run helpers stop on "all delivered",
/// which is vacuously true before a timed workload submits anything.)
template <class DoneFn>
bool run_sim(sim::Scheduler& sched, sim::SimTime deadline, DoneFn done) {
  while (!done()) {
    if (sched.now() > deadline || sched.idle()) return done();
    sched.step();
  }
  return true;
}

proto::ClusterOptions to_cluster_options(const ExperimentConfig& c) {
  proto::ClusterOptions o;
  o.proto.n = c.n;
  o.proto.window = c.window;
  o.proto.defer_timeout = c.defer_timeout;
  o.proto.retransmit_timeout = c.retransmit_timeout;
  o.proto.deferred_confirmation = c.deferred_confirmation;
  o.proto.assumed_peer_buffer = c.buffer_capacity;
  o.net.n = c.n;
  o.net.delay = net::DelayModel::fixed(c.link_delay);
  o.net.buffer_capacity = c.buffer_capacity;
  o.net.service_time = c.service_time;
  o.net.injected_loss = c.injected_loss;
  o.net.seed = c.seed;
  o.record_trace = c.check_correctness;
  o.obs = c.obs;
  o.tracer = c.tracer;
  return o;
}

}  // namespace

ExperimentResult run_co_experiment(const ExperimentConfig& config) {
  proto::CoCluster cluster(to_cluster_options(config));
  app::WorkloadDriver workload(
      cluster.scheduler(), config.n, config.workload,
      [&cluster](EntityId e, std::vector<std::uint8_t> data) {
        cluster.submit(e, std::move(data));
      });
  workload.start();

  ExperimentResult r;
  r.completed = run_sim(cluster.scheduler(), config.deadline, [&] {
    return workload.finished() && cluster.all_delivered();
  });
  r.sim_ms = sim::to_ms(cluster.scheduler().now());

  if (config.check_correctness) {
    if (const auto v = cluster.check_co_service())
      r.violation = v->to_string() + "\nper-entity stats:\n" +
                    cluster.dump_entity_stats();
  }
  if (config.obs)
    r.metrics = config.obs->registry.snapshot(cluster.scheduler().now());

  const auto agg = cluster.aggregate_stats();
  r.tco_us = agg.tco_us_per_message();
  r.tap_ms = cluster.tap_ms().mean();
  r.accept_to_pack_ms = agg.accept_to_pack_ms.mean();
  r.accept_to_ack_ms = agg.accept_to_ack_ms.mean();
  r.data_pdus = agg.data_pdus_sent;
  r.ctrl_pdus = agg.ctrl_pdus_sent;
  r.ret_pdus = agg.ret_pdus_sent;
  r.retransmissions = agg.retransmissions_sent;
  r.max_buffered = 0;
  for (std::size_t i = 0; i < config.n; ++i) {
    const auto s = cluster.entity(static_cast<EntityId>(i)).stats().snapshot();
    r.max_buffered = std::max(r.max_buffered, s.max_rrl + s.max_prl);
  }
  r.max_sent_log = agg.max_sl;
  const auto& ns = cluster.network().stats();
  r.wire_pdus = ns.pdus_sent;
  r.dropped_overrun = ns.dropped_overrun;
  r.dropped_injected = ns.dropped_injected;
  r.ctrl_per_data =
      r.data_pdus ? static_cast<double>(r.ctrl_pdus) /
                        static_cast<double>(r.data_pdus)
                  : 0.0;
  if (r.sim_ms > 0.0)
    r.delivered_msgs_per_sim_s =
        static_cast<double>(agg.delivered_to_app) / (r.sim_ms / 1e3);
  return r;
}

ExperimentResult run_to_experiment(const ExperimentConfig& config) {
  net::OneChannelConfig net_config;
  net_config.n = config.n;
  net_config.propagation_delay = config.link_delay;
  net_config.buffer_capacity = config.buffer_capacity;
  net_config.service_time = config.service_time;
  net_config.injected_loss = config.injected_loss;
  net_config.seed = config.seed;
  baselines::ToCluster cluster(config.n, net_config,
                               config.retransmit_timeout);
  app::WorkloadDriver workload(
      cluster.scheduler(), config.n, config.workload,
      [&cluster](EntityId e, std::vector<std::uint8_t> data) {
        cluster.broadcast(e, std::move(data));
      });
  workload.start();

  ExperimentResult r;
  r.completed = run_sim(cluster.scheduler(), config.deadline, [&] {
    return workload.finished() && cluster.all_delivered();
  });
  r.sim_ms = sim::to_ms(cluster.scheduler().now());
  const auto agg = cluster.aggregate_stats();
  r.tco_us = agg.delivered
                 ? static_cast<double>(agg.processing_ns) / 1e3 /
                       static_cast<double>(agg.delivered)
                 : 0.0;
  r.data_pdus = agg.data_pdus_sent;
  r.ret_pdus = agg.ret_pdus_sent;
  r.retransmissions = agg.retransmissions_sent;
  const auto& ns = cluster.network().stats();
  r.wire_pdus = ns.pdus_sent;
  r.dropped_overrun = ns.dropped_overrun;
  r.dropped_injected = ns.dropped_injected;
  if (r.sim_ms > 0.0)
    r.delivered_msgs_per_sim_s =
        static_cast<double>(agg.delivered) / (r.sim_ms / 1e3);
  return r;
}

}  // namespace co::harness
