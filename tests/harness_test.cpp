// Integration tests: the experiment harness used by every bench binary.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"

namespace co::harness {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.n = 3;
  cfg.buffer_capacity = 1u << 16;
  cfg.workload.arrival = app::WorkloadConfig::Arrival::kContinuous;
  cfg.workload.messages_per_entity = 20;
  cfg.deadline = 60'000 * sim::kMillisecond;
  cfg.seed = 1;
  return cfg;
}

TEST(Harness, CoExperimentCompletesAndReportsMetrics) {
  auto cfg = small_config();
  cfg.check_correctness = true;
  const auto r = run_co_experiment(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.violation, std::nullopt);
  EXPECT_EQ(r.data_pdus, 60u);
  EXPECT_GT(r.tco_us, 0.0);
  EXPECT_GT(r.tap_ms, 0.0);
  EXPECT_GT(r.accept_to_ack_ms, r.accept_to_pack_ms);
  EXPECT_GT(r.wire_pdus, 0u);
  EXPECT_GT(r.delivered_msgs_per_sim_s, 0.0);
}

TEST(Harness, CoExperimentUnderLossStillCompletes) {
  auto cfg = small_config();
  cfg.injected_loss = 0.1;
  cfg.check_correctness = true;
  const auto r = run_co_experiment(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.violation, std::nullopt);
  EXPECT_GT(r.dropped_injected, 0u);
  EXPECT_GT(r.retransmissions, 0u);
}

TEST(Harness, CoExperimentTimedWorkloadWaitsForAllSubmissions) {
  // Regression: run_until_delivered is vacuously true before a timed
  // workload submits anything; the harness must wait for the workload.
  auto cfg = small_config();
  cfg.workload.arrival = app::WorkloadConfig::Arrival::kUniform;
  cfg.workload.mean_interval = 2 * sim::kMillisecond;
  cfg.workload.messages_per_entity = 5;
  const auto r = run_co_experiment(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.data_pdus, 15u);
}

TEST(Harness, ImpossibleDeadlineReportsIncomplete) {
  auto cfg = small_config();
  cfg.deadline = 1;  // 1 ns
  const auto r = run_co_experiment(cfg);
  EXPECT_FALSE(r.completed);
}

TEST(Harness, ToExperimentCompletes) {
  const auto r = run_to_experiment(small_config());
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.data_pdus, 60u);
  EXPECT_EQ(r.retransmissions, 0u);  // loss-free
}

TEST(Harness, DeferredAblationChangesTraffic) {
  auto cfg = small_config();
  cfg.workload.arrival = app::WorkloadConfig::Arrival::kUniform;
  cfg.workload.mean_interval = 5 * sim::kMillisecond;
  cfg.workload.messages_per_entity = 10;
  cfg.defer_timeout = 1 * sim::kMillisecond;
  const auto deferred = run_co_experiment(cfg);
  cfg.deferred_confirmation = false;
  const auto immediate = run_co_experiment(cfg);
  ASSERT_TRUE(deferred.completed);
  ASSERT_TRUE(immediate.completed);
  // Immediate confirmation produces at least as many ack-only PDUs.
  EXPECT_GE(immediate.ctrl_pdus, deferred.ctrl_pdus);
}

TEST(Harness, LossIncreasesCompletionTime) {
  auto base = small_config();
  base.workload.messages_per_entity = 40;
  const auto clean = run_co_experiment(base);
  auto lossy = base;
  lossy.injected_loss = 0.15;
  const auto dirty = run_co_experiment(lossy);
  ASSERT_TRUE(clean.completed);
  ASSERT_TRUE(dirty.completed);
  EXPECT_GT(dirty.sim_ms, clean.sim_ms);
}

}  // namespace
}  // namespace co::harness
