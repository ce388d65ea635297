// Cross-backend equivalence: the scheduler is purely an execution-engine
// choice, so the events backend must produce the same results as threads.
// Threads is the oracle: preemptive OS threads with CV parks share no
// scheduling code with the fibers, so agreement is independent evidence.
// Events runs at one worker (vacated stacks decommit in deferred
// process_madvise batches, cancelled on an early re-dispatch) and at four
// (eager decommit), each at the default stack budget and at budget 0,
// where every eligible park vacates its stack.
//
// What "identical" can mean depends on the run shape:
//
//  * Failure-free runs with no checkpoint activity are fully deterministic
//    in virtual time (observation-point-only clock merges, PR 2), so the
//    ENTIRE RunReport must be bit-identical across backends.
//  * Once a drain is involved, the *cut position* is wall-schedule
//    dependent (ranks race ahead before observing the request; targets
//    max-merge whatever SEQ they reached), so drain-relative quantities
//    (ckpt_durations, protocol message counts, post-restore makespans)
//    legitimately differ between any two runs — including two threads
//    runs. For those shapes we assert the schedule-independent core:
//    application fingerprints, checkpoint/crash counts, and completion.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "sched/fiber.hpp"
#include "simnet/mailbox.hpp"
#include "split/engine.hpp"

namespace manatee::harness {
namespace {

using split::Engine;
using split::EngineConfig;
using split::Protocol;
using split::RunReport;

/// One scheduler configuration under test.
struct SchedRow {
  std::string name;
  sched::SchedConfig config;
};

SchedRow threads_row() {
  SchedRow row{"threads", {}};
  row.config.backend = sched::Backend::kThreads;
  return row;
}

std::vector<SchedRow> events_rows() {
  std::vector<SchedRow> rows;
  for (const int workers : {1, 4}) {
    for (const bool vacate_every_park : {false, true}) {
      SchedRow row{"events_w" + std::to_string(workers) +
                       (vacate_every_park ? "_vacate" : ""),
                   {}};
      row.config.workers = workers;
      if (vacate_every_park) row.config.stack_budget_bytes = 0;
      rows.push_back(row);
    }
  }
  return rows;
}

/// The stack budget decides whether parks vacate: 16 ranks never come near
/// the default budget, and budget 0 vacates every eligible park (when the
/// build supports vacating at all).
void expect_vacations_follow_budget(const SchedRow& row,
                                    const RunReport& report) {
  if (row.config.stack_budget_bytes != 0) {
    EXPECT_EQ(report.sched.stack_vacations, 0u);
  } else if (sched::detail::stack_vacate_supported()) {
    EXPECT_GT(report.sched.stack_vacations, 0u);
  }
}

struct BackendRun {
  RunReport report;
  std::vector<std::uint64_t> fingerprints;
};

BackendRun run_once(const SchedRow& row, Protocol protocol, int world,
                    std::vector<std::uint64_t> triggers,
                    const std::string& tag) {
  simnet::MessageStore::set_wait_timeout_ms(20'000);
  EngineConfig config = make_engine_config(
      protocol, world, fresh_dir(tag + "_" + row.name), std::move(triggers));
  config.runtime.sched = row.config;
  Engine engine(config);
  BackendRun out;
  out.fingerprints.resize(static_cast<std::size_t>(world));
  const FingerprintApp app = make_workload(WorkloadKind::kMixed, protocol);
  out.report = engine.run([&](split::Api& api) {
    out.fingerprints[static_cast<std::size_t>(api.rank())] = app(api);
  });
  return out;
}

void expect_full_report_eq(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.wrapper_collective_calls, b.wrapper_collective_calls);
  EXPECT_EQ(a.wrapper_p2p_calls, b.wrapper_p2p_calls);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.ckpt_durations, b.ckpt_durations);
  EXPECT_EQ(a.restart_duration, b.restart_duration);
  EXPECT_EQ(a.stopped_after_checkpoint, b.stopped_after_checkpoint);
  EXPECT_EQ(a.restored_generation, b.restored_generation);
  EXPECT_EQ(a.ckpt_protocol_messages, b.ckpt_protocol_messages);
  EXPECT_EQ(a.collective_messages, b.collective_messages);
  EXPECT_EQ(a.image_bytes_total, b.image_bytes_total);
}

class EquivalenceWorlds : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceWorlds, FailureFreeRunReportsAreBitIdentical) {
  const int world = GetParam();
  for (const Protocol protocol : {Protocol::kCC, Protocol::kTpc}) {
    SCOPED_TRACE(split::protocol_name(protocol));
    const std::string tag = "sched_eq_w" + std::to_string(world) + "_" +
                            split::protocol_name(protocol);
    const BackendRun threads = run_once(threads_row(), protocol, world, {}, tag);
    for (const SchedRow& row : events_rows()) {
      SCOPED_TRACE(row.name);
      const BackendRun other = run_once(row, protocol, world, {}, tag);
      expect_full_report_eq(threads.report, other.report);
      EXPECT_EQ(threads.fingerprints, other.fingerprints);
      expect_vacations_follow_budget(row, other.report);
    }
  }
}

TEST_P(EquivalenceWorlds, CheckpointRunsAgreeOnScheduleIndependentFields) {
  const int world = GetParam();
  for (const Protocol protocol : {Protocol::kCC, Protocol::kTpc}) {
    SCOPED_TRACE(split::protocol_name(protocol));
    const std::string tag = "sched_eq_ck_w" + std::to_string(world) + "_" +
                            split::protocol_name(protocol);
    const BackendRun threads =
        run_once(threads_row(), protocol, world, {3, 9}, tag);
    for (const SchedRow& row : events_rows()) {
      SCOPED_TRACE(row.name);
      const BackendRun other = run_once(row, protocol, world, {3, 9}, tag);
      EXPECT_EQ(threads.fingerprints, other.fingerprints);
      EXPECT_EQ(threads.report.checkpoints, other.report.checkpoints);
      EXPECT_EQ(threads.report.wrapper_collective_calls,
                other.report.wrapper_collective_calls);
      EXPECT_EQ(threads.report.wrapper_p2p_calls,
                other.report.wrapper_p2p_calls);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, EquivalenceWorlds,
                         ::testing::Values(2, 3, 5, 8, 13, 16));

class LifecycleEquivalenceWorlds : public ::testing::TestWithParam<int> {};

TEST_P(LifecycleEquivalenceWorlds, CrashRestartChainsMatchAcrossBackends) {
  // Full lifecycle storms (checkpoint → crash → restore → …) under every
  // row: each chain must round-trip against its own golden run (the
  // harness asserts that), and the final state plus the deterministic
  // lifecycle shape must agree with the threads oracle.
  const int world = GetParam();
  std::vector<SchedRow> rows = events_rows();
  rows.insert(rows.begin(), threads_row());
  std::vector<ScenarioOutcome> outcomes;
  for (const SchedRow& row : rows) {
    Scenario scenario;
    scenario.tag =
        "sched_eq_life_w" + std::to_string(world) + "_" + row.name;
    scenario.workload = WorkloadKind::kMixed;
    scenario.world = world;
    scenario.protocol = Protocol::kCC;
    scenario.failures.at_collectives = {5, 11};
    scenario.retain_generations = 2;
    scenario.sched = row.config;
    outcomes.push_back(expect_scenario_roundtrip(scenario));
  }
  for (std::size_t j = 1; j < outcomes.size(); ++j) {
    SCOPED_TRACE(rows[j].name);
    EXPECT_EQ(outcomes[0].golden, outcomes[j].golden);
    EXPECT_EQ(outcomes[0].chained, outcomes[j].chained);
    EXPECT_EQ(outcomes[0].lifecycle.crashes, outcomes[j].lifecycle.crashes);
    EXPECT_EQ(outcomes[0].lifecycle.completed, outcomes[j].lifecycle.completed);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, LifecycleEquivalenceWorlds,
                         ::testing::Values(2, 4, 8, 16));

TEST(LifecycleEquivalence, TwoPhaseCommitChainMatchesAcrossBackends) {
  std::vector<SchedRow> rows = events_rows();
  rows.insert(rows.begin(), threads_row());
  std::vector<ScenarioOutcome> outcomes;
  for (const SchedRow& row : rows) {
    Scenario scenario;
    scenario.tag = "sched_eq_life_tpc_" + row.name;
    scenario.workload = WorkloadKind::kMixed;
    scenario.world = 4;
    scenario.protocol = Protocol::kTpc;
    scenario.failures.at_collectives = {6};
    scenario.retain_generations = 2;
    scenario.sched = row.config;
    outcomes.push_back(expect_scenario_roundtrip(scenario));
  }
  for (std::size_t j = 1; j < outcomes.size(); ++j) {
    SCOPED_TRACE(rows[j].name);
    EXPECT_EQ(outcomes[0].golden, outcomes[j].golden);
    EXPECT_EQ(outcomes[0].chained, outcomes[j].chained);
    EXPECT_EQ(outcomes[0].lifecycle.crashes, outcomes[j].lifecycle.crashes);
    EXPECT_EQ(outcomes[0].lifecycle.completed, outcomes[j].lifecycle.completed);
  }
}

}  // namespace
}  // namespace manatee::harness
