// Unit tests for the failure-schedule subsystem: deterministic Poisson
// arrival streams, minimum-spacing enforcement, cursor fire semantics, and
// fixed virtual-time triggers actually firing at the requested times inside
// an engine run.
#include <gtest/gtest.h>

#include "core/protocol_base.hpp"
#include "harness/apps.hpp"
#include "harness/scenario.hpp"
#include "split/failure_schedule.hpp"

namespace manatee::split {
namespace {

TEST(FailureSchedule, PoissonArrivalsDeterministicPerSeed) {
  FailureSchedule schedule;
  schedule.poisson_mean_ns = 50'000;
  schedule.poisson_seed = 42;

  const auto a = schedule.poisson_arrivals(64);
  const auto b = schedule.poisson_arrivals(64);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a, b) << "same seed must produce the identical arrival stream";

  schedule.poisson_seed = 43;
  const auto c = schedule.poisson_arrivals(64);
  EXPECT_NE(a, c) << "different seeds must produce different streams";
}

TEST(FailureSchedule, PoissonArrivalsStrictlyIncreasingAndMeanSane) {
  FailureSchedule schedule;
  schedule.poisson_mean_ns = 100'000;
  schedule.poisson_seed = 7;

  const auto arrivals = schedule.poisson_arrivals(512);
  ASSERT_EQ(arrivals.size(), 512u);
  simnet::SimTime prev = 0;
  for (const auto t : arrivals) {
    EXPECT_GT(t, prev);
    prev = t;
  }
  // Law of large numbers, loosely: the empirical mean gap is within 20% of
  // the configured mean over 512 draws.
  const double mean_gap =
      static_cast<double>(arrivals.back()) / static_cast<double>(arrivals.size());
  EXPECT_GT(mean_gap, 0.8 * schedule.poisson_mean_ns);
  EXPECT_LT(mean_gap, 1.2 * schedule.poisson_mean_ns);
}

TEST(FailureSchedule, PoissonRespectsMinSpacing) {
  FailureSchedule schedule;
  schedule.poisson_mean_ns = 10'000;  // dense process...
  schedule.poisson_min_spacing_ns = 25'000;  // ...forced apart
  schedule.poisson_seed = 99;

  const auto arrivals = schedule.poisson_arrivals(256);
  simnet::SimTime prev = 0;
  for (const auto t : arrivals) {
    EXPECT_GE(t - prev, schedule.poisson_min_spacing_ns);
    prev = t;
  }
}

TEST(FailureSchedule, PoissonMaxArrivalsCapsTheStream) {
  FailureSchedule schedule;
  schedule.poisson_mean_ns = 1'000;
  schedule.poisson_max_arrivals = 5;
  EXPECT_EQ(schedule.poisson_arrivals(100).size(), 5u);
}

TEST(ScheduleCursor, CollectiveThresholdsFireOnceOnCrossing) {
  FailureSchedule schedule;
  schedule.at_collectives = {5, 9};  // unsorted entry order is fine too
  ScheduleCursor cursor(schedule);

  EXPECT_FALSE(cursor.should_fire(4, 0));
  EXPECT_TRUE(cursor.should_fire(5, 0));
  EXPECT_FALSE(cursor.should_fire(5, 0)) << "each threshold fires at most once";
  EXPECT_FALSE(cursor.should_fire(8, 0));
  EXPECT_TRUE(cursor.should_fire(9, 0));
  EXPECT_FALSE(cursor.should_fire(100, 0)) << "no thresholds left";
  EXPECT_EQ(cursor.fired(), 2u);
  EXPECT_EQ(cursor.collective_triggers_consumed(), 2u);
}

TEST(ScheduleCursor, SkippedThresholdsCollapseIntoOneFire) {
  FailureSchedule schedule;
  schedule.at_collectives = {2, 3, 4};
  ScheduleCursor cursor(schedule);

  // The observer jumped straight past all three (e.g. a cycle was in
  // flight): one fire, all consumed — a machine cannot fail twice inside
  // one drain window.
  EXPECT_TRUE(cursor.should_fire(10, 0));
  EXPECT_EQ(cursor.fired(), 1u);
  EXPECT_EQ(cursor.collective_triggers_consumed(), 3u);
  EXPECT_FALSE(cursor.should_fire(11, 0));
}

TEST(ScheduleCursor, TimeThresholdsFireAtFirstObservationPastThem) {
  FailureSchedule schedule;
  schedule.at_times = {1'000, 5'000};
  ScheduleCursor cursor(schedule);

  EXPECT_FALSE(cursor.should_fire(0, 999));
  EXPECT_TRUE(cursor.should_fire(0, 1'000));
  EXPECT_FALSE(cursor.should_fire(0, 4'999));
  EXPECT_TRUE(cursor.should_fire(0, 6'000));
  EXPECT_EQ(cursor.time_triggers_consumed(), 2u);
}

TEST(ScheduleCursor, PoissonStreamMatchesMaterializedArrivals) {
  // When observation starts at 0 and every arrival is observed the moment
  // it is due, the cursor fires exactly at the materialized arrival times.
  FailureSchedule schedule;
  schedule.poisson_mean_ns = 40'000;
  schedule.poisson_seed = 1234;
  const auto arrivals = schedule.poisson_arrivals(3);
  ASSERT_EQ(arrivals.size(), 3u);

  ScheduleCursor cursor(schedule);
  EXPECT_FALSE(cursor.should_fire(0, 0));  // arms the memoryless clock at 0
  EXPECT_FALSE(cursor.should_fire(0, arrivals[0] - 1));
  EXPECT_TRUE(cursor.should_fire(0, arrivals[0]));
  EXPECT_EQ(cursor.poisson_arrivals_consumed(), 1u);
  EXPECT_FALSE(cursor.should_fire(0, arrivals[1] - 1));
  EXPECT_TRUE(cursor.should_fire(0, arrivals[1]));
  EXPECT_TRUE(cursor.should_fire(0, arrivals[2]));
  EXPECT_EQ(cursor.poisson_arrivals_consumed(), 3u);
  EXPECT_EQ(cursor.fired(), 3u);
}

TEST(ScheduleCursor, PoissonReanchorsAfterAnObservationGap) {
  // The process is anchored to observed execution: a late observation
  // fires exactly one arrival, and the next gap is measured from that
  // observation — arrivals never pile up behind a stalled (or replaying)
  // rank, so a restarted segment always makes progress before its next
  // failure.
  FailureSchedule schedule;
  schedule.poisson_mean_ns = 10'000;
  schedule.poisson_seed = 5;
  schedule.poisson_max_arrivals = 4;

  ScheduleCursor cursor(schedule);
  EXPECT_FALSE(cursor.should_fire(0, 0));
  const simnet::SimTime late = 50'000'000;  // far past many mean intervals
  EXPECT_TRUE(cursor.should_fire(0, late));
  EXPECT_EQ(cursor.poisson_arrivals_consumed(), 1u);
  EXPECT_FALSE(cursor.should_fire(0, late))
      << "the next arrival must lie strictly beyond the last observation";
  EXPECT_TRUE(cursor.should_fire(0, 2 * late));
  EXPECT_EQ(cursor.poisson_arrivals_consumed(), 2u);
}

TEST(ScheduleCursor, ChainedSegmentResumesAtTheUnfiredGap) {
  // A cursor draws its next gap as soon as an arrival fires. Chaining the
  // next segment the way Lifecycle::advance_schedule does must hand it the
  // generator state from before that unfired draw: the new segment then
  // redraws the same gap, and the chain follows poisson_arrivals() instead
  // of skipping every other gap.
  FailureSchedule schedule;
  schedule.poisson_mean_ns = 40'000;
  schedule.poisson_seed = 1234;
  schedule.poisson_max_arrivals = 5;
  const auto arrivals = schedule.poisson_arrivals(2);
  ASSERT_EQ(arrivals.size(), 2u);

  ScheduleCursor first(schedule);
  EXPECT_FALSE(first.should_fire(0, 0));
  EXPECT_TRUE(first.should_fire(0, arrivals[0]));

  FailureSchedule next = schedule;
  next.poisson_seed = first.poisson_rng_state();
  next.poisson_max_arrivals -= first.poisson_arrivals_consumed();
  ScheduleCursor second(next);
  const simnet::SimTime armed = 3'000;  // the restart's first boundary
  const simnet::SimTime gap = arrivals[1] - arrivals[0];
  EXPECT_FALSE(second.should_fire(0, armed));
  EXPECT_FALSE(second.should_fire(0, armed + gap - 1));
  EXPECT_TRUE(second.should_fire(0, armed + gap));
}

TEST(ScheduleCursor, EmptyScheduleNeverFires) {
  ScheduleCursor cursor{FailureSchedule{}};
  EXPECT_FALSE(cursor.should_fire(1'000'000, 1'000'000'000));
  EXPECT_EQ(cursor.fired(), 0u);
}

TEST(FailureSchedule, FixedTimeTriggerFiresAtRequestedVirtualTime) {
  // Engine-level: a fixed virtual-time point requests the checkpoint at
  // the trigger rank's first wrapper boundary at or past that time.
  const int world = 4;
  const simnet::SimTime at = 60'000;  // inside the MixedApp run

  harness::MixedApp app;
  app.iterations = 10;

  auto config = harness::make_engine_config(Protocol::kCC, world,
                                            harness::fresh_dir("fs_fixed"));
  config.failures.at_times = {at};
  Engine engine(config);
  const auto report = engine.run([&](Api& api) {
    harness::MixedApp instance = app;
    instance(api);
  });
  ASSERT_EQ(report.checkpoints, 1u);

  // The trigger rank observed the request at a clock >= the requested time
  // (and within the job's makespan).
  const auto* base = dynamic_cast<const core::ProtocolManagerBase*>(
      engine.rank_ctx(config.failures.trigger_rank).manager.get());
  ASSERT_NE(base, nullptr);
  ASSERT_EQ(base->request_clocks().size(), 1u);
  EXPECT_GE(base->request_clocks()[0], at);
  EXPECT_LE(base->request_clocks()[0], report.makespan);
}

TEST(FailureSchedule, TimeTriggerDeterministicAcrossRuns) {
  // The same schedule against the same app must checkpoint at the same
  // virtual request time on every run (schedule-independent virtual time).
  auto run_once = [] {
    auto config = harness::make_engine_config(Protocol::kCC, 4,
                                              harness::fresh_dir("fs_det"));
    config.failures.at_times = {80'000};
    Engine engine(config);
    engine.run([&](Api& api) {
      harness::MixedApp instance;
      instance.iterations = 10;
      instance(api);
    });
    const auto* base = dynamic_cast<const core::ProtocolManagerBase*>(
        engine.rank_ctx(0).manager.get());
    return base->request_clocks().at(0);
  };
  const auto first = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

}  // namespace
}  // namespace manatee::split
