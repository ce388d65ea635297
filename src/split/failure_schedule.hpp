// failure_schedule.hpp — declarative checkpoint/failure injection.
//
// A FailureSchedule describes *when* checkpoint requests are injected into
// a job, from three composable, fully deterministic sources:
//
//   * collective-count triggers — fire when the trigger rank's executed
//     (post-replay) wrapper-level collective-call count reaches a value;
//   * fixed virtual-time points — fire at the trigger rank's first wrapper
//     boundary at or past a requested virtual time;
//   * Poisson arrivals — a seeded exponential inter-arrival process over
//     virtual time (the classic MTBF model), with a minimum spacing so two
//     failures cannot land inside one drain window.
//
// All times are *segment-local* virtual time: a restarted allocation starts
// a fresh clock, exactly like a real MTBF clock restarting with the new
// allocation. The Lifecycle driver (lifecycle.hpp) chains schedules across
// crash/restart segments, carrying the Poisson stream state forward.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "simnet/time.hpp"

namespace manatee::split {

struct FailureSchedule {
  /// Rank whose wrapper-level progress drives every trigger source.
  int trigger_rank = 0;

  /// Fire when trigger_rank's executed collective-call count reaches each
  /// value (sorted internally; each value fires at most once per run).
  std::vector<std::uint64_t> at_collectives;

  /// Fire at the first wrapper boundary at or past each virtual time (ns,
  /// absolute on the segment's clock).
  std::vector<simnet::SimTime> at_times;

  /// Poisson process over virtual time: mean inter-arrival in ns; 0
  /// disables the source. The process is memoryless and *anchored to
  /// observed execution*: each exponential gap is measured from the point
  /// the previous arrival fired (or from the first post-replay wrapper
  /// boundary), so a restarted segment always makes forward progress
  /// before its next failure.
  double poisson_mean_ns = 0;
  std::uint64_t poisson_seed = 0x5eedf00dULL;
  /// Minimum gap enforced between consecutive Poisson arrivals (ns).
  simnet::SimTime poisson_min_spacing_ns = 0;
  /// Cap on Poisson arrivals per run (fixed/count triggers not counted).
  std::uint64_t poisson_max_arrivals = UINT64_MAX;

  [[nodiscard]] bool empty() const noexcept {
    return at_collectives.empty() && at_times.empty() && poisson_mean_ns <= 0;
  }

  /// Materialize the first `n` Poisson arrival times (absolute virtual
  /// times, ns) for this seed/mean/spacing, assuming observation starts at
  /// time 0 and every arrival is observed the moment it is due — the exact
  /// gap stream ScheduleCursor consumes. Deterministic; used by tests and
  /// by tooling that wants to print the planned failure storm.
  [[nodiscard]] std::vector<simnet::SimTime> poisson_arrivals(std::uint64_t n) const;
};

/// Runtime cursor over one run's schedule. Consumed exclusively on the
/// trigger rank's thread (wrapper boundaries), so it needs no locking.
/// Every trigger fires at most once; thresholds skipped while a checkpoint
/// cycle was already in flight are collapsed into the single fire that
/// observes them (a machine cannot fail twice inside one drain).
class ScheduleCursor {
 public:
  ScheduleCursor() = default;
  explicit ScheduleCursor(const FailureSchedule& schedule);

  /// Called at a wrapper boundary on the trigger rank with its current
  /// executed-collective count and virtual clock. True = request a
  /// checkpoint now. Advances past *all* thresholds ≤ the observed state.
  bool should_fire(std::uint64_t collective_calls, simnet::SimTime now);

  /// Per-source fired/consumed counts, for chaining (Lifecycle) and tests.
  [[nodiscard]] std::uint64_t collective_triggers_consumed() const noexcept {
    return collective_idx_;
  }
  [[nodiscard]] std::uint64_t time_triggers_consumed() const noexcept {
    return time_idx_;
  }
  [[nodiscard]] std::uint64_t poisson_arrivals_consumed() const noexcept {
    return poisson_consumed_;
  }
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }
  /// Poisson generator state to chain the next segment from: the state
  /// before the pending (drawn but unfired) gap, so the next segment draws
  /// that gap again and the chain follows poisson_arrivals()' stream.
  [[nodiscard]] std::uint64_t poisson_rng_state() const noexcept {
    return poisson_resume_state_;
  }

 private:
  /// Anchor the next arrival `gap` nanoseconds past the current
  /// observation point (-1 when the budget is exhausted).
  void arm_poisson(simnet::SimTime now);

  FailureSchedule schedule_{};
  std::vector<std::uint64_t> collective_thresholds_;  // sorted
  std::vector<simnet::SimTime> time_thresholds_;      // sorted
  std::size_t collective_idx_ = 0;
  std::size_t time_idx_ = 0;
  Rng poisson_rng_{0};
  std::uint64_t poisson_resume_state_ = 0;  ///< see poisson_rng_state()
  bool poisson_armed_ = false;
  simnet::SimTime poisson_next_ = -1;  // -1 = source exhausted/disabled
  std::uint64_t poisson_consumed_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace manatee::split
