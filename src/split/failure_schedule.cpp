#include "split/failure_schedule.hpp"

#include <algorithm>
#include <cmath>

namespace manatee::split {

namespace {

/// One exponential inter-arrival draw (ns), clamped to the minimum spacing.
/// Uses -mean*ln(1-U) with U in [0,1); 1-U is never 0, so the draw is
/// finite. Rounded to whole virtual nanoseconds, floor 1 ns so the process
/// always advances.
simnet::SimTime exponential_gap(Rng& rng, double mean_ns,
                                simnet::SimTime min_spacing_ns) {
  const double u = rng.next_double();
  const double gap = -mean_ns * std::log1p(-u);
  auto ns = static_cast<simnet::SimTime>(gap);
  if (ns < 1) ns = 1;
  return std::max(ns, min_spacing_ns);
}

}  // namespace

std::vector<simnet::SimTime> FailureSchedule::poisson_arrivals(
    std::uint64_t n) const {
  std::vector<simnet::SimTime> out;
  if (poisson_mean_ns <= 0) return out;
  n = std::min(n, poisson_max_arrivals);
  Rng rng(poisson_seed);
  simnet::SimTime t = 0;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    t += exponential_gap(rng, poisson_mean_ns, poisson_min_spacing_ns);
    out.push_back(t);
  }
  return out;
}

ScheduleCursor::ScheduleCursor(const FailureSchedule& schedule)
    : schedule_(schedule),
      collective_thresholds_(schedule.at_collectives),
      time_thresholds_(schedule.at_times),
      poisson_rng_(schedule.poisson_seed),
      poisson_resume_state_(schedule.poisson_seed) {
  std::sort(collective_thresholds_.begin(), collective_thresholds_.end());
  std::sort(time_thresholds_.begin(), time_thresholds_.end());
}

void ScheduleCursor::arm_poisson(simnet::SimTime now) {
  poisson_resume_state_ = poisson_rng_.state();
  if (poisson_consumed_ >= schedule_.poisson_max_arrivals) {
    poisson_next_ = -1;
    return;
  }
  poisson_next_ = now + exponential_gap(poisson_rng_, schedule_.poisson_mean_ns,
                                        schedule_.poisson_min_spacing_ns);
}

bool ScheduleCursor::should_fire(std::uint64_t collective_calls,
                                 simnet::SimTime now) {
  bool fire = false;
  while (collective_idx_ < collective_thresholds_.size() &&
         collective_thresholds_[collective_idx_] <= collective_calls) {
    ++collective_idx_;
    fire = true;
  }
  while (time_idx_ < time_thresholds_.size() &&
         time_thresholds_[time_idx_] <= now) {
    ++time_idx_;
    fire = true;
  }
  if (schedule_.poisson_mean_ns > 0) {
    if (!poisson_armed_) {
      // First observation (a fresh run's first wrapper boundary, or the
      // first boundary past replay): the memoryless clock starts here.
      poisson_armed_ = true;
      arm_poisson(now);
    }
    if (poisson_next_ >= 0 && poisson_next_ <= now) {
      ++poisson_consumed_;
      arm_poisson(now);
      fire = true;
    }
  }
  if (fire) ++fired_;
  return fire;
}

}  // namespace manatee::split
