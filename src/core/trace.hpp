// trace.hpp — per-rank structured event traces of the drain engine.
//
// Two consumers:
//   * the drain-graph oracle (drain_graph.hpp) replays the collective /
//     checkpoint lifecycle events through the directed-graph model of
//     §4.2.2 and verifies the safe-state conditions mechanically;
//   * humans debugging a drain failure: every seq-tracker transition
//     (target raised locally, target learned from the coordinator or a
//     peer) and every park/unpark edge is recorded with its wrapper site
//     and virtual-clock stamp, so a deadlocked or unsafe drain can be
//     reconstructed offline (see DESIGN.md "debugging a drain failure").
//
// The log is single-threaded per rank (each rank appends to its own), and
// recording is O(1) per event when enabled, zero-cost when disabled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ggid.hpp"
#include "simnet/time.hpp"

namespace manatee::core {

enum class TraceEventKind : std::uint8_t {
  kCollectiveExecuted = 0,  ///< blocking collective completed / NBC initiated
  kCkptRequestSeen = 1,     ///< rank first observed the checkpoint request
  kImageWritten = 2,        ///< rank wrote its image (the safe state)
  kTargetRaised = 3,        ///< Algorithm 2 SEND: local SEQ pushed TARGET up
  kTargetLearned = 4,       ///< TARGET grew from coordinator table / peer update
  kParked = 5,              ///< rank reported parked (all targets met)
  kUnparked = 6,            ///< rank resumed executing (some target unmet)
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kCollectiveExecuted;
  Ggid ggid = 0;
  std::uint64_t seq = 0;     ///< SEQ[ggid] after the increment / new TARGET
  std::vector<int> members;  ///< world ranks of the group (collectives)
  std::uint64_t cycle = 0;   ///< checkpoint cycle (ckpt events)
  const char* site = nullptr;       ///< wrapper site (static string) for
                                    ///  park/unpark events
  simnet::SimTime when = 0;  ///< rank virtual clock at the event
};

/// One line per event, for failure dumps.
[[nodiscard]] std::string describe_event(const TraceEvent& event);

/// The last `n` events of a rank's trace, one line each (diagnostics).
[[nodiscard]] std::string describe_tail(const std::vector<TraceEvent>& events,
                                        std::size_t n);

/// Single-threaded per-rank event log (each rank appends to its own).
class TraceLog {
 public:
  /// `members` is copied only when tracing is on: callers pass the group's
  /// own member list on every collective.
  void record_collective(Ggid ggid, std::uint64_t seq,
                         const std::vector<int>& members,
                         simnet::SimTime when = 0) {
    if (!enabled_) return;
    events_.push_back(TraceEvent{TraceEventKind::kCollectiveExecuted, ggid, seq,
                                 members, 0, nullptr, when});
  }

  void record_request_seen(std::uint64_t cycle, simnet::SimTime when = 0) {
    if (!enabled_) return;
    events_.push_back(TraceEvent{TraceEventKind::kCkptRequestSeen, 0, 0, {},
                                 cycle, nullptr, when});
  }

  void record_written(std::uint64_t cycle, simnet::SimTime when = 0) {
    if (!enabled_) return;
    events_.push_back(TraceEvent{TraceEventKind::kImageWritten, 0, 0, {}, cycle,
                                 nullptr, when});
  }

  void record_target_raised(Ggid ggid, std::uint64_t target,
                            simnet::SimTime when = 0) {
    if (!enabled_) return;
    events_.push_back(TraceEvent{TraceEventKind::kTargetRaised, ggid, target, {},
                                 0, nullptr, when});
  }

  void record_target_learned(Ggid ggid, std::uint64_t target,
                             simnet::SimTime when = 0) {
    if (!enabled_) return;
    events_.push_back(TraceEvent{TraceEventKind::kTargetLearned, ggid, target,
                                 {}, 0, nullptr, when});
  }

  /// Park/unpark edges. `site` must be a static string ("entry", "blocked",
  /// "finalize", ...).
  void record_parked(const char* site, simnet::SimTime when = 0) {
    if (!enabled_) return;
    events_.push_back(
        TraceEvent{TraceEventKind::kParked, 0, 0, {}, 0, site, when});
  }

  void record_unparked(const char* site, simnet::SimTime when = 0) {
    if (!enabled_) return;
    events_.push_back(
        TraceEvent{TraceEventKind::kUnparked, 0, 0, {}, 0, site, when});
  }

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace manatee::core
