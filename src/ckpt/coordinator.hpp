// coordinator.hpp — the out-of-band checkpoint coordinator.
//
// Plays the role of the DMTCP coordinator in MANA: it delivers the
// checkpoint request, arbitrates when the distributed drain has terminated,
// and sequences the write/resume phases. The drain protocols themselves
// (CC's topological-sort drain, 2PC's inserted barrier) run rank-side in
// src/core; the coordinator only provides:
//
//   * phase management  (Idle → Drain → Write → Idle, one cycle per ckpt);
//   * CC target tables  (Algorithm 1's asynchronous max-merge, published
//     monotonically with a version counter);
//   * CC termination    (all ranks parked at their targets AND every target
//     update that was sent has been received — count-based distributed
//     termination detection);
//   * 2PC instance safety (an instance whose inserted barrier has been
//     entered by every member must complete before the checkpoint — the
//     "all processes have entered the barrier" rule of §2.2).
//
// All methods are thread-safe; rank threads call them directly (shared
// memory stands in for the DMTCP socket protocol).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "simnet/fabric.hpp"

namespace manatee::ckpt {

enum class CkptPhase : int {
  kIdle = 0,   ///< no checkpoint in progress
  kDrain = 1,  ///< request delivered; ranks draining to a safe state
  kWrite = 2,  ///< safe state reached; ranks writing images
};

class Coordinator {
 public:
  Coordinator(int world_size, simnet::Fabric* fabric);

  // --- request / phase --------------------------------------------------------
  /// Deliver a checkpoint request (idempotent while a cycle is in flight).
  /// Returns true if a new cycle actually started.
  bool request_checkpoint();

  [[nodiscard]] CkptPhase phase() const;
  /// Number of completed checkpoint cycles.
  [[nodiscard]] std::uint64_t completed_cycles() const;
  /// True while a request is pending (kDrain) — the `ckpt_pending` flag of
  /// Algorithms 1-3.
  [[nodiscard]] bool ckpt_pending() const { return phase() == CkptPhase::kDrain; }

  // --- CC: target tables (Algorithm 1, asynchronous) --------------------------
  /// Merge a rank's SEQ table into the global TARGET table (elementwise
  /// max). Wakes all ranks if any target grew.
  void post_seq(int rank, const std::map<std::uint64_t, std::uint64_t>& seq);

  /// Pull the target table if it changed since `seen_version`. Returns true
  /// and updates both arguments on change.
  bool pull_targets(std::uint64_t& seen_version,
                    std::map<std::uint64_t, std::uint64_t>& out) const;

  /// True once every rank has contributed its SEQ table this cycle.
  [[nodiscard]] bool all_seq_posted() const;

  // --- CC: count-based termination detection ----------------------------------
  /// Not blocked on any peer (CcStatus::blocked_on).
  static constexpr int kNotBlocked = -1;
  /// Blocked, but the peer is unknown (wildcard receive, waitany, NBC wait).
  static constexpr int kBlockedUnknown = -2;

  /// One rank's drain status, reported on every drain-protocol step.
  struct CcStatus {
    /// Sitting in Wait_for_new_targets (or a suspended blocking wait) with
    /// every target met.
    bool parked = false;
    /// Cumulative counts of peer target-update messages. Must be reported
    /// monotonically; increment `sent` *before* injecting the message into
    /// the fabric and `received` *after* consuming one, so a balanced
    /// count proves no update is in flight.
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    /// The target-table version this rank last pulled.
    std::uint64_t seen_version = 0;
    /// World rank whose message this rank is blocked waiting for
    /// (kNotBlocked / kBlockedUnknown otherwise). Drives the p2p-aware
    /// target cascade below.
    int blocked_on = kNotBlocked;
    /// When parked at a collective entry: the group and sequence number of
    /// the collective this rank would execute next. The coordinator can
    /// *force* that node into the target set to resolve a p2p stall.
    bool has_next = false;
    std::uint64_t next_ggid = 0;
    std::uint64_t next_seq = 0;
  };

  /// Report a rank's drain status. The drain is complete when every rank
  /// is parked against the *current* table version with balanced counts.
  ///
  /// P2P-aware cascade: the request-time target cut is computed from
  /// collective clocks only, but a rank that owes collectives can be
  /// blocked in a point-to-point receive whose matching send lies *beyond*
  /// a parked peer's frontier (the peer would only send it after its next
  /// collective). When every rank is either parked or blocked on a parked
  /// peer, with balanced counts and a current table (a stall certificate),
  /// the coordinator follows a blocked chain to an entry-parked rank and
  /// raises that rank's next collective into the target table, pushing the
  /// cut forward one node at a time until the p2p dependency is satisfied.
  void report_cc(int rank, const CcStatus& status);

  /// Targets this cycle that were forced by the p2p cascade rather than
  /// derived from request-time clocks (per completed-cycle+1 index). The
  /// minimality oracle treats them as part of the cut definition.
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> forced_targets(
      std::uint64_t cycle) const;
  /// All cycles' forced targets (cycle -> ggid -> target).
  [[nodiscard]] std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>>
  forced_by_cycle() const;

  // --- 2PC: inserted-barrier instance tracking --------------------------------
  /// Rank entered the Ibarrier test loop of collective instance
  /// (ggid, instance) whose group has `members` members.
  void tpc_enter(int rank, std::uint64_t ggid, std::uint64_t instance, int members);
  /// Rank's inserted barrier completed; it is about to execute the real
  /// collective (unsafe region).
  void tpc_execute(int rank, std::uint64_t ggid, std::uint64_t instance);
  /// Rank finished the real collective.
  void tpc_done(int rank, std::uint64_t ggid, std::uint64_t instance);
  /// Park/unpark at a poll site or in the barrier loop.
  void report_tpc(int rank, bool parked);

  /// Atomically revoke a rank's parked state — allowed only while the
  /// drain is still in progress. Returns false when the safe state has
  /// already been declared (phase kWrite): the rank must stay parked,
  /// write its image, and resume only after the cycle completes. This
  /// closes the race between "blocked operation completed" and "safe state
  /// declared" for ranks parked inside passive waits.
  bool try_unpark(int rank);

  // --- write / resume handshake -----------------------------------------------
  /// Rank finished writing its image; when all ranks have, the cycle
  /// completes and the phase returns to kIdle.
  void report_written(int rank);

  // --- job completion ------------------------------------------------------------
  /// Rank's application function returned. Ranks stay responsive (parked,
  /// consuming drain traffic) until the whole job is done so that late
  /// checkpoints still terminate.
  void report_done(int rank);
  [[nodiscard]] bool all_done() const;

  // --- post-run statistics ------------------------------------------------------
  struct CycleStats {
    std::uint64_t cycle = 0;
    std::uint64_t cc_updates_sent = 0;  ///< total peer target-update messages
  };
  [[nodiscard]] std::vector<CycleStats> cycle_stats() const;

  /// Human-readable drain-state dump for deadlock diagnostics.
  [[nodiscard]] std::string debug_dump() const;

 private:
  void wake_all_locked() MANATEE_REQUIRES(mutex_);
  void maybe_enter_write_locked() MANATEE_REQUIRES(mutex_);
  void maybe_force_p2p_cascade_locked() MANATEE_REQUIRES(mutex_);

  struct RankState {
    bool parked = false;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t seen_version = 0;
    bool seq_posted = false;
    bool written = false;
    bool done = false;
    int blocked_on = kNotBlocked;
    bool has_next = false;
    std::uint64_t next_ggid = 0;
    std::uint64_t next_seq = 0;
  };

  struct TpcInstance {
    int members = 0;
    int entered = 0;
    int executing = 0;
    int done = 0;
  };

  /// Lock level 80: wake_all_locked holds it across the stores' interest
  /// mutexes (level 60); never acquired with one already held.
  mutable common::Mutex mutex_;
  int world_size_;
  simnet::Fabric* fabric_;

  CkptPhase phase_ MANATEE_GUARDED_BY(mutex_) = CkptPhase::kIdle;
  std::uint64_t completed_cycles_ MANATEE_GUARDED_BY(mutex_) = 0;

  // CC state (reset each cycle)
  std::map<std::uint64_t, std::uint64_t> targets_ MANATEE_GUARDED_BY(mutex_);
  std::uint64_t targets_version_ MANATEE_GUARDED_BY(mutex_) = 0;
  std::vector<RankState> ranks_ MANATEE_GUARDED_BY(mutex_);
  /// cycle -> targets forced by the p2p cascade (persists across cycles
  /// for the oracle).
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> forced_
      MANATEE_GUARDED_BY(mutex_);

  // 2PC state: instances persist across the run (entered/done counts span
  // the request boundary).
  std::map<std::pair<std::uint64_t, std::uint64_t>, TpcInstance> tpc_instances_
      MANATEE_GUARDED_BY(mutex_);

  std::vector<CycleStats> stats_ MANATEE_GUARDED_BY(mutex_);
};

}  // namespace manatee::ckpt
