#include "core/cc_algorithm.hpp"

#include "common/error.hpp"
#include "sched/scheduler.hpp"
#include "umpi/runtime.hpp"
#include "common/log.hpp"

namespace manatee::core {

namespace {

/// Wire format of one target update (Algorithm 2's SEND).
struct TargetUpdate {
  std::uint64_t ggid = 0;
  std::uint64_t value = 0;
};
static_assert(sizeof(TargetUpdate) == 16);

}  // namespace

void CcManager::note_comm(const umpi::CommPtr& comm) {
  common::MutexLock lock(seq_mutex_);
  clocks_.note_group(ggid_of(comm));
}

void CcManager::ensure_request_seen() {
  if (coordinator_.phase() != ckpt::CkptPhase::kDrain) return;
  const std::uint64_t cycle = coordinator_.completed_cycles() + 1;
  if (posted_cycle_ >= cycle) return;
  posted_cycle_ = cycle;
  note_request_observed();
  if (trace_ != nullptr) {
    trace_->record_request_seen(cycle, rank_.clock().now());
  }
  {
    common::MutexLock lock(seq_mutex_);
    coordinator_.post_seq(rank_.world_rank(), clocks_.seq_map());
  }
}

void CcManager::refresh_targets() {
  // Target merges take seq_mutex_: the requesting thread snapshots the
  // table concurrently (post_initial_state / serialize), and an unlocked
  // merge raced those reads. Drain-path only, so the lock is uncontended
  // in steady state.
  // Coordinator table (Algorithm 1's asynchronous max-merge).
  SeqMap table;
  if (coordinator_.pull_targets(seen_version_, table)) {
    SeqMap changed;
    {
      common::MutexLock lock(seq_mutex_);
      clocks_.merge_targets(table, trace_ != nullptr ? &changed : nullptr);
    }
    if (trace_ != nullptr) {
      for (const auto& [g, t] : changed) {
        trace_->record_target_learned(g, t, rank_.clock().now());
      }
    }
  }
  // Peer updates (Algorithm 3's Iprobe/Recv of mana_updates_tag).
  TargetUpdate update;
  auto bytes = std::as_writable_bytes(std::span(&update, 1));
  while (rank_
             .ckpt_try_recv(rank_.world(), bytes, umpi::kAnySource, kTagTargetUpdate)
             .has_value()) {
    ++received_;
    bool merged = false;
    {
      common::MutexLock lock(seq_mutex_);
      merged = clocks_.merge_target(update.ggid, update.value);
    }
    if (merged && trace_ != nullptr) {
      trace_->record_target_learned(update.ggid, update.value,
                                    rank_.clock().now());
    }
  }
}

bool CcManager::targets_met_now() const {
  common::MutexLock lock(seq_mutex_);
  return clocks_.targets_met();
}

void CcManager::report(bool parked, const char* site) {
  if (trace_ != nullptr && parked != reported_parked_) {
    if (parked) {
      trace_->record_parked(site, rank_.clock().now());
    } else {
      trace_->record_unparked(site, rank_.clock().now());
    }
  }
  reported_parked_ = parked;
  ckpt::Coordinator::CcStatus status;
  status.parked = parked;
  status.sent = sent_;
  status.received = received_;
  status.seen_version = seen_version_;
  status.blocked_on = blocked_on_;
  if (entry_comm_ != nullptr) {
    status.has_next = true;
    status.next_ggid = ggid_of(*entry_comm_);
    common::MutexLock lock(seq_mutex_);
    status.next_seq = clocks_.seq(status.next_ggid) + 1;
  }
  coordinator_.report_cc(rank_.world_rank(), status);
}

void CcManager::advance_clock(const umpi::CommPtr& comm) {
  const Ggid ggid = ggid_of(comm);
  std::uint64_t seq = 0;
  {
    common::MutexLock lock(seq_mutex_);
    clocks_.note_group(ggid);
    seq = clocks_.increment(ggid);
  }
  if (trace_ != nullptr) {
    trace_->record_collective(ggid, seq, comm->group.members(),
                              rank_.clock().now());
  }
  if (coordinator_.ckpt_pending()) {
    ensure_request_seen();
    refresh_targets();
    bool raised = false;
    {
      common::MutexLock lock(seq_mutex_);
      raised = clocks_.raise_target_to_seq(ggid);
    }
    if (raised) {
      if (trace_ != nullptr) {
        trace_->record_target_raised(ggid, seq, rank_.clock().now());
      }
      // Algorithm 2, SEND: the new target goes to every other member of the
      // group. The member world ranks are locally known (the paper's
      // MPI_Group_translate_ranks step). Count before injecting so the
      // coordinator can never observe received > sent.
      const auto& members = comm->group.members();
      sent_ += members.size() - 1;
      report(false, "raise");
      const TargetUpdate update{ggid, seq};
      const auto bytes = std::as_bytes(std::span(&update, 1));
      for (int w : members) {
        if (w == rank_.world_rank()) continue;
        const int dst = rank_.world()->group.rank_of_world(w);
        rank_.ckpt_send(rank_.world(), bytes, dst, kTagTargetUpdate);
      }
      LOG_TRACE("cc: raised target ggid=" << ggid << " to " << seq);
    }
  }
}

void CcManager::pre_collective(const umpi::CommPtr& comm) {
  wait_for_new_targets(&comm);
  advance_clock(comm);
}

void CcManager::post_collective(const umpi::CommPtr& comm) {
  (void)comm;
  // Algorithm 2 places Wait_for_new_targets at the wrapper exit as well.
  // Here it only *receives* pending updates; it must not park. Parking at
  // an exit is unsafe for liveness: this rank's next point-to-point send
  // (which precedes its next collective in program order) may be exactly
  // what an unmet-target rank is blocked on. Parking therefore happens only
  // at collective entries, inside suspended blocking waits, and at
  // finalize — all points where no peer can be waiting on this rank's
  // forward progress.
  if (coordinator_.phase() != ckpt::CkptPhase::kDrain) return;
  ensure_request_seen();
  refresh_targets();
  report(false, "exit");
}

void CcManager::pre_nbc(const umpi::CommPtr& comm) {
  // §4.3.1: SEQ increments at initiation; the wrapper parks at entry like a
  // blocking collective, but there is no completion-side park (completion
  // is observed through Test/Wait).
  wait_for_new_targets(&comm);
  advance_clock(comm);
}

void CcManager::register_nbc(umpi::Request request) {
  // Opportunistically prune completed entries so the list stays small.
  std::erase_if(pending_nbc_,
                [this](const umpi::Request& r) { return rank_.request_done(r); });
  pending_nbc_.push_back(request);
}

void CcManager::wait_for_new_targets(const umpi::CommPtr* entry_comm) {
  // While parked at a collective entry, expose which node this rank would
  // execute next — the coordinator's p2p cascade may force it into the
  // target set to unblock a peer.
  entry_comm_ = entry_comm;
  while (true) {
    const auto phase = coordinator_.phase();
    if (phase == ckpt::CkptPhase::kIdle) {
      entry_comm_ = nullptr;
      return;
    }
    if (phase == ckpt::CkptPhase::kWrite) {
      perform_write_cycle();
      continue;
    }
    // kDrain
    const auto token = rank_.store().token();
    ensure_request_seen();
    refresh_targets();
    if (!targets_met_now()) {
      // Condition A': some group still below target — keep executing.
      entry_comm_ = nullptr;
      report(false, "entry");
      return;
    }
    rank_.progress_outstanding();  // parked ranks must progress their NBCs
    report(true, "entry");
    if (coordinator_.phase() != ckpt::CkptPhase::kDrain) continue;
    if (rank_.runtime().aborted()) {
      throw RuntimeFault("peer rank failed during drain");
    }
    rank_.store().wait_changed(token);
  }
}

void CcManager::blocked_step(const std::function<bool()>& done,
                             const ParkHooks* hooks, int blocked_src_world) {
  blocked_on_ = blocked_src_world;
  const auto phase = coordinator_.phase();
  if (phase == ckpt::CkptPhase::kIdle) {
    blocked_on_ = ckpt::Coordinator::kNotBlocked;
    if (blocked_parked_) {
      blocked_parked_ = false;
      if (hooks != nullptr && hooks->resume) hooks->resume();
    }
    return;
  }
  if (phase == ckpt::CkptPhase::kWrite) {
    // Only reachable parked (kWrite needs every rank parked, us included).
    perform_write_cycle();
    if (blocked_parked_) {
      blocked_parked_ = false;
      if (hooks != nullptr && hooks->resume) hooks->resume();
    }
    return;
  }
  // kDrain.
  ensure_request_seen();
  refresh_targets();
  if (!targets_met_now()) {
    // Condition A': this rank still owes collective work; it stays an
    // *executing* (unparked) rank even while blocked here — the message it
    // waits for comes from a peer that sends before parking.
    if (blocked_parked_) {
      blocked_parked_ = false;
      if (hooks != nullptr && hooks->resume) hooks->resume();
    }
    report(false, "blocked");
    return;
  }
  if (!blocked_parked_) {
    // Never park on an operation that has already completed — the caller
    // must consume it and keep running to its next collective entry.
    if (done && done()) return;
    // Detach the in-progress operation (cancel a posted blocking receive)
    // so a message arriving during the write window lands in the saved
    // unexpected queue; passive waits (posted irecv / NBC) stay armed and
    // are captured through the request table.
    if (hooks != nullptr && hooks->suspend && !hooks->suspend()) return;
    blocked_parked_ = true;
  }
  report(true, "blocked");
}

void CcManager::blocked_finish(const ParkHooks* hooks) {
  (void)hooks;
  // The wait completed: this rank is no longer blocked on anyone. Clear
  // the coordinator's record too — a stale blocked_on could otherwise
  // certify a p2p stall against a rank that is actually free-running,
  // forcing a gratuitous target.
  blocked_on_ = ckpt::Coordinator::kNotBlocked;
  if (!blocked_parked_ && coordinator_.phase() == ckpt::CkptPhase::kDrain) {
    report(false, "blocked-finish");
  }
  // The blocked operation completed while parked (its message was sent by
  // a peer that had not yet parked). Resuming is only legal while the
  // drain is still in progress; once the safe state is declared we must
  // write from this exact frozen state — the completed-but-unconsumed
  // operation is captured in the request table and restored as complete.
  while (blocked_parked_) {
    if (coordinator_.phase() == ckpt::CkptPhase::kWrite) {
      perform_write_cycle();
      blocked_parked_ = false;
      break;
    }
    if (coordinator_.try_unpark(rank_.world_rank())) {
      blocked_parked_ = false;
      report(false, "blocked-finish");
      break;
    }
    // This loop polls coordinator state without a blocking wait; under a
    // cooperative fiber backend the ranks whose progress it depends on
    // only run if we give the worker back.
    sched::yield();
  }
}

void CcManager::poll() {
  // Never parks (a rank parked before a send it still owes would deadlock
  // the drain — see DESIGN.md §5); it only makes sure the drain can start
  // while this rank is in a long compute phase.
  if (coordinator_.ckpt_pending()) ensure_request_seen();
}

void CcManager::at_finalize() {
  coordinator_.report_done(rank_.world_rank());
  // Stay until the whole job is done AND no checkpoint cycle is pending —
  // a request that lands as ranks finish must still complete.
  while (!coordinator_.all_done() ||
         coordinator_.phase() != ckpt::CkptPhase::kIdle) {
    // Token before phase: a drain → write transition that lands between
    // the two reads wakes this rank's store, so the wait below returns
    // instead of sleeping through the write phase.
    const auto token = rank_.store().token();
    const auto phase = coordinator_.phase();
    if (phase == ckpt::CkptPhase::kWrite) {
      perform_write_cycle();
      continue;
    }
    if (phase == ckpt::CkptPhase::kDrain) {
      ensure_request_seen();
      refresh_targets();
      if (!targets_met_now()) {
        throw CheckpointError(
            "finalized rank has unmet collective targets — the application "
            "completed with unbalanced collective calls");
      }
      rank_.progress_outstanding();
      report(true, "finalize");
    }
    if (coordinator_.all_done() && coordinator_.phase() == ckpt::CkptPhase::kIdle) {
      return;
    }
    if (rank_.runtime().aborted()) return;
    rank_.store().wait_changed(token);
  }
}

void CcManager::pre_write() {
  // §4.3.2: every incomplete non-blocking collective was initiated by all
  // members (safe-state invariant), so Test-driving them to completion
  // terminates. Progression rides each operation's own clock; only once
  // everything is done does this rank's clock merge the completion times,
  // so the drain never serializes the operations against each other.
  while (true) {
    const auto token = rank_.store().token();
    rank_.progress_outstanding();
    bool all_done = true;
    for (const auto& request : pending_nbc_) {
      if (!rank_.request_done(request)) all_done = false;
    }
    if (all_done) break;
    rank_.store().wait_changed(token);
  }
  for (const auto& request : pending_nbc_) {
    rank_.merge_request_completion(request);
  }
  pending_nbc_.clear();
}

void CcManager::post_cycle() {
  {
    common::MutexLock lock(seq_mutex_);
    clocks_.clear_targets();
  }
  sent_ = 0;
  received_ = 0;
  seen_version_ = 0;
  reported_parked_ = false;
}

void CcManager::post_initial_state(int world_rank) {
  common::MutexLock lock(seq_mutex_);
  coordinator_.post_seq(world_rank, clocks_.seq_map());
}

void CcManager::serialize(BinaryWriter& w) const {
  common::MutexLock lock(seq_mutex_);
  w.write_u64_map(clocks_.seq_map());
}

void CcManager::restore(BinaryReader& r) {
  common::MutexLock lock(seq_mutex_);
  clocks_.restore_seq(r.read_u64_map());
}

}  // namespace manatee::core
