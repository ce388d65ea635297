#include "core/two_phase_commit.hpp"

#include "common/error.hpp"
#include "sched/scheduler.hpp"
#include "umpi/runtime.hpp"
#include "common/log.hpp"

namespace manatee::core {

void TpcManager::pre_collective(const umpi::CommPtr& comm) {
  const Ggid ggid = ggid_of(comm);
  const std::uint64_t instance = instance_counts_[ggid]++;
  current_ggid_ = ggid;
  current_instance_ = instance;
  in_barrier_ = true;
  coordinator_.tpc_enter(rank_.world_rank(), ggid, instance, comm->size());

  // The inserted barrier: a real MPI_Ibarrier on the application's own
  // communicator, driven by an MPI_Test loop, with a fixed algorithm
  // (Rank::ibarrier_software). A cut taken while only some members have
  // entered abandons the barrier; it is re-executed at restart.
  auto barrier = rank_.ibarrier_software(comm);
  bool parked = false;
  while (!rank_.test(barrier)) {
    const auto token = rank_.store().token();
    const auto phase = coordinator_.phase();
    if (phase == ckpt::CkptPhase::kWrite) {
      perform_write_cycle();
      parked = false;
      continue;
    }
    if (phase == ckpt::CkptPhase::kDrain) {
      note_request_observed();
      if (trace_ != nullptr && !parked) {
        trace_->record_request_seen(coordinator_.completed_cycles() + 1);
      }
      coordinator_.report_tpc(rank_.world_rank(), true);
      parked = true;
    }
    if (rank_.test(barrier)) break;
    if (rank_.runtime().stop_requested()) throw JobStopping{};
    if (rank_.runtime().aborted()) {
      throw RuntimeFault("peer rank failed during 2PC barrier");
    }
    rank_.store().wait_changed(token);
  }
  // Barrier complete: about to execute the real collective (unsafe region;
  // tpc_execute also clears the parked flag at the coordinator).
  coordinator_.tpc_execute(rank_.world_rank(), ggid, instance);
  in_barrier_ = false;

  const std::uint64_t seq = instance + 1;
  if (trace_ != nullptr) {
    trace_->record_collective(ggid, seq, comm->group.members());
  }
}

void TpcManager::post_collective(const umpi::CommPtr& comm) {
  (void)comm;
  coordinator_.tpc_done(rank_.world_rank(), current_ggid_, current_instance_);
  if (coordinator_.phase() != ckpt::CkptPhase::kIdle) park_until_idle();
}

void TpcManager::pre_nbc(const umpi::CommPtr& comm) {
  (void)comm;
  throw CheckpointError(
      "2PC does not support non-blocking collective communication (use the "
      "CC algorithm, paper §4.3)");
}

void TpcManager::park_until_idle() {
  while (true) {
    const auto phase = coordinator_.phase();
    if (phase == ckpt::CkptPhase::kIdle) return;
    if (phase == ckpt::CkptPhase::kWrite) {
      perform_write_cycle();
      continue;
    }
    const auto token = rank_.store().token();
    note_request_observed();
    coordinator_.report_tpc(rank_.world_rank(), true);
    if (coordinator_.phase() != ckpt::CkptPhase::kDrain) continue;
    if (rank_.runtime().aborted()) {
      throw RuntimeFault("peer rank failed during 2PC drain");
    }
    rank_.store().wait_changed(token);
  }
}

void TpcManager::blocked_step(const std::function<bool()>& done,
                              const ParkHooks* hooks, int blocked_src_world) {
  (void)done;
  (void)blocked_src_world;  // 2PC parks anywhere outside MPI; no cascade
  const auto phase = coordinator_.phase();
  if (phase == ckpt::CkptPhase::kIdle) {
    if (blocked_parked_) {
      blocked_parked_ = false;
      if (hooks != nullptr && hooks->resume) hooks->resume();
    }
    return;
  }
  if (phase == ckpt::CkptPhase::kWrite) {
    perform_write_cycle();
    if (blocked_parked_) {
      blocked_parked_ = false;
      if (hooks != nullptr && hooks->resume) hooks->resume();
    }
    return;
  }
  // kDrain: any point outside MPI is safe for 2PC.
  note_request_observed();
  if (!blocked_parked_) {
    if (hooks != nullptr && hooks->suspend && !hooks->suspend()) return;
    blocked_parked_ = true;
  }
  coordinator_.report_tpc(rank_.world_rank(), true);
}

void TpcManager::blocked_finish(const ParkHooks* hooks) {
  (void)hooks;
  // Same unpark transaction as the CC manager: once the safe state is
  // declared, a parked rank whose wait completed concurrently must write
  // from the frozen state rather than resume past the cut.
  while (blocked_parked_) {
    if (coordinator_.phase() == ckpt::CkptPhase::kWrite) {
      perform_write_cycle();
      blocked_parked_ = false;
      break;
    }
    if (coordinator_.try_unpark(rank_.world_rank())) {
      blocked_parked_ = false;
      break;
    }
    // Poll loop with no blocking wait: yield so the peers this unpark
    // depends on can run under a cooperative fiber backend.
    sched::yield();
  }
}

void TpcManager::poll() {
  if (coordinator_.phase() != ckpt::CkptPhase::kIdle) park_until_idle();
}

void TpcManager::at_finalize() {
  coordinator_.report_done(rank_.world_rank());
  // Stay until the whole job is done AND no checkpoint cycle is pending —
  // a request that lands as ranks finish must still complete.
  while (!coordinator_.all_done() ||
         coordinator_.phase() != ckpt::CkptPhase::kIdle) {
    // Token before phase (see CcManager::at_finalize).
    const auto token = rank_.store().token();
    const auto phase = coordinator_.phase();
    if (phase == ckpt::CkptPhase::kWrite) {
      perform_write_cycle();
      continue;
    }
    if (phase == ckpt::CkptPhase::kDrain) {
      coordinator_.report_tpc(rank_.world_rank(), true);
    }
    if (coordinator_.all_done() && coordinator_.phase() == ckpt::CkptPhase::kIdle) {
      return;
    }
    if (rank_.runtime().aborted()) return;
    rank_.store().wait_changed(token);
  }
}

void TpcManager::serialize(BinaryWriter& w) const {
  // A barrier loop abandoned by the checkpoint is re-executed at restart,
  // so the in-flight instance is not counted as started.
  auto counts = instance_counts_;
  if (in_barrier_) {
    auto it = counts.find(current_ggid_);
    MANATEE_CHECK(it != counts.end() && it->second > 0,
                  "2PC serialize: missing in-flight instance count");
    --it->second;
  }
  w.write_u64_map(counts);
}

void TpcManager::restore(BinaryReader& r) {
  instance_counts_ = r.read_u64_map();
}

}  // namespace manatee::core
