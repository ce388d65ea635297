#include "split/api.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "sched/scheduler.hpp"
#include "split/engine.hpp"
#include "umpi/runtime.hpp"

namespace manatee::split {

namespace {

/// Stable-storage time for `bytes`, with the aggregate Lustre bandwidth
/// shared across the whole job (Figure 9's scaling driver).
simnet::SimTime io_time(std::size_t bytes, int world_size, double lustre_gbps) {
  return static_cast<simnet::SimTime>(static_cast<double>(bytes) *
                                      static_cast<double>(world_size) / lustre_gbps);
}

/// Park hooks for waits that are already checkpoint-safe as posted
/// (outstanding irecv / NBC requests survive through the vreq table).
const core::ParkHooks kPassiveHooks{[] { return true; }, [] {}};

}  // namespace

Api::Api(umpi::Rank& rank, EngineRankCtx& ctx, Engine& engine)
    : rank_(rank), ctx_(ctx), engine_(engine), mgr_(*ctx.manager) {
  mgr_.set_write_fn([this] { capture_and_write(); });
  comms_.emplace(kWorldComm.id, rank_.world());
  mgr_.note_comm(rank_.world());
  if (ctx_.restore_image.has_value()) restore_from_image();
}

Api::~Api() = default;

// ---- resolution -------------------------------------------------------------

const umpi::CommPtr& Api::resolve(VComm comm) const {
  const auto it = comms_.find(comm.id);
  MANATEE_REQUIRE(it != comms_.end(), "operation on an invalid communicator handle");
  return it->second;
}

int Api::comm_rank(VComm comm) const { return resolve(comm)->rank; }
int Api::comm_size(VComm comm) const { return resolve(comm)->size(); }

int Api::blocked_src_of(const umpi::CommPtr& comm, int src) const {
  if (src == umpi::kAnySource) return ckpt::Coordinator::kBlockedUnknown;
  return comm->world_of(src);
}

VComm Api::bind_comm(umpi::CommPtr comm) {
  const VComm handle{next_vcomm_++};
  comms_.emplace(handle.id, std::move(comm));
  flush_pending_unexpected();
  return handle;
}

VReq Api::bind_req(VReqState state) {
  const VReq handle{next_vreq_++};
  vreqs_.emplace(handle.id, state);
  return handle;
}

VReq Api::replay_req() {
  const VReq handle{next_vreq_++};
  return handle;
}

// ---- op skeleton --------------------------------------------------------------

bool Api::begin_op() {
  maybe_stop_after_checkpoint();
  const bool skip = ops_seen_ < ops_completed_;
  ++ops_seen_;
  if (!skip && restored_ && ctx_.replay_done_clock == 0) replay_caught_up();
  return skip;
}

void Api::sync_registry_shadow() {
  // Keep the registry's shadow exact at op/wait boundaries: if this turns
  // out to be the app's last mutation, a late checkpoint (caught in
  // at_finalize, app frame gone) captures this state. Native runs never
  // checkpoint, so they skip the copy. The store's delivery lock excludes
  // peers concurrently completing posted receives into registered buffers
  // while the shadow reads them.
  if (engine_.config().protocol == Protocol::kNative) return;
  rank_.store().with_delivery_lock([&] { ctx_.registry.sync_shadow(); });
}

void Api::end_op() {
  ++ops_completed_;
  sync_registry_shadow();
}

void Api::replay_caught_up() {
  ctx_.replay_done_clock = rank_.clock().now();
  LOG_DEBUG("replay caught up at op " << ops_seen_ - 1);
}

void Api::charge_collective_wrapper() {
  const auto& cost = rank_.runtime().cost();
  switch (engine_.config().protocol) {
    case Protocol::kNative: break;
    case Protocol::kCC: rank_.advance_compute(cost.cc_wrapper_cost()); break;
    case Protocol::kTpc: rank_.advance_compute(cost.tpc_wrapper_cost()); break;
  }
}

void Api::charge_nbc_initiation() {
  // The initiation share of the NBC wrapper (the SEQ increment) precedes
  // the lower-half call, so it delays the operation's start.
  const auto& cost = rank_.runtime().cost();
  if (engine_.config().protocol == Protocol::kCC) {
    rank_.advance_compute(cost.cc_nbc_initiation_cost());
  }
}

void Api::charge_nbc_completion() {
  // The completion share (request-tracking teardown) is paid on the
  // Test/Wait that observes completion — charged *after* the rank's clock
  // has merged the operation's completion time, never absorbed by it.
  const auto& cost = rank_.runtime().cost();
  if (engine_.config().protocol == Protocol::kCC) {
    rank_.advance_compute(cost.cc_nbc_completion_cost());
  }
}

void Api::charge_p2p_wrapper() {
  const auto& cost = rank_.runtime().cost();
  switch (engine_.config().protocol) {
    case Protocol::kNative: break;
    case Protocol::kCC: rank_.advance_compute(cost.cc_p2p_wrapper_cost()); break;
    case Protocol::kTpc: rank_.advance_compute(cost.tpc_p2p_wrapper_cost()); break;
  }
}

void Api::maybe_trigger_checkpoint() {
  const auto& config = engine_.config();
  if (config.failures.empty()) return;
  if (rank_.world_rank() != config.failures.trigger_rank) return;
  // Triggers never fire mid-replay: a restarted segment re-arms only after
  // it has caught up to the restored frontier, so the chain always makes
  // forward progress.
  if (replaying()) return;
  // While a cycle is in flight (the trigger rank may execute collectives
  // to reach its drain targets) or the job is about to stop after a
  // completed checkpoint, leave the schedule untouched: pending thresholds
  // belong to the next idle window — or, in a lifecycle, to the next
  // segment.
  const auto& coord = engine_.coordinator();
  if (coord.phase() != ckpt::CkptPhase::kIdle) return;
  if (config.stop_after_checkpoint && coord.completed_cycles() > 0) return;
  if (engine_.schedule_should_fire(collective_calls_, rank_.clock().now())) {
    engine_.request_checkpoint();
  }
}

void Api::maybe_stop_after_checkpoint() {
  if (!engine_.config().stop_after_checkpoint) return;
  if (engine_.coordinator().completed_cycles() > 0 &&
      engine_.coordinator().phase() == ckpt::CkptPhase::kIdle) {
    throw StopAfterCheckpoint{};
  }
}

// ---- state registration ---------------------------------------------------------

void Api::register_state(const std::string& name, std::span<std::byte> data) {
  ctx_.registry.register_segment(name, data);
  if (restored_ && !restored_names_.contains(name)) {
    const std::string key = "app/" + name;
    if (ctx_.restore_image->has(key)) {
      const auto& blob = ctx_.restore_image->blob(key);
      if (blob.size() != data.size()) {
        throw CheckpointError("restored segment '" + name + "' size mismatch");
      }
      if (!blob.empty()) std::memcpy(data.data(), blob.data(), blob.size());
      restored_names_.insert(name);
    }
  }
}

// ---- compute / poll ----------------------------------------------------------------

void Api::compute(simnet::SimTime cost) {
  rank_.advance_compute(cost);
  // Virtual-time failure triggers must be able to land inside long
  // compute/p2p-only phases, not just at collective boundaries.
  maybe_trigger_checkpoint();
  mgr_.poll();
}

void Api::poll() {
  maybe_trigger_checkpoint();
  mgr_.poll();
}

void Api::once(const std::function<void()>& fn, simnet::SimTime cost) {
  if (begin_op()) return;
  // Checkpoint opportunity strictly BEFORE the block runs: a protocol that
  // parks here (2PC may park at any point outside MPI) must capture the
  // state without the block's effects and with the op uncounted, so replay
  // re-runs it — never with effects applied but uncounted.
  mgr_.poll();
  fn();
  if (cost > 0) rank_.advance_compute(cost);
  end_op();
}

bool Api::decide(const std::function<bool()>& fn) {
  if (decision_cursor_ < decisions_.size()) {
    return decisions_[decision_cursor_++] != 0;
  }
  const bool value = fn();
  decisions_.push_back(value ? 1 : 0);
  ++decision_cursor_;
  return value;
}

// ---- blocking loop --------------------------------------------------------------------

void Api::blocking_loop(common::FunctionRef<bool()> done,
                        const core::ParkHooks* hooks, int blocked_src_world,
                        const simnet::RecvResult* recv_hint) {
  const bool passive = mgr_.passive();
  // Real drain managers take `done` as a std::function (their hook API);
  // build it once per loop, not at all for passive (native) managers.
  std::function<bool()> done_fn;
  if (!passive) done_fn = [&done] { return done(); };
  while (true) {
    const auto token = rank_.store().token();
    rank_.progress_outstanding();
    if (!passive) mgr_.blocked_step(done_fn, hooks, blocked_src_world);
    if (done()) break;
    // A job configured to stop after its checkpoint must also unblock
    // ranks parked in waits whose peers have already stopped.
    maybe_stop_after_checkpoint();
    if (rank_.runtime().stop_requested()) throw JobStopping{};
    if (rank_.runtime().aborted()) {
      throw RuntimeFault("peer rank failed during blocking wait");
    }
    if (passive && recv_hint != nullptr && !rank_.has_nbc_requests() &&
        !engine_.config().stop_after_checkpoint) {
      // `done` reduces to this receive completing: sleep until exactly
      // that (stop/abort flips arrive via notify_all_ranks, which wakes
      // every waiter). The loop re-evaluates `done` on wake.
      auto& runtime = rank_.runtime();
      rank_.store().wait_recv(*recv_hint, [&] {
        return runtime.stop_requested() || runtime.aborted();
      });
    } else {
      rank_.store().wait_changed(token);
    }
  }
  if (!passive) mgr_.blocked_finish(hooks);
}

// ---- point-to-point ----------------------------------------------------------------------

void Api::send(VComm comm, std::span<const std::byte> data, int dst, int tag) {
  if (begin_op()) return;
  ++p2p_calls_;
  charge_p2p_wrapper();
  mgr_.poll();
  rank_.send(resolve(comm), data, dst, tag);
  end_op();
}

umpi::Status Api::recv(VComm comm, std::span<std::byte> data, int src, int tag) {
  if (begin_op()) return umpi::Status{};
  ++p2p_calls_;
  charge_p2p_wrapper();
  const auto& c = resolve(comm);
  const simnet::MatchPattern pattern{c->context(umpi::Channel::kUser), src, tag};
  auto& store = rank_.store();

  simnet::RecvResult result;
  bool posted = true;
  store.post_recv(pattern, data.data(), data.size(), &result);

  // Park hooks: a checkpoint taken while we are blocked here must find the
  // receive *unposted* so that a message arriving during the write window
  // lands in the unexpected queue (which is saved) rather than silently
  // completing an operation the restart will re-execute. Passive (native)
  // managers never park, so skip building the hook closures entirely.
  core::ParkHooks hooks;
  if (!mgr_.passive()) {
    hooks.suspend = [&]() -> bool {
      if (!posted) return true;
      if (store.cancel_recv(&result)) {
        posted = false;
        return true;
      }
      return false;  // matched concurrently: do not park
    };
    hooks.resume = [&] {
      if (!posted) {
        store.post_recv(pattern, data.data(), data.size(), &result);
        posted = true;
      }
    };
  }

  try {
    blocking_loop([&] { return posted && result.is_done(); }, &hooks,
                  blocked_src_of(c, src), &result);
  } catch (...) {
    if (posted) store.cancel_recv(&result);
    throw;
  }

  rank_.clock().merge(result.arrival_ns);
  rank_.clock().advance(rank_.runtime().cost().recv_overhead());
  if (result.truncated) throw UsageError("recv buffer too small (truncation)");
  end_op();
  umpi::Status status;
  status.source = result.src;
  status.tag = result.tag;
  status.count_bytes = result.bytes;
  return status;
}

VReq Api::isend(VComm comm, std::span<const std::byte> data, int dst, int tag) {
  if (begin_op()) return replay_req();  // eager send: nothing to re-post
  ++p2p_calls_;
  charge_p2p_wrapper();
  mgr_.poll();
  VReqState state;
  state.lower = rank_.isend(resolve(comm), data, dst, tag);
  end_op();
  return bind_req(state);
}

VReq Api::irecv(VComm comm, std::span<std::byte> data, int src, int tag) {
  if (begin_op()) {
    // Replay: the image recorded whether this receive was still pending at
    // the checkpoint. Pending ⇒ re-post against the fresh lower half (the
    // buffer is the same registered segment, already restored). Complete or
    // consumed ⇒ the data is already in the restored buffer.
    const VReq handle = replay_req();
    const auto saved = saved_reqs_.find(handle.id);
    VReqState state;
    if (saved != saved_reqs_.end() && saved->second.pending) {
      state.lower = rank_.irecv(resolve(comm), data, src, tag);
      state.is_recv = true;
      state.vcomm = comm.id;
      state.src = src;
      state.tag = tag;
      state.buffer = data.data();
      state.length = data.size();
    } else {
      state.complete = true;
    }
    vreqs_.emplace(handle.id, state);
    return handle;
  }
  ++p2p_calls_;
  charge_p2p_wrapper();
  mgr_.poll();
  VReqState state;
  state.lower = rank_.irecv(resolve(comm), data, src, tag);
  state.is_recv = true;
  state.vcomm = comm.id;
  state.src = src;
  state.tag = tag;
  state.buffer = data.data();
  state.length = data.size();
  end_op();
  return bind_req(state);
}

std::optional<simnet::ProbeInfo> Api::iprobe(VComm comm, int src, int tag) {
  mgr_.poll();
  return rank_.iprobe(resolve(comm), src, tag);
}

umpi::Status Api::sendrecv(VComm comm, std::span<const std::byte> send_data,
                           int dst, int send_tag, std::span<std::byte> recv_data,
                           int src, int recv_tag) {
  send(comm, send_data, dst, send_tag);
  return recv(comm, recv_data, src, recv_tag);
}

// ---- request completion -----------------------------------------------------------------

bool Api::test(VReq& request) {
  if (request.is_null()) return true;
  const auto it = vreqs_.find(request.id);
  if (it == vreqs_.end()) {
    request = kNullReq;
    return true;
  }
  VReqState& state = it->second;
  if (state.complete) {
    vreqs_.erase(it);
    request = kNullReq;
    return true;
  }
  mgr_.poll();
  if (!rank_.request_done(state.lower)) {
    // Busy-polling MPI_Test loops are legal application code: yield so the
    // peer that must complete this request can run under a cooperative
    // scheduler backend (no-op hint under the threads backend).
    sched::yield();
    return false;
  }
  const bool was_nbc = state.is_nbc;
  rank_.test(state.lower);
  if (was_nbc) charge_nbc_completion();  // completion-side interposition
  vreqs_.erase(it);
  request = kNullReq;
  sync_registry_shadow();  // completion may have filled receive buffers
  return true;
}

void Api::wait(VReq& request) {
  if (request.is_null()) return;
  const auto it = vreqs_.find(request.id);
  if (it == vreqs_.end()) {
    request = kNullReq;
    return;
  }
  VReqState& state = it->second;
  if (!state.complete) {
    const int src_world =
        state.is_recv ? blocked_src_of(resolve(VComm{state.vcomm}), state.src)
                      : ckpt::Coordinator::kBlockedUnknown;
    blocking_loop([&] { return rank_.request_done(state.lower); }, &kPassiveHooks,
                  src_world, rank_.recv_result(state.lower));
    const bool was_nbc = state.is_nbc;
    rank_.test(state.lower);
    if (was_nbc) charge_nbc_completion();
  }
  vreqs_.erase(it);
  request = kNullReq;
  sync_registry_shadow();  // completion may have filled receive buffers
}

void Api::waitall(std::span<VReq> requests) {
  for (auto& r : requests) wait(r);
}

int Api::waitany(std::span<VReq> requests) {
  bool any_live = false;
  for (const auto& r : requests) {
    if (!r.is_null()) {
      any_live = true;
      break;
    }
  }
  if (!any_live) return -1;  // MPI_UNDEFINED
  int index = -1;
  blocking_loop(
      [&] {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const VReq& r = requests[i];
          if (r.is_null()) continue;
          const auto it = vreqs_.find(r.id);
          if (it == vreqs_.end() || it->second.complete ||
              rank_.request_done(it->second.lower)) {
            index = static_cast<int>(i);
            return true;
          }
        }
        return false;
      },
      &kPassiveHooks);
  const bool consumed = test(requests[static_cast<std::size_t>(index)]);
  MANATEE_CHECK(consumed, "waitany candidate regressed to incomplete");
  return index;
}

bool Api::testany(std::span<VReq> requests, int* index) {
  MANATEE_REQUIRE(index != nullptr, "testany needs an index out-parameter");
  *index = -1;
  bool any_live = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].is_null()) continue;
    any_live = true;
    if (test(requests[i])) {
      *index = static_cast<int>(i);
      return true;
    }
  }
  return !any_live;  // all null: MPI returns flag=true, MPI_UNDEFINED index
}

// ---- blocking collectives ---------------------------------------------------------------

void Api::run_blocking_collective(const umpi::CommPtr& comm,
                                  const std::function<void()>& execute) {
  ++collective_calls_;
  maybe_trigger_checkpoint();
  charge_collective_wrapper();
  mgr_.pre_collective(comm);
  execute();
  end_op();
  mgr_.post_collective(comm);
}

void Api::barrier(VComm comm) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.barrier(c); });
}

void Api::bcast(VComm comm, std::span<std::byte> data, umpi::Datatype dt,
                int root) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.bcast(c, data, root, dt); });
}

void Api::reduce(VComm comm, std::span<const std::byte> send,
                 std::span<std::byte> recv, umpi::Datatype dt, umpi::ReduceOp op,
                 int root) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.reduce(c, send, recv, dt, op, root); });
}

void Api::allreduce(VComm comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, umpi::Datatype dt,
                    umpi::ReduceOp op) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.allreduce(c, send, recv, dt, op); });
}

void Api::gather(VComm comm, std::span<const std::byte> send,
                 std::span<std::byte> recv, umpi::Datatype dt, int root) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.gather(c, send, recv, root, dt); });
}

void Api::allgather(VComm comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, umpi::Datatype dt) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.allgather(c, send, recv, dt); });
}

void Api::scatter(VComm comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, umpi::Datatype dt, int root) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.scatter(c, send, recv, root, dt); });
}

void Api::alltoall(VComm comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, umpi::Datatype dt) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.alltoall(c, send, recv, dt); });
}

void Api::scan(VComm comm, std::span<const std::byte> send,
               std::span<std::byte> recv, umpi::Datatype dt, umpi::ReduceOp op) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(c, [&] { rank_.scan(c, send, recv, dt, op); });
}

void Api::reduce_scatter(VComm comm, std::span<const std::byte> send,
                         std::span<std::byte> recv, umpi::Datatype dt,
                         umpi::ReduceOp op) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  run_blocking_collective(
      c, [&] { rank_.reduce_scatter_block(c, send, recv, dt, op); });
}

namespace {

/// Element counts/displacements -> byte counts/displacements.
std::vector<std::size_t> to_bytes(std::span<const int> counts,
                                  umpi::Datatype dt) {
  std::vector<std::size_t> out;
  out.reserve(counts.size());
  const auto esize = umpi::datatype_size(dt);
  for (const int c : counts) {
    MANATEE_REQUIRE(c >= 0, "vector collective counts must be non-negative");
    out.push_back(static_cast<std::size_t>(c) * esize);
  }
  return out;
}

}  // namespace

void Api::gatherv(VComm comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, std::span<const int> recv_counts,
                  std::span<const int> recv_displs, umpi::Datatype dt, int root) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  // MPI_Gatherv contract: counts/displacements are only meaningful (and only
  // read) at the root.
  const bool at_root = c->rank == root;
  const auto counts = at_root ? to_bytes(recv_counts, dt)
                              : std::vector<std::size_t>{};
  const auto displs = at_root ? to_bytes(recv_displs, dt)
                              : std::vector<std::size_t>{};
  run_blocking_collective(
      c, [&] { rank_.gatherv(c, send, recv, counts, displs, root); });
}

void Api::allgatherv(VComm comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, std::span<const int> recv_counts,
                     std::span<const int> recv_displs, umpi::Datatype dt) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  const auto counts = to_bytes(recv_counts, dt);
  const auto displs = to_bytes(recv_displs, dt);
  run_blocking_collective(
      c, [&] { rank_.allgatherv(c, send, recv, counts, displs); });
}

void Api::alltoallv(VComm comm, std::span<const std::byte> send,
                    std::span<const int> send_counts,
                    std::span<const int> send_displs, std::span<std::byte> recv,
                    std::span<const int> recv_counts,
                    std::span<const int> recv_displs, umpi::Datatype dt) {
  if (begin_op()) return;
  const auto& c = resolve(comm);
  const auto scounts = to_bytes(send_counts, dt);
  const auto sdispls = to_bytes(send_displs, dt);
  const auto rcounts = to_bytes(recv_counts, dt);
  const auto rdispls = to_bytes(recv_displs, dt);
  run_blocking_collective(c, [&] {
    rank_.alltoallv(c, send, scounts, sdispls, recv, rcounts, rdispls);
  });
}

// ---- non-blocking collectives --------------------------------------------------------------

VReq Api::start_nbc(VComm comm, const std::function<umpi::Request()>& initiate) {
  if (begin_op()) {
    // All non-blocking collectives complete before an image is written
    // (§4.3.2), so a replayed initiation is always already complete.
    const VReq handle = replay_req();
    VReqState state;
    state.complete = true;
    vreqs_.emplace(handle.id, state);
    return handle;
  }
  ++collective_calls_;
  maybe_trigger_checkpoint();
  charge_nbc_initiation();
  const auto& c = resolve(comm);
  mgr_.pre_nbc(c);
  VReqState state;
  state.lower = initiate();
  state.is_nbc = true;
  state.vcomm = comm.id;
  mgr_.register_nbc(state.lower);
  end_op();
  return bind_req(state);
}

VReq Api::ibarrier(VComm comm) {
  return start_nbc(comm, [&] { return rank_.ibarrier(resolve(comm)); });
}

VReq Api::ibcast(VComm comm, std::span<std::byte> data, umpi::Datatype dt,
                 int root) {
  return start_nbc(comm,
                   [&] { return rank_.ibcast(resolve(comm), data, root, dt); });
}

VReq Api::ireduce(VComm comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, umpi::Datatype dt, umpi::ReduceOp op,
                  int root) {
  return start_nbc(
      comm, [&] { return rank_.ireduce(resolve(comm), send, recv, dt, op, root); });
}

VReq Api::igather(VComm comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, umpi::Datatype dt, int root) {
  return start_nbc(
      comm, [&] { return rank_.igather(resolve(comm), send, recv, root, dt); });
}

VReq Api::iscatter(VComm comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, umpi::Datatype dt, int root) {
  return start_nbc(
      comm, [&] { return rank_.iscatter(resolve(comm), send, recv, root, dt); });
}

VReq Api::iscan(VComm comm, std::span<const std::byte> send,
                std::span<std::byte> recv, umpi::Datatype dt, umpi::ReduceOp op) {
  return start_nbc(
      comm, [&] { return rank_.iscan(resolve(comm), send, recv, dt, op); });
}

VReq Api::iallreduce(VComm comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, umpi::Datatype dt,
                     umpi::ReduceOp op) {
  return start_nbc(comm,
                   [&] { return rank_.iallreduce(resolve(comm), send, recv, dt, op); });
}

VReq Api::iallgather(VComm comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, umpi::Datatype dt) {
  return start_nbc(
      comm, [&] { return rank_.iallgather(resolve(comm), send, recv, dt); });
}

VReq Api::ialltoall(VComm comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, umpi::Datatype dt) {
  return start_nbc(
      comm, [&] { return rank_.ialltoall(resolve(comm), send, recv, dt); });
}

// ---- communicator management ------------------------------------------------------------------

VComm Api::comm_dup(VComm comm) {
  const bool replay = begin_op();
  const auto& parent = resolve(comm);
  if (!replay) {
    ++collective_calls_;
    maybe_trigger_checkpoint();
    charge_collective_wrapper();
    mgr_.pre_collective(parent);
  }
  auto lower = rank_.comm_dup(parent);
  if (!replay) end_op();
  mgr_.note_comm(lower);
  const VComm handle = bind_comm(std::move(lower));
  if (!replay) mgr_.post_collective(parent);
  return handle;
}

VComm Api::comm_split(VComm comm, int color, int key) {
  const bool replay = begin_op();
  const auto& parent = resolve(comm);
  if (!replay) {
    ++collective_calls_;
    maybe_trigger_checkpoint();
    charge_collective_wrapper();
    mgr_.pre_collective(parent);
  }
  auto lower = rank_.comm_split(parent, color, key);
  if (!replay) end_op();
  VComm handle = kNullComm;
  if (lower != nullptr) {
    mgr_.note_comm(lower);
    handle = bind_comm(std::move(lower));
  }
  if (!replay) mgr_.post_collective(parent);
  return handle;
}

VComm Api::comm_create(VComm comm, const umpi::Group& group) {
  const bool replay = begin_op();
  const auto& parent = resolve(comm);
  if (!replay) {
    ++collective_calls_;
    maybe_trigger_checkpoint();
    charge_collective_wrapper();
    mgr_.pre_collective(parent);
  }
  auto lower = rank_.comm_create(parent, group);
  if (!replay) end_op();
  VComm handle = kNullComm;
  if (lower != nullptr) {
    mgr_.note_comm(lower);
    handle = bind_comm(std::move(lower));
  }
  if (!replay) mgr_.post_collective(parent);
  return handle;
}

// ---- finalize -------------------------------------------------------------------------------------

void Api::finalize(bool stopped_early) {
  // The app function has returned: every registered span now points into a
  // dead frame. Freeze the registry so a late checkpoint captures the
  // exit-state shadow instead of freed memory.
  ctx_.registry.detach();
  if (stopped_early) {
    // The job is ending mid-application (chained-allocation stop): posted
    // receives reference application stack buffers that are about to go
    // out of scope, and no peer will complete them — withdraw them.
    for (auto& [id, state] : vreqs_) {
      if (!state.complete) rank_.cancel(state.lower);
    }
    vreqs_.clear();
  }
  mgr_.at_finalize();
}

// ---- checkpoint capture ------------------------------------------------------------------------------

void Api::capture_and_write() {
  const auto& config = engine_.config();
  MANATEE_CHECK(!config.image_dir.empty(),
                "checkpoint requested without an image directory");

  ckpt::CkptImage image;
  image.world_size = rank_.world_size();
  image.rank = rank_.world_rank();
  image.cycle = engine_.coordinator().completed_cycles() + 1;

  // Engine metadata.
  {
    BinaryWriter w;
    w.write_u64(ops_completed_);
    w.write_u64(next_vreq_);
    w.write_u64(next_vcomm_);
    image.blobs["engine/meta"] = w.take();
  }

  // Protocol state (SEQ tables / 2PC instance counts).
  {
    BinaryWriter w;
    mgr_.serialize(w);
    image.blobs["engine/protocol"] = w.take();
  }

  // Control-flow decision log (decide()).
  {
    BinaryWriter w;
    w.write_pod_vector(decisions_);
    image.blobs["engine/decisions"] = w.take();
  }

  // Virtual request table.
  {
    BinaryWriter w;
    w.begin_list(vreqs_.size());
    for (const auto& [id, state] : vreqs_) {
      const bool done = state.complete || rank_.request_done(state.lower);
      if (state.is_nbc) {
        MANATEE_CHECK(done, "non-blocking collective not drained before image write");
      }
      if (state.is_recv) {
        // Receive buffers must live in registered segments, or their
        // contents (done) / re-posted landing zone (pending) would not
        // survive the restart.
        if (!ctx_.registry.locate(state.buffer, state.length).has_value()) {
          throw CheckpointError(
              "irecv buffer is not inside any registered state segment");
        }
      }
      w.write_u64(id);
      w.write_u8(done ? 1 : 0);
    }
    image.blobs["engine/vreqs"] = w.take();
  }

  // In-flight user messages (the unexpected queue), translated to virtual
  // communicator ids. Internal collective traffic must be quiescent under
  // CC; under 2PC the inserted barrier's in-flight messages die with the
  // lower half (restart re-executes the barrier).
  {
    auto& store = rank_.store();
    BinaryWriter w;
    std::vector<std::pair<std::uint64_t, simnet::CapturedEnvelope>> saved;
    for (const auto& [vid, comm] : comms_) {
      const auto user_ctx = comm->context(umpi::Channel::kUser);
      for (auto& env : store.snapshot_unexpected(
               [&](const simnet::Envelope& e) { return e.context == user_ctx; })) {
        saved.emplace_back(vid, std::move(env));
      }
      if (config.protocol == Protocol::kCC) {
        const auto coll_ctx = comm->context(umpi::Channel::kColl);
        MANATEE_CHECK(store.count_unexpected([&](const simnet::Envelope& e) {
                        return e.context == coll_ctx;
                      }) == 0,
                      "CC safe state has in-flight collective traffic "
                      "(Invariant 1/2 violated)");
      }
    }
    w.begin_list(saved.size());
    for (const auto& [vid, env] : saved) {
      w.write_u64(vid);
      w.write_i64(env.src);
      w.write_i64(env.tag);
      w.write_bytes(env.payload);
    }
    image.blobs["engine/unexpected"] = w.take();
  }

  // Application segments.
  for (auto& [name, bytes] : ctx_.registry.capture()) {
    image.blobs["app/" + name] = std::move(bytes);
  }

  ctx_.image_bytes_written = image.payload_bytes();

  // Hand off to the write-back pipeline (chunking, dedupe, replication,
  // 2-phase publication all live there — ckpt/writer.hpp).
  auto* writer = engine_.writer();
  MANATEE_CHECK(writer != nullptr, "checkpoint capture without a writer");
  const auto& params = rank_.runtime().cost().params();
  const auto gen = engine_.generation_for_cycle(image.cycle);
  if (const auto result = writer->submit(gen, std::move(image))) {
    // Synchronous write-back: the rank stalls for the stable-storage write
    // of the bytes actually written (delta savings and replica copies both
    // land here).
    rank_.advance_compute(io_time(result->written_bytes, rank_.world_size(),
                                  params.lustre_gbps));
  } else {
    // Async write-back: only the in-memory capture copy stays on the
    // critical path; the PFS drain is modeled off-path in the engine's
    // ckpt_drain_durations report column.
    rank_.advance_compute(static_cast<simnet::SimTime>(
        static_cast<double>(ctx_.image_bytes_written) / params.intra_node_gbps));
  }
}

// ---- restore ---------------------------------------------------------------------------------------

void Api::restore_from_image() {
  const auto& image = *ctx_.restore_image;
  MANATEE_CHECK(image.rank == rank_.world_rank(), "image/rank mismatch");
  MANATEE_CHECK(image.world_size == rank_.world_size(),
                "restart with a different world size is not supported");
  restored_ = true;

  {
    BinaryReader r(image.blob("engine/meta"));
    ops_completed_ = r.read_u64();
    r.read_u64();  // next_vreq at checkpoint — informational
    r.read_u64();  // next_vcomm at checkpoint — informational
  }
  {
    BinaryReader r(image.blob("engine/protocol"));
    mgr_.restore(r);
  }
  {
    BinaryReader r(image.blob("engine/decisions"));
    decisions_ = r.read_pod_vector<std::uint8_t>();
    decision_cursor_ = 0;
  }
  {
    BinaryReader r(image.blob("engine/vreqs"));
    const auto n = r.read_list_size();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto id = r.read_u64();
      const bool done = r.read_u8() != 0;
      saved_reqs_.emplace(id, SavedReq{!done, 0, 0, 0, {}, false});
    }
  }
  {
    BinaryReader r(image.blob("engine/unexpected"));
    const auto n = r.read_list_size();
    for (std::uint64_t i = 0; i < n; ++i) {
      SavedMessage m;
      m.vcomm = r.read_u64();
      m.src = static_cast<int>(r.read_i64());
      m.tag = static_cast<int>(r.read_i64());
      m.payload = r.read_bytes();
      pending_unexpected_.push_back(std::move(m));
    }
  }

  // Model reading the image back from stable storage.
  rank_.advance_compute(io_time(image.payload_bytes(), rank_.world_size(),
                                rank_.runtime().cost().params().lustre_gbps));

  // Messages addressed to the world communicator can be re-injected now;
  // others wait until replay re-creates their communicator.
  flush_pending_unexpected();
}

void Api::flush_pending_unexpected() {
  if (pending_unexpected_.empty()) return;
  std::vector<simnet::CapturedEnvelope> inject;
  std::erase_if(pending_unexpected_, [&](SavedMessage& m) {
    const auto it = comms_.find(m.vcomm);
    if (it == comms_.end()) return false;
    simnet::CapturedEnvelope env;
    env.context = it->second->context(umpi::Channel::kUser);
    env.src = m.src;
    env.tag = m.tag;
    env.arrival_ns = rank_.clock().now();
    env.payload = std::move(m.payload);
    inject.push_back(std::move(env));
    return true;
  });
  if (!inject.empty()) rank_.store().inject(std::move(inject));
}

}  // namespace manatee::split
