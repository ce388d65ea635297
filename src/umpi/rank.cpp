#include "umpi/rank.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <tuple>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "sched/scheduler.hpp"
#include "umpi/runtime.hpp"

namespace manatee::umpi {

namespace {

int checked_tag(int tag) {
  MANATEE_REQUIRE(tag >= 0, "user message tags must be non-negative");
  return tag;
}

void check_comm(const CommPtr& comm) {
  MANATEE_REQUIRE(comm != nullptr, "operation on a null communicator");
}

}  // namespace

Rank::Rank(Runtime& runtime, int world_rank)
    : runtime_(runtime), world_rank_(world_rank) {
  // The world group and its collective module are shared job-wide (see
  // Runtime::world_group): each rank's world Comm holds O(1) handles, not
  // O(p) copies — the difference between 64k ranks fitting in memory or not.
  auto world = std::make_shared<Comm>();
  world->base_context = kWorldBaseContext;
  world->group = runtime.world_group();
  world->rank = world_rank;
  world->coll_module = runtime.world_coll_module();
  world_comm_ = std::move(world);
}

coll::CollModulePtr Rank::make_coll_module(
    const Group& group, const coll::CollModule* parent) const {
  // Derived communicators inherit the parent's tuning — forced --coll-*
  // overrides must not silently revert to defaults on dup/split/create —
  // and get their own topology view (their member set differs).
  const coll::CollTuning& tuning =
      parent != nullptr ? parent->tuning() : runtime_.config().coll;
  return std::make_shared<const coll::CollModule>(
      tuning, group.size(),
      coll::make_topo_view(group, runtime_.topology()));
}

/// Events-backend drive state: one per rank, lazily allocated, address-
/// stable (continuation firings hold the Rank*). The mutex serializes
/// every try_progress on the driven op between the rank's fiber and
/// continuation firings, and is the interest mutex of fiber_waiter.
struct Rank::EventDriver {
  /// Lock level 65 (scripts/lock_order.json): above the store mutex (60)
  /// so both the fiber loop and firings can watch/unwatch and send while
  /// holding it; below nothing that calls into the rank.
  common::Mutex mutex;
  /// Parks the rank's fiber once per collective; notified by firings on
  /// every terminal outcome.
  sched::Waiter fiber_waiter;
  /// Registered with the store via watch_recv; carries the armed
  /// continuation (event_driver_fire) that drives the op stacklessly.
  sched::Waiter watch_waiter;
  NbcOp* op MANATEE_GUARDED_BY(mutex) = nullptr;
  /// Bumped once per collective; stale firings (queued before the previous
  /// collective finished) compare and drop themselves.
  std::uint64_t epoch MANATEE_GUARDED_BY(mutex) = 0;
  enum class Outcome : std::uint8_t {
    kIdle,         ///< no collective in flight
    kPending,      ///< op incomplete, watch armed or fiber progressing
    kDone,         ///< op completed (possibly entirely off-fiber)
    kFallback,     ///< no single blocker: resume the stackful drive loop
    kInterrupted,  ///< job stop / peer abort observed
  };
  Outcome outcome MANATEE_GUARDED_BY(mutex) = Outcome::kIdle;
  /// run_coll's events-mode bounce buffers: the user's send/recv spans are
  /// staged through the heap so continuation firings never touch the parked
  /// fiber's stack — the precondition for whole-stack vacating. Touched
  /// only by the owning fiber outside the park, never by firings.
  std::vector<std::byte> send_bounce;
  std::vector<std::byte> recv_bounce;
};

Rank::~Rank() = default;

int Rank::world_size() const noexcept { return runtime_.world_size(); }

simnet::MessageStore& Rank::store() { return runtime_.fabric().store(world_rank_); }

int Rank::comm_dst_world(const CommPtr& comm, int dst) const {
  MANATEE_REQUIRE(dst >= 0 && dst < comm->size(), "peer rank out of range");
  return comm->world_of(dst);
}

void Rank::fill_status(Status& out, const simnet::RecvResult& r) {
  out.source = r.src;
  out.tag = r.tag;
  out.count_bytes = r.bytes;
}

// ---- point-to-point ---------------------------------------------------------

void Rank::send(const CommPtr& comm, std::span<const std::byte> data, int dst,
                int tag) {
  check_comm(comm);
  ++counters_.p2p_calls;
  runtime_.fabric().send(world_rank_, comm_dst_world(comm, dst),
                         comm->context(Channel::kUser), comm->rank,
                         checked_tag(tag), data, clock_,
                         simnet::TrafficClass::kUserP2P);
}

Request Rank::isend(const CommPtr& comm, std::span<const std::byte> data, int dst,
                    int tag) {
  // Eager-buffered send: the payload is copied into the fabric, so the
  // operation is complete as soon as it is issued (a valid MPI
  // implementation choice; the request exists for interface fidelity).
  send(comm, data, dst, tag);
  return new_request(RequestState{RequestState::Kind::kSend, nullptr, nullptr});
}

Status Rank::recv(const CommPtr& comm, std::span<std::byte> data, int src,
                  int tag) {
  check_comm(comm);
  ++counters_.p2p_calls;
  simnet::RecvResult result;
  const simnet::MatchPattern pattern{comm->context(Channel::kUser), src, tag};
  store().post_recv(pattern, data.data(), data.size(), &result);
  if (!has_nbc_requests()) {
    // Targeted fast path: nothing else needs progressing, so sleep until
    // the delivery that completes *this* receive (or a job stop/abort).
    store().wait_recv(result, [&] { return wait_interrupted(); });
    // On interrupt, withdraw the receive so no late delivery writes into
    // this dying stack frame; a cancel that fails lost the race to a
    // concurrent completion, which wins (mirrors drive()'s done-first
    // ordering).
    if (!result.is_done() && store().cancel_recv(&result)) {
      throw_wait_interrupt();
    }
  } else {
    drive([&] { return result.is_done(); });
  }
  clock_.merge(result.arrival_ns);
  clock_.advance(runtime_.cost().recv_overhead());
  if (result.truncated) throw UsageError("recv buffer too small (truncation)");
  Status status;
  fill_status(status, result);
  return status;
}

Request Rank::irecv(const CommPtr& comm, std::span<std::byte> data, int src,
                    int tag) {
  check_comm(comm);
  ++counters_.p2p_calls;
  RequestState state;
  state.kind = RequestState::Kind::kRecv;
  state.recv = std::make_unique<simnet::RecvResult>();
  const simnet::MatchPattern pattern{comm->context(Channel::kUser), src, tag};
  store().post_recv(pattern, data.data(), data.size(), state.recv.get());
  return new_request(std::move(state));
}

std::optional<simnet::ProbeInfo> Rank::iprobe(const CommPtr& comm, int src,
                                              int tag) {
  check_comm(comm);
  auto found = store().iprobe(
      simnet::MatchPattern{comm->context(Channel::kUser), src, tag});
  // MPI permits busy-polling Iprobe until a message appears. Yield on a
  // miss so the peer this loop depends on can run under a cooperative
  // scheduler backend (a no-op hint under the threads backend).
  if (!found.has_value()) sched::yield();
  return found;
}

simnet::ProbeInfo Rank::probe(const CommPtr& comm, int src, int tag) {
  check_comm(comm);
  if (!has_nbc_requests()) {
    const simnet::MatchPattern pattern{comm->context(Channel::kUser), src, tag};
    const auto found =
        store().wait_probe(pattern, [&] { return wait_interrupted(); });
    if (!found.has_value()) throw_wait_interrupt();
    return *found;
  }
  std::optional<simnet::ProbeInfo> found;
  drive([&] {
    found = iprobe(comm, src, tag);
    return found.has_value();
  });
  return *found;
}

Status Rank::sendrecv(const CommPtr& comm, std::span<const std::byte> send_data,
                      int dst, int send_tag, std::span<std::byte> recv_data,
                      int src, int recv_tag) {
  send(comm, send_data, dst, send_tag);
  return recv(comm, recv_data, src, recv_tag);
}

// ---- requests ---------------------------------------------------------------

Request Rank::new_request(RequestState state) {
  const std::uint64_t id = next_request_id_++;
  if (state.kind == RequestState::Kind::kNbc) ++nbc_requests_;
  requests_.emplace(id, std::move(state));
  return Request{id};
}

const simnet::RecvResult* Rank::recv_result(const Request& request) {
  if (request.is_null()) return nullptr;
  const RequestState* state = find(request);
  if (state == nullptr || state->kind != RequestState::Kind::kRecv) {
    return nullptr;
  }
  return state->recv.get();
}

bool Rank::wait_interrupted() const noexcept {
  return runtime_.stop_requested() || runtime_.aborted();
}

void Rank::throw_wait_interrupt() {
  if (runtime_.stop_requested()) throw JobStopping{};
  throw RuntimeFault("peer rank failed; aborting wait on rank " +
                     std::to_string(world_rank_));
}

Rank::RequestState* Rank::find(const Request& request) {
  const auto it = requests_.find(request.id);
  return it == requests_.end() ? nullptr : &it->second;
}

bool Rank::is_active(const Request& request) const {
  return !request.is_null() && requests_.contains(request.id);
}

void Rank::cancel(Request& request) {
  if (request.is_null()) return;
  RequestState* state = find(request);
  if (state != nullptr) {
    if (state->kind == RequestState::Kind::kRecv && !state->recv->is_done()) {
      store().cancel_recv(state->recv.get());
    }
    if (state->kind == RequestState::Kind::kNbc) --nbc_requests_;
    requests_.erase(request.id);
  }
  request = kNullRequest;
}

bool Rank::request_done(const Request& request) {
  if (request.is_null()) return true;
  RequestState* state = find(request);
  if (state == nullptr) return true;  // already consumed by test/wait
  switch (state->kind) {
    case RequestState::Kind::kSend: return true;
    case RequestState::Kind::kRecv: return state->recv->is_done();
    case RequestState::Kind::kNbc: return state->nbc->try_progress(*this);
  }
  return false;
}

void Rank::merge_request_completion(const Request& request) {
  if (request.is_null()) return;
  RequestState* state = find(request);
  if (state == nullptr) return;  // already consumed — clock merged then
  switch (state->kind) {
    case RequestState::Kind::kSend: break;
    case RequestState::Kind::kRecv:
      if (state->recv->is_done()) clock_.merge(state->recv->arrival_ns);
      break;
    case RequestState::Kind::kNbc:
      if (state->nbc->complete()) clock_.merge(state->nbc->completion_ns());
      break;
  }
}

bool Rank::complete_if_done(Request& request, RequestState& state, Status* status) {
  switch (state.kind) {
    case RequestState::Kind::kSend: {
      if (status != nullptr) *status = Status{};
      break;
    }
    case RequestState::Kind::kRecv: {
      if (!state.recv->is_done()) return false;
      clock_.merge(state.recv->arrival_ns);
      clock_.advance(runtime_.cost().recv_overhead());
      if (state.recv->truncated) {
        throw UsageError("irecv buffer too small (truncation)");
      }
      if (status != nullptr) fill_status(*status, *state.recv);
      break;
    }
    case RequestState::Kind::kNbc: {
      if (!state.nbc->try_progress(*this)) return false;
      // The consuming Test/Wait is where the process observes completion.
      clock_.merge(state.nbc->completion_ns());
      if (status != nullptr) *status = Status{};
      break;
    }
  }
  if (state.kind == RequestState::Kind::kNbc) --nbc_requests_;
  requests_.erase(request.id);
  request = kNullRequest;  // mirrors MPI setting the handle to MPI_REQUEST_NULL
  return true;
}

bool Rank::test(Request& request, Status* status) {
  if (request.is_null()) return true;
  RequestState* state = find(request);
  MANATEE_REQUIRE(state != nullptr, "test on an unknown request");
  const bool done = complete_if_done(request, *state, status);
  // MPI permits `while (!MPI_Test(...)) {}` busy loops. Yield on an
  // incomplete request so the peer that must complete it can run under a
  // cooperative scheduler backend (no-op hint under threads).
  if (!done) sched::yield();
  return done;
}

Status Rank::wait(Request& request) {
  Status status;
  if (request.is_null()) return status;
  const simnet::RecvResult* recv = recv_result(request);
  if (recv != nullptr && !has_nbc_requests()) {
    // Targeted fast path (see Rank::recv). The posted receive stays owned
    // by the request table on interrupt, so no cancel here — the table's
    // owner (cancel()/teardown) withdraws it.
    store().wait_recv(*recv, [&] { return wait_interrupted(); });
    if (!recv->is_done()) throw_wait_interrupt();
  }
  drive([&] { return test(request, &status); });
  return status;
}

void Rank::waitall(std::span<Request> requests) {
  drive([&] {
    bool all_done = true;
    for (Request& r : requests) {
      if (!test(r)) all_done = false;
    }
    return all_done;
  });
}

int Rank::waitany(std::span<Request> requests) {
  int index = -1;
  drive([&] {
    bool any_live = false;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].is_null()) continue;
      any_live = true;
      if (test(requests[i])) {
        index = static_cast<int>(i);
        return true;
      }
    }
    return !any_live;  // all null: MPI returns MPI_UNDEFINED
  });
  return index;
}

bool Rank::testany(std::span<Request> requests, int* index, Status* status) {
  MANATEE_REQUIRE(index != nullptr, "testany needs an index out-parameter");
  *index = -1;
  bool any_live = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].is_null()) continue;
    any_live = true;
    if (test(requests[i], status)) {
      *index = static_cast<int>(i);
      return true;
    }
  }
  if (any_live) sched::yield();  // see Rank::test: busy-poll loops are legal
  return !any_live;  // all null: MPI returns flag=true, MPI_UNDEFINED index
}

void Rank::progress_outstanding() {
  if (nbc_requests_ == 0) return;
  for (auto& [id, state] : requests_) {
    if (state.kind == RequestState::Kind::kNbc && !state.nbc->complete()) {
      state.nbc->try_progress(*this);
    }
  }
}

void Rank::drive(common::FunctionRef<bool()> done) {
  while (true) {
    const auto token = store().token();
    progress_outstanding();
    if (done()) return;
    if (runtime_.stop_requested()) throw JobStopping{};
    if (runtime_.aborted()) {
      throw RuntimeFault("peer rank failed; aborting wait on rank " +
                         std::to_string(world_rank_));
    }
    store().wait_changed(token);
  }
}

// ---- blocking collectives ------------------------------------------------------

void Rank::drive_coll(NbcOp& op, bool stack_quiescent) {
  if (has_nbc_requests()) {
    // Other collectives may need progressing: fall back to wake-on-anything.
    drive([&] { return op.try_progress(*this); });
    return;
  }
  if (sched::current_fiber() != nullptr) {
    drive_coll_events(op, stack_quiescent);
    return;
  }
  while (!op.try_progress(*this)) {
    const simnet::RecvResult* blocker = op.blocking_on();
    if (blocker == nullptr) {
      drive([&] { return op.try_progress(*this); });
      return;
    }
    // Targeted: sleep until exactly the receive the algorithm is stuck on.
    // Arrivals for pre-posted later rounds complete in place without waking
    // this rank, collapsing a p-message fan-in into one sleep/wake.
    store().wait_recv(*blocker, [&] { return wait_interrupted(); });
    if (!blocker->is_done()) throw_wait_interrupt();
  }
}

void Rank::drive_coll_events(NbcOp& op, bool stack_quiescent) {
  // The hybrid drive loop of the events backend. The fiber progresses the
  // op inline while it can; once stuck on a receive it registers a
  // persistent watch (MessageStore::watch_recv) whose armed continuation
  // (event_driver_fire) drives the op's remaining rounds from the worker's
  // event loop, and parks ONCE for the whole collective. A p-round fan-in
  // that used to cost p park/dispatch stack switches costs one park and
  // p-1 stackless firings — and while parked, the fiber's dead stack pages
  // are decommitted by the scheduler.
  if (event_driver_ == nullptr) {
    event_driver_ = std::make_unique<EventDriver>();
  }
  EventDriver& d = *event_driver_;
  simnet::MessageStore& st = store();
  using Outcome = EventDriver::Outcome;
  bool fallback = false;
  {
    common::MutexLock lock(d.mutex);
    d.op = &op;
    d.outcome = Outcome::kPending;
    ++d.epoch;
    // Per-collective, not sticky: only run_coll's bounce-buffered path may
    // promise a quiescent stack (the bookkeeping collectives park with
    // their result scalars on this very stack).
    d.fiber_waiter.set_stack_quiescent(stack_quiescent);
    // Arm while unregistered: no wake path can observe the waiter until
    // watch_recv below registers it under the store mutex.
    d.watch_waiter.arm_continuation(&Rank::event_driver_fire, this, d.epoch);
    bool watched = false;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(simnet::MessageStore::wait_timeout_ms());
    try {
      for (;;) {
        Outcome oc = d.outcome;
        if (oc == Outcome::kPending && op.try_progress(*this)) {
          d.outcome = oc = Outcome::kDone;
        }
        if (oc != Outcome::kPending) break;
        const simnet::RecvResult* blocker = op.blocking_on();
        if (blocker == nullptr) {
          d.outcome = Outcome::kFallback;
          break;
        }
        if (st.watch_recv(blocker, &d.watch_waiter)) {
          // Completed while registering: take another inline round.
          watched = true;
          continue;
        }
        watched = true;
        // A stop/abort flagged before the watch registered will never fire
        // it (the flagging notify already ran); re-check before parking.
        // Flags raised after registration reach event_driver_fire via
        // notify_all_ranks, which wakes persistent watches too.
        if (wait_interrupted()) {
          d.outcome = Outcome::kInterrupted;
          break;
        }
        if (!d.fiber_waiter.park_until(d.mutex, deadline) &&
            d.outcome == Outcome::kPending) {
          throw RuntimeFault(st.wait_diagnostics("drive_coll"));
        }
      }
    } catch (...) {
      if (watched) st.unwatch(&d.watch_waiter);
      d.op = nullptr;
      d.outcome = Outcome::kIdle;
      throw;
    }
    if (watched) st.unwatch(&d.watch_waiter);
    const Outcome outcome = d.outcome;
    d.op = nullptr;
    d.outcome = Outcome::kIdle;
    if (outcome == Outcome::kInterrupted) throw_wait_interrupt();
    fallback = outcome == Outcome::kFallback;
  }
  if (fallback) {
    // No single blocker to watch (or a firing could not finish the round
    // off-fiber): block stackfully with the op's frames on this stack.
    sched::count_fiber_fallback();
    drive([&] { return op.try_progress(*this); });
  }
}

void Rank::event_driver_fire(void* arg, std::uint64_t epoch) {
  // Runs on a worker's own stack (no fiber, no locks held on entry) when
  // the watched receive completed or a store-wide wake occurred. Drives as
  // many rounds as arrived messages allow; wakes the parked fiber only on
  // a terminal outcome.
  Rank* self = static_cast<Rank*>(arg);
  EventDriver& d = *self->event_driver_;
  simnet::MessageStore& st = self->store();
  using Outcome = EventDriver::Outcome;
  common::MutexLock lock(d.mutex);
  if (epoch != d.epoch || d.outcome != Outcome::kPending) return;  // stale
  NbcOp& op = *d.op;
  for (;;) {
    if (self->wait_interrupted()) {
      d.outcome = Outcome::kInterrupted;
      break;
    }
    bool done = false;
    try {
      done = op.try_progress(*self);
    } catch (...) {
      // A fault off-fiber cannot unwind the application; hand the op back
      // to the fiber, whose stackful drive re-runs (and re-throws) it.
      d.outcome = Outcome::kFallback;
      break;
    }
    if (done) {
      d.outcome = Outcome::kDone;
      break;
    }
    const simnet::RecvResult* blocker = op.blocking_on();
    if (blocker == nullptr) {
      d.outcome = Outcome::kFallback;
      break;
    }
    sched::count_stackless_park();
    if (st.watch_recv(blocker, &d.watch_waiter)) continue;
    return;  // re-watched: the next completion fires this again
  }
  d.fiber_waiter.notify();
}

void Rank::run_coll(const CommPtr& comm, coll::CollKind kind,
                    const coll::CollArgs& args) {
  check_comm(comm);
  ++counters_.collective_calls;
  coll::CollArgs pooled = args;
  pooled.pool = &runtime_.fabric().pool();
  pooled.topo = &runtime_.topology();
  // Events mode: stage the user's send/recv spans through per-rank heap
  // bounce buffers. The op then never reads or writes this fiber's stack
  // (user buffers are often stack scalars — the bench's accumulator, a
  // barrier token), which is what lets the scheduler vacate the whole
  // stack while the fiber is parked on the collective. The v-variant
  // count/displacement spans are not staged, so those collectives run
  // correct-but-unvacated. recv is copied in BOTH directions: in, because
  // bcast and the in-place reductions read it; out, to deliver the result.
  const bool bounce = sched::current_fiber() != nullptr &&
                      args.send_counts.empty() && args.send_displs.empty() &&
                      args.recv_counts.empty() && args.recv_displs.empty();
  if (bounce) {
    if (event_driver_ == nullptr) {
      event_driver_ = std::make_unique<EventDriver>();
    }
    EventDriver& d = *event_driver_;
    d.send_bounce.assign(args.send.begin(), args.send.end());
    d.recv_bounce.assign(args.recv.begin(), args.recv.end());
    pooled.send = d.send_bounce;
    pooled.recv = d.recv_bounce;
  }
  auto op = coll::make_op(comm, kind, pooled);
  drive_coll(*op, /*stack_quiescent=*/bounce);
  if (bounce && !args.recv.empty()) {
    std::memcpy(args.recv.data(), event_driver_->recv_bounce.data(),
                args.recv.size());
  }
  clock_.merge(op->completion_ns());
}

void Rank::barrier(const CommPtr& comm) {
  run_coll(comm, coll::CollKind::kBarrier, {});
}

void Rank::bcast(const CommPtr& comm, std::span<std::byte> data, int root,
                 Datatype dt) {
  coll::CollArgs args;
  args.recv = data;
  args.root = root;
  args.dt = dt;
  run_coll(comm, coll::CollKind::kBcast, args);
}

void Rank::reduce(const CommPtr& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, Datatype dt, ReduceOp op, int root) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  args.op = op;
  args.root = root;
  run_coll(comm, coll::CollKind::kReduce, args);
}

void Rank::allreduce(const CommPtr& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, Datatype dt, ReduceOp op) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  args.op = op;
  run_coll(comm, coll::CollKind::kAllreduce, args);
}

void Rank::gather(const CommPtr& comm, std::span<const std::byte> send,
                  std::span<std::byte> recv, int root, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.root = root;
  args.dt = dt;
  run_coll(comm, coll::CollKind::kGather, args);
}

void Rank::allgather(const CommPtr& comm, std::span<const std::byte> send,
                     std::span<std::byte> recv, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  run_coll(comm, coll::CollKind::kAllgather, args);
}

void Rank::scatter(const CommPtr& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv, int root, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.root = root;
  args.dt = dt;
  run_coll(comm, coll::CollKind::kScatter, args);
}

void Rank::alltoall(const CommPtr& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  run_coll(comm, coll::CollKind::kAlltoall, args);
}

void Rank::scan(const CommPtr& comm, std::span<const std::byte> send,
                std::span<std::byte> recv, Datatype dt, ReduceOp op) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  args.op = op;
  run_coll(comm, coll::CollKind::kScan, args);
}

void Rank::reduce_scatter_block(const CommPtr& comm,
                                std::span<const std::byte> send,
                                std::span<std::byte> recv, Datatype dt,
                                ReduceOp op) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  args.op = op;
  run_coll(comm, coll::CollKind::kReduceScatterBlock, args);
}

void Rank::gatherv(const CommPtr& comm, std::span<const std::byte> send,
                   std::span<std::byte> recv,
                   std::span<const std::size_t> recv_counts,
                   std::span<const std::size_t> recv_displs, int root) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.recv_counts = recv_counts;
  args.recv_displs = recv_displs;
  args.root = root;
  run_coll(comm, coll::CollKind::kGatherv, args);
}

void Rank::allgatherv(const CommPtr& comm, std::span<const std::byte> send,
                      std::span<std::byte> recv,
                      std::span<const std::size_t> recv_counts,
                      std::span<const std::size_t> recv_displs) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.recv_counts = recv_counts;
  args.recv_displs = recv_displs;
  run_coll(comm, coll::CollKind::kAllgatherv, args);
}

void Rank::alltoallv(const CommPtr& comm, std::span<const std::byte> send,
                     std::span<const std::size_t> send_counts,
                     std::span<const std::size_t> send_displs,
                     std::span<std::byte> recv,
                     std::span<const std::size_t> recv_counts,
                     std::span<const std::size_t> recv_displs) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.send_counts = send_counts;
  args.send_displs = send_displs;
  args.recv_counts = recv_counts;
  args.recv_displs = recv_displs;
  run_coll(comm, coll::CollKind::kAlltoallv, args);
}

// ---- non-blocking collectives -----------------------------------------------------

Request Rank::start_coll(const CommPtr& comm, coll::CollKind kind,
                         const coll::CollArgs& args) {
  check_comm(comm);
  ++counters_.collective_calls;
  coll::CollArgs pooled = args;
  pooled.pool = &runtime_.fabric().pool();
  pooled.topo = &runtime_.topology();
  RequestState state;
  state.kind = RequestState::Kind::kNbc;
  state.nbc = coll::make_op(comm, kind, pooled);
  state.nbc->try_progress(*this);  // initiate: issue first-round traffic now
  return new_request(std::move(state));
}

Request Rank::ibarrier(const CommPtr& comm) {
  return start_coll(comm, coll::CollKind::kBarrier, {});
}

Request Rank::ibarrier_software(const CommPtr& comm) {
  check_comm(comm);
  ++counters_.collective_calls;
  // Fixed algorithm, deliberately outside the selection layer: the 2PC cut
  // may abandon this barrier with only a subset of members entered, and a
  // forced --coll-barrier choice must not change what that cut leaves
  // behind. Dissemination is registered unconditionally and usable at every
  // communicator size, and every member takes the same path, so the
  // inserted barrier stays store-level traffic that drain capture handles.
  const coll::AlgoEntry* entry =
      coll::Registry::instance().find(coll::CollKind::kBarrier, "dissemination");
  MANATEE_CHECK(entry != nullptr, "software barrier algorithm missing");
  coll::CollArgs args;
  args.pool = &runtime_.fabric().pool();
  args.topo = &runtime_.topology();
  const int tag = static_cast<int>(comm->coll_seq++);
  RequestState state;
  state.kind = RequestState::Kind::kNbc;
  state.nbc = entry->make(comm, tag, args);
  state.nbc->try_progress(*this);  // initiate: issue first-round traffic now
  return new_request(std::move(state));
}

Request Rank::ibcast(const CommPtr& comm, std::span<std::byte> data, int root,
                     Datatype dt) {
  coll::CollArgs args;
  args.recv = data;
  args.root = root;
  args.dt = dt;
  return start_coll(comm, coll::CollKind::kBcast, args);
}

Request Rank::ireduce(const CommPtr& comm, std::span<const std::byte> send,
                      std::span<std::byte> recv, Datatype dt, ReduceOp op,
                      int root) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  args.op = op;
  args.root = root;
  return start_coll(comm, coll::CollKind::kReduce, args);
}

Request Rank::iallreduce(const CommPtr& comm, std::span<const std::byte> send,
                         std::span<std::byte> recv, Datatype dt, ReduceOp op) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  args.op = op;
  return start_coll(comm, coll::CollKind::kAllreduce, args);
}

Request Rank::igather(const CommPtr& comm, std::span<const std::byte> send,
                      std::span<std::byte> recv, int root, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.root = root;
  args.dt = dt;
  return start_coll(comm, coll::CollKind::kGather, args);
}

Request Rank::iscatter(const CommPtr& comm, std::span<const std::byte> send,
                       std::span<std::byte> recv, int root, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.root = root;
  args.dt = dt;
  return start_coll(comm, coll::CollKind::kScatter, args);
}

Request Rank::iallgather(const CommPtr& comm, std::span<const std::byte> send,
                         std::span<std::byte> recv, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  return start_coll(comm, coll::CollKind::kAllgather, args);
}

Request Rank::ialltoall(const CommPtr& comm, std::span<const std::byte> send,
                        std::span<std::byte> recv, Datatype dt) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  return start_coll(comm, coll::CollKind::kAlltoall, args);
}

Request Rank::iscan(const CommPtr& comm, std::span<const std::byte> send,
                    std::span<std::byte> recv, Datatype dt, ReduceOp op) {
  coll::CollArgs args;
  args.send = send;
  args.recv = recv;
  args.dt = dt;
  args.op = op;
  return start_coll(comm, coll::CollKind::kScan, args);
}

// ---- communicator management -------------------------------------------------------

std::uint64_t Rank::agree_context_block(const CommPtr& comm, int count) {
  std::uint64_t base = 0;
  if (comm->rank == 0 && count > 0) base = runtime_.allocate_context_block(count);
  auto bytes = std::as_writable_bytes(std::span(&base, 1));
  coll::CollArgs args;
  args.recv = bytes;
  args.dt = Datatype::kUInt64;
  args.root = 0;
  args.pool = &runtime_.fabric().pool();
  args.topo = &runtime_.topology();
  // Bookkeeping collective: never subject to user-forced algorithms, which
  // may be inapplicable on this communicator.
  auto op = coll::make_op(comm, coll::CollKind::kBcast, args,
                          /*honor_forced=*/false);
  drive_coll(*op);
  clock_.merge(op->completion_ns());
  return base;
}

CommPtr Rank::comm_dup(const CommPtr& comm) {
  check_comm(comm);
  ++counters_.collective_calls;
  const std::uint64_t base = agree_context_block(comm, 1);
  auto dup = std::make_shared<Comm>();
  dup->base_context = base;
  dup->group = comm->group;
  dup->rank = comm->rank;
  dup->coll_module = make_coll_module(dup->group, comm->coll_module.get());
  return dup;
}

CommPtr Rank::comm_split(const CommPtr& comm, int color, int key) {
  check_comm(comm);
  ++counters_.collective_calls;
  const int p = comm->size();

  struct ColorKey {
    int color;
    int key;
    int world;
  };
  static_assert(sizeof(ColorKey) == 12);
  ColorKey mine{color, key, world_rank_};
  std::vector<ColorKey> all(static_cast<std::size_t>(p));
  {
    coll::CollArgs args;
    args.send = std::as_bytes(std::span(&mine, 1));
    args.recv = std::as_writable_bytes(std::span(all));
    args.pool = &runtime_.fabric().pool();
    args.topo = &runtime_.topology();
    auto op = coll::make_op(comm, coll::CollKind::kAllgather, args,
                            /*honor_forced=*/false);
    drive_coll(*op);
    clock_.merge(op->completion_ns());
  }

  // Deterministic context assignment: one id per distinct color, in sorted
  // color order, allocated by parent rank 0 and broadcast.
  std::vector<int> colors;
  for (const auto& ck : all) {
    if (ck.color >= 0) colors.push_back(ck.color);
  }
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  const std::uint64_t base =
      agree_context_block(comm, static_cast<int>(colors.size()));
  if (color < 0) return nullptr;  // MPI_UNDEFINED: this rank opts out

  struct Member {
    int key;
    int parent_rank;
    int world;
  };
  std::vector<Member> members;
  for (int i = 0; i < p; ++i) {
    const auto& ck = all[static_cast<std::size_t>(i)];
    if (ck.color == color) members.push_back(Member{ck.key, i, ck.world});
  }
  std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });

  std::vector<int> world_ranks;
  int my_new_rank = -1;
  world_ranks.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    world_ranks.push_back(members[i].world);
    if (members[i].world == world_rank_) my_new_rank = static_cast<int>(i);
  }
  MANATEE_CHECK(my_new_rank >= 0, "comm_split: caller missing from own color");

  const auto color_index = static_cast<std::uint64_t>(
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
  auto result = std::make_shared<Comm>();
  result->base_context = base + color_index;
  result->group = Group(std::move(world_ranks));
  result->rank = my_new_rank;
  result->coll_module = make_coll_module(result->group, comm->coll_module.get());
  return result;
}

CommPtr Rank::comm_create(const CommPtr& comm, const Group& group) {
  check_comm(comm);
  ++counters_.collective_calls;
  for (int w : group.members()) {
    MANATEE_REQUIRE(comm->group.contains_world(w),
                    "comm_create group member not in parent communicator");
  }
  const std::uint64_t base = agree_context_block(comm, 1);
  const int my_rank = group.rank_of_world(world_rank_);
  if (my_rank < 0) return nullptr;
  auto result = std::make_shared<Comm>();
  result->base_context = base;
  result->group = group;
  result->rank = my_rank;
  result->coll_module = make_coll_module(result->group, comm->coll_module.get());
  return result;
}

// ---- checkpoint-protocol channel ---------------------------------------------------

void Rank::ckpt_send(const CommPtr& comm, std::span<const std::byte> data, int dst,
                     int tag) {
  check_comm(comm);
  runtime_.fabric().send(world_rank_, comm_dst_world(comm, dst),
                         comm->context(Channel::kCkpt), comm->rank, tag, data,
                         clock_, simnet::TrafficClass::kCkptProtocol);
}

std::optional<simnet::ProbeInfo> Rank::ckpt_iprobe(const CommPtr& comm, int src,
                                                   int tag) {
  check_comm(comm);
  return store().iprobe(
      simnet::MatchPattern{comm->context(Channel::kCkpt), src, tag});
}

std::optional<Status> Rank::ckpt_try_recv(const CommPtr& comm,
                                          std::span<std::byte> data, int src,
                                          int tag) {
  check_comm(comm);
  const simnet::MatchPattern pattern{comm->context(Channel::kCkpt), src, tag};
  simnet::RecvResult result;
  if (!store().try_recv_unexpected(pattern, data.data(), data.size(), &result)) {
    return std::nullopt;
  }
  clock_.merge(result.arrival_ns);
  clock_.advance(runtime_.cost().recv_overhead());
  if (result.truncated) throw UsageError("ckpt_try_recv buffer too small");
  Status status;
  fill_status(status, result);
  return status;
}

// ---- internals ------------------------------------------------------------------

void Rank::internal_coll_send(const CommPtr& comm, int dst, int tag,
                              std::span<const std::byte> bytes) {
  internal_coll_send_at(comm, dst, tag, bytes, clock_);
}

void Rank::internal_coll_send_at(const CommPtr& comm, int dst, int tag,
                                 std::span<const std::byte> bytes,
                                 simnet::VirtualClock& clock) {
  runtime_.fabric().send(world_rank_, comm_dst_world(comm, dst),
                         comm->context(Channel::kColl), comm->rank, tag, bytes,
                         clock, simnet::TrafficClass::kCollective);
}

}  // namespace manatee::umpi
