// nbc.hpp — the resumable-state-machine base of all collective algorithms.
//
// Every collective algorithm (binomial broadcast, recursive-doubling
// allreduce, ring allgather, pairwise alltoall, dissemination barrier, ...)
// is an NbcOp whose step() makes as much progress as currently-arrived
// messages allow. Blocking collectives drive the same op to completion;
// non-blocking collectives park it in the request table and progress it
// from Test/Wait — the schedule-based design used by libNBC and by MPI
// implementations without asynchronous progress threads.
//
// The concrete algorithms live in src/umpi/coll/ and are selected at call
// time by the per-communicator coll::CollModule (registry + decision layer).
//
// This single-implementation design matters for the paper's reproduction:
// the CC algorithm's non-blocking drain (§4.3.2, "keep calling MPI_Test
// until all communication has completed") exercises exactly this progress
// path, identically for every registered algorithm.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/virtual_clock.hpp"
#include "umpi/communicator.hpp"
#include "umpi/op.hpp"
#include "umpi/types.hpp"

namespace manatee::umpi {

class Rank;

/// One in-flight collective operation on `comm` with collective-sequence
/// tag `tag`.
class NbcOp {
 public:
  NbcOp(CommPtr comm, int tag);
  virtual ~NbcOp();

  NbcOp(const NbcOp&) = delete;
  NbcOp& operator=(const NbcOp&) = delete;

  /// Attempt progress; returns true once the operation is locally complete.
  /// Idempotent after completion. Never touches the rank's clock — the
  /// caller merges completion_ns() when the completion is *observed*.
  bool try_progress(Rank& rank);

  /// Causal completion time of the operation (valid once complete()).
  [[nodiscard]] simnet::SimTime completion_ns() const;

  /// The single posted receive the last try_progress stopped at, when it
  /// did (every algorithm consumes its receives in a deterministic order,
  /// so an incomplete op is always blocked on exactly one result). The
  /// blocking-collective wait targets this: the rank sleeps until *that*
  /// receive completes, while other arrivals — pre-posted later rounds,
  /// unrelated traffic — complete in place without waking it.
  [[nodiscard]] const simnet::RecvResult* blocking_on() const noexcept {
    return complete_ ? nullptr : blocking_on_;
  }

  [[nodiscard]] bool complete() const noexcept { return complete_; }
  [[nodiscard]] const CommPtr& comm() const noexcept { return comm_; }
  [[nodiscard]] int tag() const noexcept { return tag_; }

 protected:
  /// Algorithm body: make progress, return true when complete.
  virtual bool step(Rank& rank) = 0;

  /// A receive slot. Stable address required after posting; subclasses keep
  /// slots in a SlotArray (or as direct members). A slot destroyed while
  /// its receive is still posted withdraws it from the store itself — this
  /// must happen in the *slot's* destructor (derived-class members), not
  /// the NbcOp base destructor, which runs only after the slots are gone.
  struct Slot {
    simnet::RecvResult result;
    simnet::PayloadBuffer buf;  ///< internal staging buffer (pool-backed)
    std::byte* dest = nullptr;  ///< where the payload lands
    std::size_t capacity = 0;
    bool posted = false;
    bool consumed = false;  ///< clock already merged for this completion
    simnet::MessageStore* store = nullptr;  ///< set when posted

    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    ~Slot() {
      if (store != nullptr && posted && !result.is_done()) {
        store->cancel_recv(&result);
      }
    }
  };

  /// Fixed-capacity slot storage: one allocation for the whole operation
  /// (a std::deque<Slot> costs several even when empty) and stable
  /// addresses by construction. Every algorithm knows a bound on its slot
  /// count up front (p, log2(p), ...); reserve() it once, then size()/grow
  /// with operator[] semantics via ensure_size().
  class SlotArray {
   public:
    SlotArray() = default;
    SlotArray(const SlotArray&) = delete;
    SlotArray& operator=(const SlotArray&) = delete;
    ~SlotArray() { clear(); }

    /// Allocates capacity for `cap` default-constructed-on-demand slots.
    void reserve(std::size_t cap) {
      MANATEE_CHECK(storage_ == nullptr, "SlotArray::reserve called twice");
      if (cap == 0) return;
      storage_ = static_cast<Slot*>(
          ::operator new(cap * sizeof(Slot), std::align_val_t{alignof(Slot)}));
      cap_ = cap;
    }

    /// Grows the constructed prefix to `n` (within reserved capacity).
    void ensure_size(std::size_t n) {
      MANATEE_CHECK(n <= cap_, "SlotArray overflow: reserve a larger bound");
      while (size_ < n) new (&storage_[size_++]) Slot();
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] Slot& operator[](std::size_t i) {
      MANATEE_CHECK(i < size_, "SlotArray index out of range");
      return storage_[i];
    }

   private:
    void clear() noexcept {
      for (std::size_t i = size_; i > 0; --i) storage_[i - 1].~Slot();
      if (storage_ != nullptr) {
        ::operator delete(storage_, std::align_val_t{alignof(Slot)});
      }
      storage_ = nullptr;
      size_ = 0;
      cap_ = 0;
    }

    Slot* storage_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  /// Send `bytes` to communicator rank `dst` on the collective channel,
  /// charged against the operation's own progress clock (see op_clock_).
  void send_bytes(Rank& rank, int dst, std::span<const std::byte> bytes);

  /// Charge local computation (reduction arithmetic) to the progress clock.
  void charge_compute(simnet::SimTime cost) { op_clock_.advance(cost); }

  /// Ensure a receive into the slot's internal buffer of `max_bytes` is
  /// posted; returns true when the message has arrived (and merges the
  /// receiver clock exactly once).
  bool recv_ready(Rank& rank, Slot& slot, int src, std::size_t max_bytes);

  /// Same, but the payload lands directly in caller-owned memory.
  bool recv_ready_into(Rank& rank, Slot& slot, int src, std::span<std::byte> dest);

  /// Receive-window pre-posting: post the slot's receive without waiting.
  /// An algorithm whose full receive set is known up front posts it all in
  /// its first step, so every arrival completes zero-copy into its final
  /// destination (single memcpy, no unexpected-queue staging) no matter how
  /// far ahead the senders run. Matching stays exact: slots aimed at the
  /// same (source, tag) are consumed in post order, which MPI's
  /// non-overtaking rule aligns with the sender's round order. The later
  /// recv_ready/recv_ready_into call on the same slot consumes the result.
  void prepost(Rank& rank, Slot& slot, int src, std::size_t max_bytes);
  void prepost_into(Rank& rank, Slot& slot, int src, std::span<std::byte> dest);

  CommPtr comm_;
  int tag_;
  bool complete_ = false;

  /// The operation's own causal clock. Once initiated, a collective
  /// progresses "in background, completely independent" of when the
  /// process happens to poll (MPI 4.0 §6.36 / paper §3); charging sends
  /// and receive completions against this clock instead of the rank's
  /// clock makes completion times causal and deterministic. The rank's
  /// clock merges the op clock when it observes completion.
  simnet::VirtualClock op_clock_;
  bool op_clock_started_ = false;

 private:
  void post(Rank& rank, Slot& slot, int src);

  const simnet::RecvResult* blocking_on_ = nullptr;
};

}  // namespace manatee::umpi
