// scheduler.hpp — the rank scheduler: run N rank tasks under one of two
// backends.
//
//   * Events (kEvents, the default) — the FiberBackend: N stackful fibers
//     multiplexed onto a worker pool sized to hardware concurrency, with
//     the hybrid event-driven drive loop (DESIGN.md §12). Ranks block
//     cooperatively through sched::Waiter (waiter.hpp): a park suspends the
//     fiber in user space and the delivery that satisfies its declared
//     interest re-enqueues exactly that fiber. Collectives are progressed by
//     continuations that run directly on the worker stack, the rank fiber
//     parks once per collective at its shallow top-level frame, and stacks
//     live in MAP_NORESERVE slabs that are vacated to the heap while the
//     fleet is over its committed-stack budget. A parked rank then costs
//     O(bytes of its wait record) — what lets 64k+ ranks fit in one process.
//   * Threads (kThreads) — one OS thread per rank, preemptive, parking on a
//     condition variable. It shares no scheduling code with the fibers,
//     which is why it stays: it is the independent oracle the cross-backend
//     equivalence suite (tests/sched) checks the events backend against.
//
// Selection is per job via SchedConfig (RuntimeConfig::sched). Semantics are
// backend-independent by construction — virtual-time merges happen at
// observation points only (DESIGN.md §8) — and the equivalence suite holds
// threads and events, at one worker and at four, to bit-identical results.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/mutex.hpp"
#include "sched/fiber.hpp"
#include "sched/waiter.hpp"

namespace manatee::sched {

enum class Backend { kThreads, kEvents };

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

struct SchedConfig {
  Backend backend = Backend::kEvents;
  /// FiberBackend worker threads; 0 = min(hardware_concurrency, tasks).
  int workers = 0;
  /// The committed fiber-stack budget. Parked stacks are vacated to the
  /// heap only while the fleet's committed estimate exceeds this, so small
  /// worlds never pay the copy + refault tax and large worlds self-regulate
  /// committed stack bytes down to about the budget (the vacate rate tracks
  /// the recommit rate). 0 = vacate every eligible park unconditionally
  /// (strictest diet, highest per-park cost).
  std::size_t stack_budget_bytes = std::size_t{40} << 20;
};

/// Counters reported by a FiberBackend run (all zero under threads except
/// `workers`).
struct SchedStats {
  int workers = 0;
  std::uint64_t stacks_mapped = 0;   ///< stacks carved fresh
  std::uint64_t stacks_reused = 0;   ///< stacks served from the free list
  std::uint64_t dispatches = 0;      ///< fiber activations (worker→fiber)
  /// Peak estimated committed fiber-stack bytes (observed sp high-water
  /// minus decommits). The per-rank memory-diet headline number; the
  /// stack budget caps it at large worlds.
  std::uint64_t peak_committed = 0;
  std::uint64_t stackless_parks = 0;  ///< continuation-armed waits
  std::uint64_t fiber_fallbacks = 0;  ///< stackful drive fallbacks
  /// Parks whose whole stack was vacated to the heap (the parked rank held
  /// zero committed stack pages until re-dispatch).
  std::uint64_t stack_vacations = 0;
};

/// The per-task closure: receives the task index [0, n).
using TaskFn = std::function<void(int)>;

/// Run tasks 0..n-1 to completion under `config` and block until all have
/// finished. Tasks must not let exceptions escape (same contract as a
/// thread body). May not be called from inside a fiber.
SchedStats run_tasks(const SchedConfig& config, int n, const TaskFn& task);

/// The fiber hosting the calling context, or nullptr on a plain thread.
/// Non-null is the gate for the stackless drive loop
/// (umpi::Rank::drive_coll).
[[nodiscard]] Fiber* current_fiber() noexcept;

/// Telemetry: a collective wait served stacklessly / a wait that had to
/// fall back to the stackful fiber path. No-ops off the fibers.
void count_stackless_park() noexcept;
void count_fiber_fallback() noexcept;

/// Cooperative pause for spin-style loops that poll shared state without a
/// blocking wait: on a fiber, re-enqueues the caller at the tail of the
/// ready queue (other ranks run before the next poll — the single-worker
/// livelock guard); on a thread, std::this_thread::yield().
void yield();

/// The events backend. Normally driven through run_tasks.
class FiberBackend {
 public:
  FiberBackend(const SchedConfig& config, int n, const TaskFn& task);
  ~FiberBackend();

  FiberBackend(const FiberBackend&) = delete;
  FiberBackend& operator=(const FiberBackend&) = delete;

  /// Run all fibers to completion. The calling thread doubles as worker 0.
  SchedStats run();

  void note_stackless_park() noexcept {
    stackless_parks_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_fiber_fallback() noexcept {
    fiber_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Per-OS-thread worker state. Public only for the scheduler's own
  /// thread-local plumbing; not part of the API surface.
  struct Worker {
    FiberBackend* backend = nullptr;
    int index = 0;  ///< home ready-queue shard
    ExecContext ctx;
    Fiber* current = nullptr;
    // Actions the departing fiber left for the worker to complete on its
    // own stack (a fiber cannot finish its own park: the notifier must
    // find a consistent state under the scheduler mutex).
    Waiter* pending_park = nullptr;
    Fiber* pending_yield = nullptr;
    Fiber* pending_done = nullptr;
    /// Single worker: vacated stacks whose decommit is deferred
    /// into one batched process_madvise. An entry is cancelled when its
    /// fiber re-dispatches before the flush — a short park then costs two
    /// memcpys and no syscall or page refault at all. Every listed fiber is
    /// parked and suspended at flush time, so the batch can never zero a
    /// live stack (single worker: nothing dispatches concurrently).
    struct PendingDecommit {
      Fiber* fiber = nullptr;
      detail::StackSpan span;
    };
    std::vector<PendingDecommit> pending_decommit;
    /// Recycled vacated-span buffers. Bounded by the peak number of
    /// concurrently vacated fibers on this worker, so it stays small while
    /// sparing a malloc/free pair per vacate/restore cycle.
    std::vector<std::vector<std::byte>> span_pool;
  };

 private:
  friend class Waiter;
  friend void yield();
  friend void detail::fiber_entry(Fiber* fiber);

  /// One unit of ready work: a fiber to dispatch (fiber != nullptr) or a
  /// continuation to run right on the worker stack (fn != nullptr). The
  /// continuation epoch is opaque scheduler-side — owners use it to drop
  /// stale firings.
  struct ReadyItem {
    Fiber* fiber = nullptr;
    void (*fn)(void*, std::uint64_t) = nullptr;
    void* arg = nullptr;
    std::uint64_t epoch = 0;
  };

  /// One ready-queue shard (per worker, stealable). Its mutex sits BELOW
  /// the backend mutex (lock level 35 < 40 in scripts/lock_order.json) so
  /// wake paths that already hold mutex_ can push; continuation enqueues
  /// touch only this lock — the continuation fast path never takes mutex_.
  struct alignas(64) ReadyShard {
    common::Mutex mutex;  // lock level 35: leaf below the scheduler mutex
    std::deque<ReadyItem> items MANATEE_GUARDED_BY(mutex);
  };

  /// A pending watchdog deadline. Anchored on the stable Fiber (never the
  /// stack-allocated Waiter): the entry is stale — and skipped — unless the
  /// fiber's park epoch still matches and a park is still in flight. Lazy
  /// deletion plus periodic compaction keeps the heap O(parked), so an idle
  /// beat costs O(expiring log n), not the old O(all parked) list scan.
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point deadline;
    Fiber* fiber = nullptr;
    std::uint64_t epoch = 0;
  };

  void worker_loop(Worker& worker);
  void run_fiber(Worker& worker, Fiber* fiber);
  void dispatch(Worker& worker, Fiber* fiber);
  /// Record the suspended fiber's stack depth and, while the fleet is over
  /// its stack budget, vacate a parked fiber's stack. Runs in the safe
  /// window after dispatch() returned and before the park is published
  /// (process_pending_locked) — the fiber cannot be re-dispatched yet.
  void observe_stack_depth(Worker& worker);
  /// Charge `grew` bytes against the committed estimate and fold the new
  /// total into the running peak.
  void note_committed_growth(std::uint64_t grew) noexcept;
  /// Issue every deferred stack decommit in (at best) one syscall.
  void flush_pending_decommits(Worker& worker);
  /// Sleep on work_cv_ for up to `period` (idle worker).
  void wait_for_work_locked(std::chrono::milliseconds period)
      MANATEE_REQUIRES(mutex_);
  /// How long an idle worker may sleep: until the earliest pending
  /// watchdog deadline (deadline heap top), with a bounded heartbeat.
  [[nodiscard]] std::chrono::milliseconds idle_period_locked()
      MANATEE_REQUIRES(mutex_);
  void process_pending_locked(Worker& worker) MANATEE_REQUIRES(mutex_);
  void expire_timeouts_locked() MANATEE_REQUIRES(mutex_);
  void compact_deadlines_locked() MANATEE_REQUIRES(mutex_);
  void enqueue_ready_locked(Fiber* fiber) MANATEE_REQUIRES(mutex_);

  /// Shard push + ready count. Safe with or without mutex_ held (the shard
  /// mutex is below it); does NOT wake sleepers — callers handle that.
  void push_shard(const ReadyItem& item);
  void push_shard_batch(const ReadyItem* items, std::size_t count);
  /// Continuation enqueue from outside the scheduler lock (Waiter::notify
  /// in continuation mode): shard push, then wake a sleeper if any.
  void enqueue_item(const ReadyItem& item) MANATEE_EXCLUDES(mutex_);
  [[nodiscard]] bool pop_ready(std::size_t home_shard, ReadyItem* out);

  // Waiter/fiber entry points. The Waiter fields they mutate (state_,
  // fiber_, timed_out_) are themselves guarded by this mutex_ — see the
  // field comments in waiter.hpp; the analysis cannot name another
  // object's member, so the cross-object guard is enforced by keeping
  // every mutation inside these MANATEE_EXCLUDES/self-locking methods.
  void prepare_park(Waiter& waiter, Fiber* fiber,
                    std::chrono::steady_clock::time_point deadline)
      MANATEE_EXCLUDES(mutex_);
  void suspend_current(Waiter* waiter);
  void notify_waiter(Waiter& waiter) MANATEE_EXCLUDES(mutex_);
  /// Wake `count` waiters (fibers and/or continuations) in one scheduler
  /// lock round and one shard round — the batched-wakeup diet for
  /// deliveries that satisfy many ranks at once.
  void notify_waiters_batch(Waiter* const* waiters, std::size_t count)
      MANATEE_EXCLUDES(mutex_);
  void yield_current();
  [[noreturn]] void fiber_main(Fiber* fiber);

  SchedConfig config_;
  int workers_ = 1;
  // Lock level 40 in scripts/lock_order.json: acquired below the store's
  // interest mutex (park/notify arrive with the store lock held), above
  // only the ready-queue shard locks (35).
  common::Mutex mutex_;
  // Worker idle/wake CV of the backend that *implements* Waiter; paired
  // with mutex_ through wait_for_work_locked's adopt-lock bridge.
  std::condition_variable work_cv_;  // manatee-lint: allow(raw-condvar) — backend-internal worker wakeup, not a rank park site
  /// Ready work, sharded per worker. Never resized while workers run.
  std::vector<std::unique_ptr<ReadyShard>> shards_;
  /// Items across all shards (signed: push/pop racing on different shards
  /// may transiently observe either order). Paired with sleepers_ as an
  /// eventcount: a pusher that sees sleepers_ > 0 after its increment
  /// takes mutex_ and signals; a sleeper rechecks after registering.
  std::atomic<std::int64_t> ready_count_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<std::uint64_t> push_cursor_{0};  ///< off-worker push spraying
  std::vector<DeadlineEntry> deadline_heap_ MANATEE_GUARDED_BY(mutex_);
  std::size_t live_ MANATEE_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> stackless_parks_{0};
  std::atomic<std::uint64_t> fiber_fallbacks_{0};
  std::atomic<std::uint64_t> stack_vacations_{0};
  /// Estimated committed stack bytes (sum of fiber committed spans) and
  /// its running peak — SchedStats::peak_committed.
  std::atomic<std::uint64_t> committed_bytes_{0};
  std::atomic<std::uint64_t> peak_committed_{0};
  StackPool stacks_ MANATEE_GUARDED_BY(mutex_);
  /// Created in the constructor, destroyed after every worker joined;
  /// never resized while workers run (fiber pointers must stay stable).
  std::vector<std::unique_ptr<Fiber>> fibers_;
  bool ran_ = false;
};

}  // namespace manatee::sched
