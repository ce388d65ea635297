#include "sched/scheduler.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"

namespace manatee::sched {

namespace {

// The worker hosting the calling thread (null on non-scheduler threads).
// Private to the backend; all outside access goes through current_fiber().
thread_local FiberBackend::Worker* t_worker = nullptr;

/// Upper bound on an idle worker's sleep. The deadline heap gives the exact
/// earliest watchdog expiry, but a park that arrives *while* a worker
/// sleeps does not re-signal the CV — capping the beat bounds how stale a
/// sleeping worker's view of the heap top can get.
constexpr auto kIdleScanPeriod = std::chrono::milliseconds(100);

/// Chunk size shared by Waiter::notify_batch and the backend batch path
/// (bounds the stack arrays; bigger deliveries just loop).
constexpr std::size_t kNotifyChunk = 16;

/// Largest live span stack vacating will copy out on park. Shallow parks at
/// the top-level drive loop are ~2 KiB; a frame deeper than this keeps its
/// pages resident (copying tens of KiB on every park would cost more than
/// the pages it frees).
constexpr std::size_t kVacateMaxLiveBytes = 32 * 1024;

/// Deferred vacate decommits per process_madvise flush.
constexpr std::size_t kVacateBatch = 256;

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kThreads:
      return "threads";
    case Backend::kEvents:
      return "events";
  }
  return "?";
}

Fiber* current_fiber() noexcept {
  return t_worker != nullptr ? t_worker->current : nullptr;
}

void count_stackless_park() noexcept {
  if (t_worker != nullptr) t_worker->backend->note_stackless_park();
}

void count_fiber_fallback() noexcept {
  if (t_worker != nullptr) t_worker->backend->note_fiber_fallback();
}

void yield() {
  if (t_worker != nullptr && t_worker->current != nullptr) {
    t_worker->backend->yield_current();
  } else {
    std::this_thread::yield();
  }
}

// ---- run_tasks --------------------------------------------------------------

SchedStats run_tasks(const SchedConfig& config, int n, const TaskFn& task) {
  MANATEE_REQUIRE(n >= 0, "task count must be non-negative");
  // Launching a pool from inside a fiber would block this worker thread on
  // the join (threads backend) or corrupt the worker state (fiber backend),
  // starving every rank multiplexed here. Nested runtimes must be driven
  // from a plain thread.
  MANATEE_REQUIRE(current_fiber() == nullptr,
                  "run_tasks may not be called from inside a fiber");
  SchedStats stats;
  if (n == 0) return stats;
  if (config.backend == Backend::kThreads) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&task, i] { task(i); });
    }
    for (auto& t : threads) t.join();
    stats.workers = n;
    return stats;
  }
  FiberBackend backend(config, n, task);
  return backend.run();
}

// ---- FiberBackend -----------------------------------------------------------

FiberBackend::FiberBackend(const SchedConfig& config, int n, const TaskFn& task)
    : config_(config) {
  MANATEE_REQUIRE(n >= 0, "task count must be non-negative");
  int workers = config.workers;
  if (workers <= 0) {
    workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  workers_ = std::max(1, std::min(workers, std::max(n, 1)));
  shards_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    shards_.push_back(std::make_unique<ReadyShard>());
  }
  fibers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto fiber = std::make_unique<Fiber>();
    fiber->backend = this;
    fiber->task_index = i;
    fiber->body = [&task, i] { task(i); };
    shards_[static_cast<std::size_t>(i % workers_)]->items.push_back(
        ReadyItem{fiber.get(), nullptr, nullptr, 0});
    fibers_.push_back(std::move(fiber));
  }
  live_ = fibers_.size();
  ready_count_.store(static_cast<std::int64_t>(fibers_.size()),
                     std::memory_order_relaxed);
}

FiberBackend::~FiberBackend() = default;

SchedStats FiberBackend::run() {
  MANATEE_REQUIRE(!ran_, "FiberBackend::run may be called once");
  MANATEE_REQUIRE(current_fiber() == nullptr,
                  "fiber schedulers cannot be nested inside a fiber");
  ran_ = true;

  std::vector<std::thread> extra;
  extra.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int i = 1; i < workers_; ++i) {
    extra.emplace_back([this, i] {
      set_log_thread_label("sched-worker " + std::to_string(i));
      Worker worker;
      worker.index = i;
      worker_loop(worker);
    });
  }
  // The calling thread doubles as worker 0 — with one hardware thread the
  // whole job runs fully cooperatively, no cross-thread handoff at all.
  Worker worker0;
  worker_loop(worker0);
  for (auto& t : extra) t.join();

  SchedStats stats;
  stats.workers = workers_;
  {
    common::MutexLock lock(mutex_);  // workers joined; lock kept for the analysis
    stats.stacks_mapped = stacks_.mapped();
    stats.stacks_reused = stacks_.reused();
  }
  stats.dispatches = dispatches_.load(std::memory_order_relaxed);
  stats.peak_committed = peak_committed_.load(std::memory_order_relaxed);
  stats.stackless_parks = stackless_parks_.load(std::memory_order_relaxed);
  stats.fiber_fallbacks = fiber_fallbacks_.load(std::memory_order_relaxed);
  stats.stack_vacations = stack_vacations_.load(std::memory_order_relaxed);
  return stats;
}

void FiberBackend::wait_for_work_locked(std::chrono::milliseconds period) {
  // Bridge the annotated mutex into the CV wait: adopt the already-held
  // lock, wait (releasing and re-acquiring it), then release the
  // std::unique_lock's claim so ownership stays with the caller.
  std::unique_lock<std::mutex> cv_lock(mutex_.native(), std::adopt_lock);  // manatee-lint: allow(raw-mutex, raw-mutex-guard, native-handle) — CV bridge over the annotated mutex
  work_cv_.wait_for(cv_lock, period);
  cv_lock.release();
}

std::chrono::milliseconds FiberBackend::idle_period_locked() {
  if (deadline_heap_.empty()) return kIdleScanPeriod;
  const auto now = std::chrono::steady_clock::now();
  const auto top = deadline_heap_.front().deadline;
  if (top <= now) return std::chrono::milliseconds(1);
  const auto until = std::chrono::ceil<std::chrono::milliseconds>(top - now);
  return std::clamp(until, std::chrono::milliseconds(1), kIdleScanPeriod);
}

void FiberBackend::worker_loop(Worker& worker) {
  worker.backend = this;
  detail::init_thread_context(&worker.ctx);
  Worker* const prev_worker = t_worker;
  t_worker = &worker;

  for (;;) {
    ReadyItem item;
    if (pop_ready(static_cast<std::size_t>(worker.index), &item)) {
      if (item.fiber != nullptr) {
        run_fiber(worker, item.fiber);
      } else {
        // Stackless continuation: runs to completion right here on the
        // worker's own stack, no fiber switch, no scheduler lock. This is
        // the hot path — one queued wake progresses a rank's collective
        // without touching its (possibly decommitted) stack.
        item.fn(item.arg, item.epoch);
      }
      continue;
    }
    // Out of ready work: push any deferred stack decommits to the kernel
    // before sleeping — everything still listed has stayed parked.
    flush_pending_decommits(worker);
    common::MutexLock lock(mutex_);
    if (live_ == 0) break;
    expire_timeouts_locked();
    if (ready_count_.load(std::memory_order_seq_cst) > 0) continue;
    // Eventcount sleep: register as a sleeper, then re-check — a pusher
    // that increments ready_count_ after our check is guaranteed to see
    // sleepers_ > 0 and signal under mutex_ (no lost wakeup).
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (ready_count_.load(std::memory_order_seq_cst) <= 0) {
      wait_for_work_locked(idle_period_locked());
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  work_cv_.notify_all();  // live_ == 0: cascade the shutdown to sleepers

  t_worker = prev_worker;
  detail::destroy_thread_context(&worker.ctx);
}

bool FiberBackend::pop_ready(std::size_t home_shard, ReadyItem* out) {
  if (ready_count_.load(std::memory_order_seq_cst) <= 0) return false;
  const std::size_t n = shards_.size();
  for (std::size_t k = 0; k < n; ++k) {
    ReadyShard& shard = *shards_[(home_shard + k) % n];
    common::MutexLock lock(shard.mutex);
    if (shard.items.empty()) continue;
    *out = shard.items.front();
    shard.items.pop_front();
    ready_count_.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }
  return false;
}

void FiberBackend::push_shard(const ReadyItem& item) {
  push_shard_batch(&item, 1);
}

void FiberBackend::push_shard_batch(const ReadyItem* items, std::size_t count) {
  // Producer-local shard when pushing from a worker of this backend (the
  // single-CPU common case: zero cross-shard traffic); spray round-robin
  // from external threads (checkpoint writer, abort paths).
  std::size_t index;
  if (t_worker != nullptr && t_worker->backend == this) {
    index = static_cast<std::size_t>(t_worker->index);
  } else {
    index = push_cursor_.fetch_add(1, std::memory_order_relaxed) %
            shards_.size();
  }
  ReadyShard& shard = *shards_[index];
  common::MutexLock lock(shard.mutex);
  for (std::size_t i = 0; i < count; ++i) shard.items.push_back(items[i]);
  // Inside the shard lock so a pop can never outrun its own push's count.
  ready_count_.fetch_add(static_cast<std::int64_t>(count),
                         std::memory_order_seq_cst);
}

void FiberBackend::enqueue_item(const ReadyItem& item) {
  push_shard(item);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    common::MutexLock lock(mutex_);
    work_cv_.notify_one();
  }
}

void FiberBackend::enqueue_ready_locked(Fiber* fiber) {
  push_shard(ReadyItem{fiber, nullptr, nullptr, 0});
  work_cv_.notify_one();
}

void FiberBackend::run_fiber(Worker& worker, Fiber* fiber) {
  if (!fiber->started) {
    common::MutexLock lock(mutex_);
    fiber->stack = stacks_.acquire();
    detail::make_fiber_context(fiber);
    fiber->committed_floor = static_cast<std::byte*>(fiber->stack.top);
    fiber->started = true;
  }
  if (fiber->vacated_lo != nullptr) {
    // Cancel a still-deferred decommit first: the pages are intact, and
    // the entry must not outlive the restore (a later flush would zero the
    // then-running stack). O(1) via the fiber's back-index into the batch.
    if (fiber->pending_decommit_slot >= 0) {
      auto& list = worker.pending_decommit;
      const auto slot = static_cast<std::size_t>(fiber->pending_decommit_slot);
      list[slot] = list.back();
      list.pop_back();
      if (slot < list.size()) {
        list[slot].fiber->pending_decommit_slot =
            static_cast<std::int32_t>(slot);
      }
      fiber->pending_decommit_slot = -1;
    }
    // Repopulate the vacated live span in place — same addresses, so the
    // saved stack pointer and every frame link are valid again. Nobody
    // else can touch this fiber between the pop that handed it to us and
    // the switch below. (After a cancelled decommit this rewrites the
    // identical bytes — cheaper than tracking the distinction.)
    std::memcpy(fiber->vacated_lo, fiber->vacated_span.data(),
                fiber->vacated_span.size());
    // Return the buffer to the worker's pool rather than keep it on the
    // fiber: under the stack budget only a slice of the fleet is vacated
    // at any instant, and per-fiber retained capacities would accumulate
    // to every-fiber-ever-vacated — tens of MiB that defeat the diet. The
    // pool bounds the footprint by the peak number of concurrently
    // vacated fibers and spares a malloc/free pair per park cycle.
    fiber->vacated_span.clear();
    worker.span_pool.push_back(std::move(fiber->vacated_span));
    fiber->vacated_span = {};
    // Page-granular floor (see observe_stack_depth): the memcpy above
    // recommitted every page the live span touches.
    const std::size_t page = detail::stack_page_bytes();
    auto* floor = reinterpret_cast<std::byte*>(
        reinterpret_cast<std::uintptr_t>(fiber->vacated_lo) / page * page);
    auto* lim = static_cast<std::byte*>(fiber->stack.limit);
    fiber->committed_floor = floor < lim ? lim : floor;
    fiber->vacated_lo = nullptr;
    note_committed_growth(static_cast<std::uint64_t>(
        static_cast<std::byte*>(fiber->stack.top) - fiber->committed_floor));
  }
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  dispatch(worker, fiber);
  // Safe window: the fiber left a pending park/yield/done but it is not
  // published yet, so nobody can re-dispatch it — its saved stack is
  // quiescent and depth observation/decommit cannot race a resume.
  observe_stack_depth(worker);
  common::MutexLock lock(mutex_);
  process_pending_locked(worker);
}

void FiberBackend::flush_pending_decommits(Worker& worker) {
  if (worker.pending_decommit.empty()) return;
  // Every listed fiber is parked (cancellation removed any that came back),
  // so all spans are quiescent: batch them into one syscall.
  std::vector<detail::StackSpan> spans;
  spans.reserve(worker.pending_decommit.size());
  for (const auto& entry : worker.pending_decommit) {
    entry.fiber->pending_decommit_slot = -1;
    spans.push_back(entry.span);
  }
  detail::decommit_stack_spans(spans.data(), spans.size());
  worker.pending_decommit.clear();
}

void FiberBackend::note_committed_growth(std::uint64_t grew) noexcept {
  const std::uint64_t total =
      committed_bytes_.fetch_add(grew, std::memory_order_relaxed) + grew;
  std::uint64_t peak = peak_committed_.load(std::memory_order_relaxed);
  while (total > peak && !peak_committed_.compare_exchange_weak(
                             peak, total, std::memory_order_relaxed)) {
  }
}

void FiberBackend::dispatch(Worker& worker, Fiber* fiber) {
  worker.current = fiber;
  std::string* prev_slot = log_detail::exchange_label_slot(&fiber->log_label);
  detail::switch_context(&worker.ctx, &fiber->ctx);
  log_detail::exchange_label_slot(prev_slot);
  worker.current = nullptr;
}

void FiberBackend::observe_stack_depth(Worker& worker) {
  Fiber* fiber = nullptr;
  bool parked = false;
  if (worker.pending_park != nullptr) {
    // Set by this fiber's own prepare_park on this thread; program order
    // makes the read safe before the park is published.
    fiber = worker.pending_park->fiber_;
    parked = true;
  } else if (worker.pending_yield != nullptr) {
    fiber = worker.pending_yield;
  } else {
    fiber = worker.pending_done;
  }
  if (fiber == nullptr || fiber->committed_floor == nullptr) return;
  auto* sp = static_cast<std::byte*>(detail::saved_stack_pointer(fiber->ctx));
  if (sp == nullptr) return;  // ucontext fallback: depth not observable
  auto* top = static_cast<std::byte*>(fiber->stack.top);
  auto* limit = static_cast<std::byte*>(fiber->stack.limit);
  if (sp <= limit || sp > top) return;
  const std::size_t page = detail::stack_page_bytes();
  const auto page_floor = [page](std::byte* p) {
    return reinterpret_cast<std::byte*>(
        reinterpret_cast<std::uintptr_t>(p) / page * page);
  };

  // Track the floor in whole pages: residency is page-granular, and the
  // committed estimate both feeds the stats and gates the vacate policy
  // against SchedConfig::stack_budget_bytes — byte-granular floors would
  // undercount a one-page stack by almost half and let the fleet blow
  // through the budget while the estimate still reads under it.
  std::byte* sp_page = page_floor(sp);
  if (sp_page < limit) sp_page = limit;
  if (sp_page < fiber->committed_floor) {
    const auto grew =
        static_cast<std::uint64_t>(fiber->committed_floor - sp_page);
    fiber->committed_floor = sp_page;
    note_committed_growth(grew);
  }

  if (!parked) return;

  // Stack diet: vacate the whole stack.
  // The live span [sp−128, top) — saved registers, the park frame, the
  // red zone — is copied into a heap buffer on the Fiber and every stack
  // page goes back to the kernel; dispatch() memcpys the bytes back to the
  // same addresses (saved stack pointer and frame links stay valid) before
  // switching in. A parked rank then holds the ~2 KiB its frame actually
  // occupies instead of a 4 KiB page minimum. Only legal when the parking
  // Waiter declared the stack quiescent (set_stack_quiescent: the waiter,
  // result buffers, and op state are all off-stack, so nothing touches the
  // stack until re-dispatch — a concurrent write would be clobbered by the
  // restore). Also skipped under sanitizers (stack shadow state) and for
  // deep frames where the copy would outweigh the pages — those parks keep
  // their pages.
  // Adaptive gate: vacating trades wall time (copy out, refault on resume)
  // for resident pages, so only do it while the fleet's committed stacks
  // actually exceed the budget. Below it the pages are cheap and the park
  // takes the free path; above it vacates outpace recommits until the
  // estimate settles around the budget — small worlds never vacate at all.
  std::byte* live_lo = sp - 128 < limit ? limit : sp - 128;
  if (worker.pending_park->stack_quiescent_ &&
      detail::stack_vacate_supported() &&
      (config_.stack_budget_bytes == 0 ||
       committed_bytes_.load(std::memory_order_relaxed) >
           config_.stack_budget_bytes) &&
      static_cast<std::size_t>(top - live_lo) <= kVacateMaxLiveBytes) {
    if (fiber->committed_floor < limit + page) {
      MANATEE_REQUIRE(detail::stack_guard_intact(fiber->stack),
                      "fiber stack overflow detected (guard word "
                      "clobbered) — raise sched::kStackBytes");
    }
    // Zap only the span that can actually be resident — from the lowest
    // page this fiber ever touched (committed_floor tracks observed sp
    // minima) up to top. Zapping the full stack range would make the
    // kernel walk ~64 untouched PTEs per park for a one-page stack.
    std::byte* zap_lo = page_floor(
        fiber->committed_floor < live_lo ? fiber->committed_floor : live_lo);
    if (zap_lo < limit) zap_lo = limit;
    if (!worker.span_pool.empty()) {
      fiber->vacated_span = std::move(worker.span_pool.back());
      worker.span_pool.pop_back();
    }
    fiber->vacated_span.assign(live_lo, top);
    fiber->vacated_lo = live_lo;
    committed_bytes_.fetch_sub(
        static_cast<std::uint64_t>(top - fiber->committed_floor),
        std::memory_order_relaxed);
    fiber->committed_floor = top;
    stack_vacations_.fetch_add(1, std::memory_order_relaxed);
    if (workers_ == 1) {
      // Defer the decommit into a batch. The common short park is then
      // free of syscalls entirely: the fiber re-dispatches, the restore
      // cancels the entry, and the pages were never touched.
      fiber->pending_decommit_slot =
          static_cast<std::int32_t>(worker.pending_decommit.size());
      worker.pending_decommit.push_back(
          {fiber, detail::StackSpan{zap_lo, top}});
      if (worker.pending_decommit.size() >= kVacateBatch) {
        flush_pending_decommits(worker);
      }
    } else {
      // Cross-worker re-dispatch makes deferral racy; decommit eagerly.
      detail::decommit_stack_span(zap_lo, top);
    }
  }
}

void FiberBackend::process_pending_locked(Worker& worker) {
  if (Waiter* waiter = worker.pending_park; waiter != nullptr) {
    worker.pending_park = nullptr;
    if (waiter->state_ == ParkState::kNotified) {
      // notify() landed between the store-mutex release and this point;
      // the fiber never actually sleeps.
      enqueue_ready_locked(waiter->fiber_);
    } else {
      waiter->state_ = ParkState::kParked;
    }
  }
  if (Fiber* fiber = worker.pending_yield; fiber != nullptr) {
    worker.pending_yield = nullptr;
    enqueue_ready_locked(fiber);
  }
  if (Fiber* fiber = worker.pending_done; fiber != nullptr) {
    worker.pending_done = nullptr;
    std::size_t high_water = 0;
    if (fiber->committed_floor != nullptr) {
      high_water = static_cast<std::size_t>(
          static_cast<std::byte*>(fiber->stack.top) - fiber->committed_floor);
      // The pool decommits these pages (StackPool::release), and the next
      // fiber on this stack re-observes its own depth from scratch.
      committed_bytes_.fetch_sub(high_water, std::memory_order_relaxed);
    }
    fiber->vacated_span = {};  // release the heap copy with the stack
    stacks_.release(fiber->stack, high_water);
    fiber->stack = StackAllocation{};
    fiber->committed_floor = nullptr;
    detail::destroy_fiber_context(fiber);
    --live_;
    if (live_ == 0) work_cv_.notify_all();
  }
}

void FiberBackend::expire_timeouts_locked() {
  const auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.deadline > b.deadline;
  };
  const auto now = std::chrono::steady_clock::now();
  while (!deadline_heap_.empty() && deadline_heap_.front().deadline <= now) {
    std::pop_heap(deadline_heap_.begin(), deadline_heap_.end(), later);
    const DeadlineEntry entry = deadline_heap_.back();
    deadline_heap_.pop_back();
    Fiber* fiber = entry.fiber;
    // Lazy deletion: the park this entry described may long be over (epoch
    // moved on) or already notified (active_waiter cleared).
    if (fiber->park_epoch != entry.epoch || fiber->active_waiter == nullptr) {
      continue;
    }
    Waiter* waiter = fiber->active_waiter;
    const bool was_parked = waiter->state_ == ParkState::kParked;
    waiter->timed_out_ = true;
    waiter->state_ = ParkState::kNotified;
    fiber->active_waiter = nullptr;
    // A kParking fiber is mid-suspend: its worker completes the park, sees
    // kNotified and re-enqueues — only a fully parked fiber needs us to.
    if (was_parked) enqueue_ready_locked(fiber);
  }
}

void FiberBackend::compact_deadlines_locked() {
  const auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.deadline > b.deadline;
  };
  std::erase_if(deadline_heap_, [](const DeadlineEntry& e) {
    return e.fiber->park_epoch != e.epoch || e.fiber->active_waiter == nullptr;
  });
  std::make_heap(deadline_heap_.begin(), deadline_heap_.end(), later);
}

void FiberBackend::prepare_park(
    Waiter& waiter, Fiber* fiber,
    std::chrono::steady_clock::time_point deadline) {
  const auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.deadline > b.deadline;
  };
  common::MutexLock lock(mutex_);
  waiter.fiber_ = fiber;
  waiter.timed_out_ = false;
  waiter.state_ = ParkState::kParking;
  ++fiber->park_epoch;
  fiber->active_waiter = &waiter;
  deadline_heap_.push_back(DeadlineEntry{deadline, fiber, fiber->park_epoch});
  std::push_heap(deadline_heap_.begin(), deadline_heap_.end(), later);
  // Lazy deletion leaves one stale entry per completed park behind; compact
  // once they dominate so the heap stays O(currently parked).
  if (deadline_heap_.size() > std::max<std::size_t>(64, 2 * live_)) {
    compact_deadlines_locked();
  }
}

void FiberBackend::suspend_current(Waiter* waiter) {
  Worker* worker = t_worker;
  worker->pending_park = waiter;
  detail::switch_context(&worker->current->ctx, &worker->ctx);
  // Resumed (possibly on a different worker): the park is over.
}

void FiberBackend::notify_waiter(Waiter& waiter) {
  common::MutexLock lock(mutex_);
  switch (waiter.state_) {
    case ParkState::kParked:
      waiter.state_ = ParkState::kNotified;
      waiter.fiber_->active_waiter = nullptr;
      enqueue_ready_locked(waiter.fiber_);
      break;
    case ParkState::kParking:
      // The fiber is mid-suspend; its worker completes the park and sees
      // kNotified, re-enqueueing immediately (no lost wakeup).
      waiter.state_ = ParkState::kNotified;
      waiter.fiber_->active_waiter = nullptr;
      break;
    case ParkState::kNotified:
    case ParkState::kIdle:
      break;  // already woken / nobody parked
  }
}

void FiberBackend::notify_waiters_batch(Waiter* const* waiters,
                                        std::size_t count) {
  MANATEE_REQUIRE(count <= kNotifyChunk,
                  "notify_waiters_batch exceeds the chunk bound");
  ReadyItem items[kNotifyChunk];
  std::size_t ready = 0;
  common::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < count; ++i) {
    Waiter& waiter = *waiters[i];
    if (waiter.mode_ == Waiter::Mode::kContinuation) {
      items[ready++] = ReadyItem{nullptr, waiter.cont_fn_, waiter.cont_arg_,
                                 waiter.cont_epoch_};
      continue;
    }
    switch (waiter.state_) {
      case ParkState::kParked:
        waiter.state_ = ParkState::kNotified;
        waiter.fiber_->active_waiter = nullptr;
        items[ready++] = ReadyItem{waiter.fiber_, nullptr, nullptr, 0};
        break;
      case ParkState::kParking:
        waiter.state_ = ParkState::kNotified;
        waiter.fiber_->active_waiter = nullptr;
        break;
      case ParkState::kNotified:
      case ParkState::kIdle:
        break;
    }
  }
  if (ready == 0) return;
  // One shard round for the whole batch — the m-waiters-one-delivery case
  // costs one scheduler lock and one queue lock, not m of each.
  push_shard_batch(items, ready);
  if (ready == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }
}

void FiberBackend::yield_current() {
  Worker* worker = t_worker;
  worker->pending_yield = worker->current;
  detail::switch_context(&worker->current->ctx, &worker->ctx);
}

void FiberBackend::fiber_main(Fiber* fiber) {
  try {
    fiber->body();
  } catch (...) {
    // Task bodies own their error handling (Runtime::run catches rank
    // exceptions inside the task); an escape here is unrecoverable.
    LOG_ERROR("fiber task " << fiber->task_index
                            << " leaked an exception; terminating");
    std::terminate();
  }
  Worker* worker = t_worker;
  worker->pending_done = fiber;
  detail::switch_context_final(&fiber->ctx, &worker->ctx);
}

namespace detail {

void fiber_entry(Fiber* fiber) { fiber->backend->fiber_main(fiber); }

}  // namespace detail

// ---- Waiter -----------------------------------------------------------------

bool Waiter::park_until(common::Mutex& mu,
                        std::chrono::steady_clock::time_point deadline) {
  Fiber* fiber = current_fiber();
  if (fiber == nullptr) {
    // Thread backend (and any non-scheduler thread): the classic CV path.
    // Adopt the held interest mutex for the wait, then release the claim —
    // ownership stays with the caller either way.
    std::unique_lock<std::mutex> cv_lock(mu.native(), std::adopt_lock);  // manatee-lint: allow(raw-mutex, raw-mutex-guard, native-handle) — CV bridge over the annotated interest mutex
    const auto status = cv_.wait_until(cv_lock, deadline);
    cv_lock.release();
    return status != std::cv_status::timeout;
  }
  FiberBackend* backend = fiber->backend;
  mode_ = Mode::kFiber;  // guarded by `mu`, like notify()'s read
  backend->prepare_park(*this, fiber, deadline);
  mu.unlock();  // manatee-lint: allow(bare-lock) — the park suspends this fiber; the interest mutex must not travel into the scheduler
  backend->suspend_current(this);
  mu.lock();  // manatee-lint: allow(bare-lock) — the fiber resumed; re-take the interest mutex for the caller
  mode_ = Mode::kThread;
  // timed_out_ was written by the expiring worker under the scheduler
  // mutex before this fiber was re-enqueued; the dispatch that resumed us
  // orders that write before this read.
  return !timed_out_;
}

void Waiter::notify() {
  switch (mode_) {
    case Mode::kFiber:
      fiber_->backend->notify_waiter(*this);
      break;
    case Mode::kContinuation:
      cont_backend_->enqueue_item(FiberBackend::ReadyItem{
          nullptr, cont_fn_, cont_arg_, cont_epoch_});
      break;
    case Mode::kThread:
      cv_.notify_one();
      break;
  }
}

void Waiter::notify_batch(Waiter* const* waiters, std::size_t count) {
  // Group consecutive same-backend waiters and wake each group in one
  // scheduler round; CV (thread-mode) waiters wake individually — they are
  // distinct OS threads either way.
  Waiter* group[kNotifyChunk];
  FiberBackend* backend = nullptr;
  std::size_t grouped = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Waiter* waiter = waiters[i];
    FiberBackend* b = nullptr;
    if (waiter->mode_ == Mode::kFiber) {
      b = waiter->fiber_->backend;
    } else if (waiter->mode_ == Mode::kContinuation) {
      b = waiter->cont_backend_;
    }
    if (b == nullptr) {
      waiter->cv_.notify_one();
      continue;
    }
    if (grouped > 0 && (b != backend || grouped == kNotifyChunk)) {
      backend->notify_waiters_batch(group, grouped);
      grouped = 0;
    }
    backend = b;
    group[grouped++] = waiter;
  }
  if (grouped > 0) backend->notify_waiters_batch(group, grouped);
}

void Waiter::arm_continuation(void (*fn)(void*, std::uint64_t), void* arg,
                              std::uint64_t epoch) {
  Fiber* fiber = current_fiber();
  MANATEE_REQUIRE(fiber != nullptr,
                  "arm_continuation requires a scheduler fiber");
  mode_ = Mode::kContinuation;
  cont_backend_ = fiber->backend;
  cont_fn_ = fn;
  cont_arg_ = arg;
  cont_epoch_ = epoch;
}

void Waiter::disarm_continuation() noexcept {
  mode_ = Mode::kThread;
  cont_backend_ = nullptr;
  cont_fn_ = nullptr;
  cont_arg_ = nullptr;
  cont_epoch_ = 0;
}

}  // namespace manatee::sched
