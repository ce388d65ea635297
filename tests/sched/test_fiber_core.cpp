// Core fiber-scheduler units: context switching, stack pooling, yield
// ordering, and the Waiter park/notify state machine in both modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "sched/fiber.hpp"
#include "sched/scheduler.hpp"
#include "sched/waiter.hpp"

namespace manatee::sched {
namespace {

using namespace std::chrono_literals;

SchedConfig fibers(int workers = 1) {
  SchedConfig config;
  config.workers = workers;
  return config;
}

TEST(SchedBackend, DefaultsAndNames) {
  const SchedConfig config;
  EXPECT_EQ(config.backend, Backend::kEvents);
  EXPECT_EQ(config.stack_budget_bytes, std::size_t{40} << 20);
  EXPECT_STREQ(backend_name(Backend::kThreads), "threads");
  EXPECT_STREQ(backend_name(Backend::kEvents), "events");
}

TEST(SchedBackend, ThreadsRunEveryTask) {
  std::vector<std::atomic<int>> ran(8);
  SchedConfig config;
  config.backend = Backend::kThreads;
  const auto stats = run_tasks(config, 8, [&](int i) {
    ran[static_cast<std::size_t>(i)].store(1);
    EXPECT_EQ(current_fiber(), nullptr);
  });
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(stats.workers, 8);
  EXPECT_EQ(stats.stacks_mapped, 0u);
}

TEST(SchedBackend, FibersRunEveryTask) {
  std::vector<std::atomic<int>> ran(64);
  const auto stats = run_tasks(fibers(2), 64, [&](int i) {
    ran[static_cast<std::size_t>(i)].store(1);
    EXPECT_NE(current_fiber(), nullptr);
  });
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_LE(stats.workers, 2);
  EXPECT_GE(stats.dispatches, 64u);
}

TEST(SchedBackend, YieldInterleavesDeterministicallyOnOneWorker) {
  // A single worker drains the ready deque FIFO, so two yielding fibers
  // must alternate exactly.
  std::vector<int> order;
  run_tasks(fibers(1), 2, [&](int i) {
    for (int k = 0; k < 4; ++k) {
      order.push_back(i);
      yield();
    }
  });
  const std::vector<int> expected{0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, expected);
}

TEST(SchedBackend, StacksAreReusedAcrossSequentialFibers) {
  // Run-to-completion tasks on one worker: only one stack is ever live, so
  // the pool maps one stack and recycles it for every later fiber.
  const auto stats = run_tasks(fibers(1), 32, [](int) {});
  EXPECT_EQ(stats.stacks_mapped, 1u);
  EXPECT_EQ(stats.stacks_reused, 31u);
}

TEST(SchedBackend, ConcurrentlyLiveFibersGetDistinctStacks) {
  // Every fiber yields once before finishing, so all four are live at once
  // and each needs its own stack.
  const auto stats = run_tasks(fibers(1), 4, [](int) { yield(); });
  EXPECT_EQ(stats.stacks_mapped, 4u);
  EXPECT_EQ(stats.stacks_reused, 0u);
}

// Burn `frames` stack frames, each holding live data, and verify the data
// survives the recursion and interleaved context switches.
std::uint64_t deep(int frames, std::uint64_t acc) {
  volatile std::uint64_t local[32];
  for (int i = 0; i < 32; ++i) local[i] = acc + static_cast<std::uint64_t>(i);
  if (frames > 0) acc = deep(frames - 1, acc + 1);
  yield();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(local[i]),
              (acc - static_cast<std::uint64_t>(frames)) +
                  static_cast<std::uint64_t>(i));
  }
  return acc;
}

TEST(SchedBackend, DeepStacksSurviveSwitches) {
  std::vector<std::uint64_t> out(4);
  run_tasks(fibers(1), 4, [&](int i) {
    // ~300 frames x ~300B of live locals stays well inside the 256 KiB
    // default stack while exercising a real call chain across switches.
    out[static_cast<std::size_t>(i)] =
        deep(300, static_cast<std::uint64_t>(i) * 1000);
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i) * 1000 + 300);
  }
}

TEST(SchedBackend, RunTasksInsideFiberIsRejected) {
  run_tasks(fibers(1), 1, [](int) {
    EXPECT_THROW(run_tasks(SchedConfig{}, 1, [](int) {}), UsageError);
  });
}

TEST(SchedBackend, FiberLocalLogLabels) {
  // Each fiber's label must survive arbitrary interleavings with the other
  // fibers on the same OS thread (satellite: fiber-local log labels).
  run_tasks(fibers(1), 4, [](int i) {
    const std::string mine = "fiber " + std::to_string(i);
    set_log_thread_label(mine);
    for (int k = 0; k < 3; ++k) {
      yield();
      EXPECT_EQ(log_detail::thread_label(), mine);
    }
  });
}

TEST(Waiter, ThreadModeParkAndNotify) {
  common::Mutex m;
  Waiter w;
  bool ready = false;
  bool woke = false;
  std::thread t([&] {
    common::MutexLock lock(m);
    while (!ready) {
      ASSERT_TRUE(w.park_until(m, std::chrono::steady_clock::now() + 5s));
    }
    woke = true;
  });
  {
    common::MutexLock lock(m);
    ready = true;
    w.notify();
  }
  t.join();
  EXPECT_TRUE(woke);
}

TEST(Waiter, ThreadModeTimeout) {
  common::Mutex m;
  Waiter w;
  common::MutexLock lock(m);
  EXPECT_FALSE(w.park_until(m, std::chrono::steady_clock::now() + 10ms));
}

TEST(Waiter, FiberParkAndNotify) {
  common::Mutex m;
  Waiter w;
  bool ready = false;
  bool woke = false;
  run_tasks(fibers(1), 2, [&](int i) {
    if (i == 0) {
      common::MutexLock lock(m);
      while (!ready) {
        ASSERT_TRUE(w.park_until(m, std::chrono::steady_clock::now() + 5s));
      }
      woke = true;
    } else {
      common::MutexLock lock(m);
      ready = true;
      w.notify();
    }
  });
  EXPECT_TRUE(woke);
}

TEST(Waiter, NotifyWakesExactlyTheTargetedFiber) {
  // Four fibers park on four distinct waiters; the fifth notifies #2 and
  // the first fiber to resume must be #2 (wake-one targeting, the mailbox's
  // targeted-wakeup contract).
  constexpr int kWaiters = 4;
  common::Mutex m;
  Waiter waiters[kWaiters];
  bool ready[kWaiters] = {};
  std::vector<int> wake_order;
  run_tasks(fibers(1), kWaiters + 1, [&](int i) {
    if (i < kWaiters) {
      common::MutexLock lock(m);
      while (!ready[i]) {
        ASSERT_TRUE(waiters[i].park_until(
            m, std::chrono::steady_clock::now() + 5s));
      }
      wake_order.push_back(i);
    } else {
      m.lock();
      ready[2] = true;
      waiters[2].notify();
      m.unlock();
      yield();  // let #2 run before releasing the rest
      m.lock();
      for (int k = 0; k < kWaiters; ++k) {
        ready[k] = true;
        waiters[k].notify();
      }
      m.unlock();
    }
  });
  ASSERT_EQ(wake_order.size(), static_cast<std::size_t>(kWaiters));
  EXPECT_EQ(wake_order.front(), 2);
}

TEST(Waiter, FiberTimeoutExpiresViaIdleScan) {
  const auto start = std::chrono::steady_clock::now();
  run_tasks(fibers(1), 1, [&](int) {
    common::Mutex m;
    Waiter w;
    common::MutexLock lock(m);
    EXPECT_FALSE(
        w.park_until(m, std::chrono::steady_clock::now() + 20ms));
  });
  // The idle worker scans parked deadlines every 100ms; expiry must land
  // within a couple of scan periods, not hang.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(Waiter, PingPongManyRoundsWithoutLostWakeups) {
  // Each fiber parks only on its own waiter (a Waiter serves one parker —
  // the mailbox contract) and notifies its peer's. 50 rounds on two
  // workers exercise the notify-while-kParking window; a single lost
  // wakeup deadlocks the test.
  common::Mutex m;
  Waiter waiters[2];
  int turn = 0;
  run_tasks(fibers(2), 2, [&](int i) {
    for (int round = 0; round < 50; ++round) {
      common::MutexLock lock(m);
      while (turn % 2 != i) {
        ASSERT_TRUE(waiters[i].park_until(
            m, std::chrono::steady_clock::now() + 5s));
      }
      ++turn;
      waiters[1 - i].notify();
    }
  });
  EXPECT_EQ(turn, 100);
}

TEST(StackPool, MapsAndRecycles) {
  StackPool pool;
  auto a = pool.acquire();
  const auto* base_a = a.base;
  EXPECT_GE(a.usable(), kStackBytes);
  pool.release(a);
  auto b = pool.acquire();
  EXPECT_EQ(b.base, base_a);  // free-list hit
  EXPECT_EQ(pool.mapped(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
  pool.release(b);
}

TEST(StackPool, ReleaseChecksTheGuardWordThenDecommits) {
  StackPool pool;
  StackAllocation s = pool.acquire();
  auto* top = static_cast<std::byte*>(s.top);
  top[-1] = std::byte{0x5a};
  pool.release(s, s.usable());  // used to the bottom page, guard intact
  EXPECT_EQ(top[-1], std::byte{0});  // pooled stacks hold no pages

  s = pool.acquire();
  const std::uint64_t clobbered = 1;
  std::memcpy(s.limit, &clobbered, sizeof(clobbered));
  EXPECT_THROW(pool.release(s, s.usable()), UsageError);
}

}  // namespace
}  // namespace manatee::sched
