// Fiber backend under the full UMPI runtime: large multiplexed worlds,
// abort propagation from a throwing fiber rank, and the deadlock watchdog.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>

#include "common/error.hpp"
#include "simnet/mailbox.hpp"
#include "umpi/runtime.hpp"

namespace manatee::umpi {
namespace {

RuntimeConfig fiber_world(int n, int ranks_per_node = 8) {
  RuntimeConfig config;
  config.world_size = n;
  config.ranks_per_node = ranks_per_node;
  return config;
}

template <typename T>
std::span<const std::byte> cspan(const T& v) {
  return std::as_bytes(std::span(&v, 1));
}

template <typename T>
std::span<std::byte> wspan(T& v) {
  return std::as_writable_bytes(std::span(&v, 1));
}

TEST(EventsSmoke, ThousandRankCollectivesDriveStacklessly) {
  // The headline smoke: 1024 simulated ranks multiplexed on the worker
  // pool, running a real barrier + allreduce with full verification. The
  // fan-in waits are served by continuation firings, so at least some
  // parks must be stackless; results matching the threads backend bit for
  // bit is asserted in tests/sched/test_equivalence.cpp.
  simnet::MessageStore::set_wait_timeout_ms(120'000);
  constexpr int kWorld = 1024;
  Runtime runtime(fiber_world(kWorld));
  runtime.run([](Rank& self) {
    self.barrier(self.world());
    const std::int64_t mine = self.world_rank();
    std::int64_t sum = 0;
    self.allreduce(self.world(), cspan(mine), wspan(sum), Datatype::kInt64,
                   ReduceOp::kSum);
    EXPECT_EQ(sum, static_cast<std::int64_t>(kWorld) * (kWorld - 1) / 2);
    self.barrier(self.world());
  });
  const auto& stats = runtime.sched_stats();
  EXPECT_GE(stats.dispatches, static_cast<std::uint64_t>(kWorld));
  EXPECT_LE(stats.stacks_mapped, static_cast<std::uint64_t>(kWorld));
  EXPECT_GT(stats.stackless_parks, 0u);
  EXPECT_GT(runtime.max_clock(), 0);
  simnet::MessageStore::set_wait_timeout_ms(10'000);
}

TEST(EventsSmoke, AbortUnwindsParkedEventDrivenRanks) {
  // A rank faulting mid-collective must unwind peers whose waits are held
  // by a registered watch + armed continuation, not a stackful park.
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  Runtime runtime(fiber_world(8));
  EXPECT_THROW(
      runtime.run([](Rank& self) {
        if (self.world_rank() == 3) throw std::runtime_error("injected fault");
        self.barrier(self.world());
        self.barrier(self.world());
      }),
      std::runtime_error);
  EXPECT_TRUE(runtime.aborted());
}

TEST(FiberRuntime, AbortPropagatesFromThrowingFiberRank) {
  // Satellite: when the throwing rank is a fiber, first_error capture +
  // notify_all_ranks must still unwind every parked peer.
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  Runtime runtime(fiber_world(8));
  EXPECT_THROW(
      runtime.run([](Rank& self) {
        if (self.world_rank() == 3) {
          throw std::runtime_error("boom from fiber rank 3");
        }
        // Everyone else blocks on a message that never arrives; the abort
        // broadcast must wake their parked fibers and unwind them.
        int v = 0;
        self.recv(self.world(), wspan(v), 3, 77);
        FAIL() << "recv should have unwound on peer abort";
      }),
      std::runtime_error);
  EXPECT_TRUE(runtime.aborted());
}

TEST(FiberRuntime, WatchdogFaultsParkedFibers) {
  // The distributed-deadlock watchdog must keep firing when the parked
  // waiters are fibers: deadlines travel with the parked list and the idle
  // worker's periodic scan expires them.
  simnet::MessageStore::set_wait_timeout_ms(300);
  Runtime runtime(fiber_world(2));
  EXPECT_THROW(
      runtime.run([](Rank& self) {
        if (self.world_rank() == 0) {
          int v = 0;
          self.recv(self.world(), wspan(v), 1, 5);  // never sent
        }
      }),
      RuntimeFault);
  simnet::MessageStore::set_wait_timeout_ms(10'000);
}

TEST(FiberRuntime, SingleWorkerRunsWholeWorld) {
  // Pin the pool to one worker: the whole world advances purely by
  // cooperative scheduling — any lost wakeup or missing yield deadlocks.
  simnet::MessageStore::set_wait_timeout_ms(30'000);
  RuntimeConfig config = fiber_world(64);
  config.sched.workers = 1;
  Runtime runtime(config);
  runtime.run([](Rank& self) {
    const std::int64_t mine = 1;
    std::int64_t sum = 0;
    self.allreduce(self.world(), cspan(mine), wspan(sum), Datatype::kInt64,
                   ReduceOp::kSum);
    EXPECT_EQ(sum, 64);
    // Exercise the p2p ring under multiplexing, too.
    const int next = (self.world_rank() + 1) % 64;
    const int prev = (self.world_rank() + 63) % 64;
    int token = self.world_rank();
    int got = -1;
    auto req = self.irecv(self.world(), wspan(got), prev, 9);
    self.send(self.world(), cspan(token), next, 9);
    self.wait(req);
    EXPECT_EQ(got, prev);
  });
  EXPECT_EQ(runtime.sched_stats().workers, 1);
  simnet::MessageStore::set_wait_timeout_ms(10'000);
}

TEST(FiberRuntime, BusyPollTestLoopCannotStarvePeers) {
  // MPI_Test busy loops are legal application code; the miss-path yield in
  // Rank::test must keep the sender runnable on a single worker.
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  RuntimeConfig config = fiber_world(2);
  config.sched.workers = 1;
  Runtime runtime(config);
  runtime.run([](Rank& self) {
    if (self.world_rank() == 0) {
      int v = 0;
      auto req = self.irecv(self.world(), wspan(v), 1, 0);
      while (!self.test(req)) {
      }
      EXPECT_EQ(v, 41);
    } else {
      const int v = 41;
      self.send(self.world(), cspan(v), 0, 0);
    }
  });
}

}  // namespace
}  // namespace manatee::umpi
