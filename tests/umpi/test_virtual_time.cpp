// Virtual-time semantics: determinism across repeated runs, causality of
// message timestamps, intra- vs inter-node effects, and scaling shapes the
// benchmark harnesses rely on.
#include <gtest/gtest.h>

#include <vector>

#include "umpi/runtime.hpp"
#include "umpi_test_util.hpp"

namespace manatee::umpi {
namespace {

using testing::cspan;
using testing::run_world;
using testing::wspan;

simnet::SimTime time_of(int ranks, int ranks_per_node, const AppFn& app) {
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  RuntimeConfig config;
  config.world_size = ranks;
  config.ranks_per_node = ranks_per_node;
  Runtime rt(config);
  rt.run(app);
  return rt.max_clock();
}

TEST(VirtualTime, DeterministicAcrossRuns) {
  const auto app = [](Rank& self) {
    for (int i = 0; i < 10; ++i) {
      std::int64_t x = self.world_rank(), sum = 0;
      self.allreduce(self.world(), cspan(x), wspan(sum), Datatype::kInt64,
                     ReduceOp::kSum);
      self.advance_compute(1000);
    }
  };
  const auto t1 = time_of(8, 4, app);
  const auto t2 = time_of(8, 4, app);
  const auto t3 = time_of(8, 4, app);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t2, t3);
  EXPECT_GT(t1, 0);
}

TEST(VirtualTime, ComputeAdvancesExactly) {
  const auto t = time_of(2, 2, [](Rank& self) { self.advance_compute(12345); });
  EXPECT_EQ(t, 12345);
}

TEST(VirtualTime, ReceiverWaitsForSender) {
  // Receiver at virtual time 0 must end at >= sender's send time + wire time.
  run_world(2, [](Rank& self) {
    if (self.world_rank() == 0) {
      self.advance_compute(1'000'000);  // sender is "late"
      const std::int32_t v = 1;
      self.send(self.world(), cspan(v), 1, 0);
    } else {
      std::int32_t v = 0;
      self.recv(self.world(), wspan(v), 0, 0);
      EXPECT_GT(self.clock().now(), 1'000'000);
    }
  });
}

TEST(VirtualTime, EarlyMessageDoesNotDragReceiverBack) {
  run_world(2, [](Rank& self) {
    if (self.world_rank() == 0) {
      const std::int32_t v = 1;
      self.send(self.world(), cspan(v), 1, 0);  // sent at ~0
    } else {
      self.advance_compute(5'000'000);  // receiver is "late"
      std::int32_t v = 0;
      self.recv(self.world(), wspan(v), 0, 0);
      // Arrival is in the receiver's past; only recv overhead is charged.
      EXPECT_LT(self.clock().now(), 5'100'000);
      EXPECT_GE(self.clock().now(), 5'000'000);
    }
  });
}

TEST(VirtualTime, BarrierSynchronizesClocks) {
  auto rt = run_world(4, [](Rank& self) {
    // Rank 2 is far ahead; after the barrier everyone must be at least as
    // late as rank 2 was.
    if (self.world_rank() == 2) self.advance_compute(10'000'000);
    self.barrier(self.world());
    EXPECT_GE(self.clock().now(), 10'000'000);
  });
  EXPECT_GE(rt->max_clock(), 10'000'000);
}

TEST(VirtualTime, CrossNodeBarrierCostsMore) {
  // The premise (same software message schedule, pricier links) only holds
  // for a fixed algorithm: pin dissemination so the topology-aware
  // heuristic can never run the two placements on different schedules.
  const auto app = [](Rank& self) {
    for (int i = 0; i < 20; ++i) self.barrier(self.world());
  };
  const auto time_pinned = [&](int ranks_per_node) {
    simnet::MessageStore::set_wait_timeout_ms(10'000);
    RuntimeConfig config;
    config.world_size = 8;
    config.ranks_per_node = ranks_per_node;
    config.coll.force(coll::CollKind::kBarrier, "dissemination");
    Runtime rt(config);
    rt.run(app);
    return rt.max_clock();
  };
  const auto single_node = time_pinned(8);
  const auto multi_node = time_pinned(1);
  EXPECT_GT(multi_node, single_node);
}

TEST(VirtualTime, BarrierScalesLogarithmically) {
  const auto app = [](Rank& self) {
    for (int i = 0; i < 10; ++i) self.barrier(self.world());
  };
  const auto t4 = time_of(4, 1, app);
  const auto t16 = time_of(16, 1, app);
  EXPECT_GT(t16, t4);
  // Dissemination is log2(p) rounds: 16 ranks (4 rounds) should cost roughly
  // 2x of 4 ranks (2 rounds), certainly less than the 4x of linear scaling.
  EXPECT_LT(static_cast<double>(t16), 3.0 * static_cast<double>(t4));
}

TEST(VirtualTime, LargeMessagesBandwidthBound) {
  std::vector<std::byte> big(1 << 20);
  const auto app_big = [&](Rank& self) {
    std::vector<std::byte> data(1 << 20);
    self.bcast(self.world(), data, 0);
  };
  const auto app_small = [](Rank& self) {
    std::vector<std::byte> data(4);
    self.bcast(self.world(), data, 0);
  };
  const auto t_big = time_of(4, 1, app_big);
  const auto t_small = time_of(4, 1, app_small);
  EXPECT_GT(t_big, 10 * t_small);
}

TEST(VirtualTime, MakespanIsMaxOverRanks) {
  auto rt = run_world(3, [](Rank& self) {
    self.advance_compute(1000 * (self.world_rank() + 1));
  });
  EXPECT_EQ(rt->max_clock(), 3000);
}

TEST(VirtualTime, PollingTestDoesNotAdvanceClock) {
  // Failed test() polls are free in virtual time (determinism depends on it).
  run_world(2, [](Rank& self) {
    if (self.world_rank() == 0) {
      std::int32_t v = 0;
      auto req = self.irecv(self.world(), wspan(v), 1, 0);
      const auto before = self.clock().now();
      for (int i = 0; i < 1000; ++i) {
        if (self.test(req)) break;
      }
      // Either still pending (no time charged) or completed (arrival merge
      // + recv overhead only).
      if (!req.is_null()) {
        EXPECT_EQ(self.clock().now(), before);
        self.wait(req);
      }
    } else {
      self.advance_compute(100'000);
      const std::int32_t v = 9;
      self.send(self.world(), cspan(v), 0, 0);
    }
  });
}

}  // namespace
}  // namespace manatee::umpi
