// Cross-algorithm equivalence property tests for the pluggable collective
// framework (src/umpi/coll): every registered algorithm for a collective
// must produce byte-identical results to the linear baseline. Inputs are
// integers (and would be exactly-representable doubles), so reduction
// reassociation cannot perturb bits and byte equality is the right oracle.
//
// Also covers the registry/module plumbing itself: name parsing, forced
// selection, inapplicable-override errors, heuristic size thresholds, and
// --coll-* option parsing.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "umpi/coll/module.hpp"
#include "umpi/runtime.hpp"
#include "umpi_test_util.hpp"

namespace manatee::umpi {
namespace {

using coll::CollArgs;
using coll::CollKind;
using coll::CollTuning;
using coll::Registry;
using testing::cspan;
using testing::wspan;

/// Worlds exercised for every (collective, algorithm) pair: powers of two,
/// non-powers, odd, single rank.
const std::vector<int> kWorlds{1, 2, 3, 4, 5, 7, 8};

/// Algorithms registered for `kind` that can run on a communicator of
/// `world` ranks (predicates in this codebase depend only on comm size).
std::vector<std::string> algorithms_for(CollKind kind, int world) {
  std::vector<std::string> names;
  for (const auto& entry : Registry::instance().entries(kind)) {
    if (entry.usable(world, CollArgs{})) names.push_back(entry.name);
  }
  return names;
}

void run_forced(int world, CollKind kind, const std::string& algo,
                const AppFn& app) {
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  RuntimeConfig config;
  config.world_size = world;
  config.ranks_per_node = 4;
  config.coll.force(kind, algo);
  Runtime runtime(config);
  runtime.run(app);
}

/// Runs `app` under every registered algorithm of `kind`, for every world
/// size; `app` must assert the exact expected bytes itself.
void sweep(CollKind kind, const std::function<void(Rank&, int)>& app) {
  for (const int world : kWorlds) {
    for (const auto& algo : algorithms_for(kind, world)) {
      SCOPED_TRACE(std::string(coll::coll_name(kind)) + "/" + algo + " w" +
                   std::to_string(world));
      run_forced(world, kind, algo, [&](Rank& self) { app(self, world); });
    }
  }
}

constexpr int kCount = 5;  ///< elements per rank in the sweeps

TEST(CollAlgorithms, RegistryHasAtLeastTwoPerCoreCollective) {
  for (const auto kind :
       {CollKind::kBarrier, CollKind::kBcast, CollKind::kReduce,
        CollKind::kAllreduce, CollKind::kGather, CollKind::kScatter,
        CollKind::kAllgather, CollKind::kAlltoall, CollKind::kScan,
        CollKind::kReduceScatterBlock}) {
    EXPECT_GE(Registry::instance().entries(kind).size(), 2u)
        << coll::coll_name(kind);
  }
}

TEST(CollAlgorithms, BarrierEveryAlgorithmCompletes) {
  sweep(CollKind::kBarrier, [](Rank& self, int) {
    for (int i = 0; i < 3; ++i) self.barrier(self.world());
  });
}

TEST(CollAlgorithms, BcastEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kBcast, [](Rank& self, int p) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int64_t> data(kCount);
      std::vector<std::int64_t> expected(kCount);
      for (int i = 0; i < kCount; ++i) {
        expected[static_cast<std::size_t>(i)] = 100 * root + i;
      }
      data.assign(kCount, -1);
      if (self.world_rank() == root) data = expected;
      self.bcast(self.world(), wspan(data), root);
      EXPECT_EQ(data, expected);
    }
  });
}

TEST(CollAlgorithms, ReduceEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kReduce, [](Rank& self, int p) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int64_t> mine(kCount);
      for (int i = 0; i < kCount; ++i) {
        mine[static_cast<std::size_t>(i)] = self.world_rank() + i + 1;
      }
      std::vector<std::int64_t> out(kCount, -1);
      self.reduce(self.world(), cspan(mine), wspan(out), Datatype::kInt64,
                  ReduceOp::kSum, root);
      if (self.world_rank() == root) {
        for (int i = 0; i < kCount; ++i) {
          const std::int64_t expected =
              static_cast<std::int64_t>(p) * (p - 1) / 2 +
              static_cast<std::int64_t>(p) * (i + 1);
          EXPECT_EQ(out[static_cast<std::size_t>(i)], expected);
        }
      }
    }
  });
}

TEST(CollAlgorithms, AllreduceEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kAllreduce, [](Rank& self, int p) {
    // Doubles holding small integers: every fold order is exact, so byte
    // equality must hold for all algorithms.
    std::vector<double> mine(kCount);
    for (int i = 0; i < kCount; ++i) {
      mine[static_cast<std::size_t>(i)] = self.world_rank() * 2.0 + i;
    }
    std::vector<double> out(kCount, -1.0);
    self.allreduce(self.world(), cspan(mine), wspan(out), Datatype::kDouble,
                   ReduceOp::kSum);
    for (int i = 0; i < kCount; ++i) {
      const double expected = static_cast<double>(p) * (p - 1) +
                              static_cast<double>(p) * i;
      EXPECT_EQ(out[static_cast<std::size_t>(i)], expected);
    }
    // Max as a second operator (order-insensitive for any algorithm).
    std::vector<std::int64_t> v{self.world_rank() + 7};
    std::vector<std::int64_t> m(1);
    self.allreduce(self.world(), cspan(v), wspan(m), Datatype::kInt64,
                   ReduceOp::kMax);
    EXPECT_EQ(m[0], p - 1 + 7);
  });
}

TEST(CollAlgorithms, GatherEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kGather, [](Rank& self, int p) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int32_t> mine(kCount);
      for (int i = 0; i < kCount; ++i) {
        mine[static_cast<std::size_t>(i)] = 1000 * self.world_rank() + i;
      }
      std::vector<std::int32_t> out(
          static_cast<std::size_t>(p) * kCount, -1);
      self.gather(self.world(), cspan(mine), wspan(out), root);
      if (self.world_rank() == root) {
        for (int r = 0; r < p; ++r) {
          for (int i = 0; i < kCount; ++i) {
            EXPECT_EQ(out[static_cast<std::size_t>(r) * kCount +
                          static_cast<std::size_t>(i)],
                      1000 * r + i);
          }
        }
      }
    }
  });
}

TEST(CollAlgorithms, ScatterEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kScatter, [](Rank& self, int p) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int32_t> all(static_cast<std::size_t>(p) * kCount);
      std::iota(all.begin(), all.end(), 10 * root);
      std::vector<std::int32_t> mine(kCount, -1);
      self.scatter(self.world(), cspan(all), wspan(mine), root);
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(mine[static_cast<std::size_t>(i)],
                  10 * root + self.world_rank() * kCount + i);
      }
    }
  });
}

TEST(CollAlgorithms, AllgatherEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kAllgather, [](Rank& self, int p) {
    std::vector<std::int64_t> mine(kCount);
    for (int i = 0; i < kCount; ++i) {
      mine[static_cast<std::size_t>(i)] = 77 * self.world_rank() + i;
    }
    std::vector<std::int64_t> out(static_cast<std::size_t>(p) * kCount, -1);
    self.allgather(self.world(), cspan(mine), wspan(out));
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(r) * kCount +
                      static_cast<std::size_t>(i)],
                  77 * r + i);
      }
    }
  });
}

TEST(CollAlgorithms, AlltoallEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kAlltoall, [](Rank& self, int p) {
    // Block sent from r to j encodes (r, j): catches any routing slip.
    std::vector<std::int32_t> send(static_cast<std::size_t>(p) * kCount);
    for (int j = 0; j < p; ++j) {
      for (int i = 0; i < kCount; ++i) {
        send[static_cast<std::size_t>(j) * kCount + static_cast<std::size_t>(i)] =
            10'000 * self.world_rank() + 100 * j + i;
      }
    }
    std::vector<std::int32_t> recv(send.size(), -1);
    self.alltoall(self.world(), cspan(send), wspan(recv));
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(r) * kCount +
                       static_cast<std::size_t>(i)],
                  10'000 * r + 100 * self.world_rank() + i);
      }
    }
  });
}

TEST(CollAlgorithms, ScanEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kScan, [](Rank& self, int) {
    std::vector<std::int64_t> mine{self.world_rank() + 1, 10};
    std::vector<std::int64_t> out(2, -1);
    self.scan(self.world(), cspan(mine), wspan(out), Datatype::kInt64,
              ReduceOp::kSum);
    const std::int64_t r = self.world_rank();
    EXPECT_EQ(out[0], (r + 1) * (r + 2) / 2);
    EXPECT_EQ(out[1], 10 * (r + 1));
  });
}

TEST(CollAlgorithms, ReduceScatterEveryAlgorithmMatchesBaseline) {
  sweep(CollKind::kReduceScatterBlock, [](Rank& self, int p) {
    std::vector<std::int64_t> send(static_cast<std::size_t>(p) * kCount);
    for (int j = 0; j < p; ++j) {
      for (int i = 0; i < kCount; ++i) {
        send[static_cast<std::size_t>(j) * kCount + static_cast<std::size_t>(i)] =
            self.world_rank() + 3 * j + i;
      }
    }
    std::vector<std::int64_t> out(kCount, -1);
    self.reduce_scatter_block(self.world(), cspan(send), wspan(out),
                              Datatype::kInt64, ReduceOp::kSum);
    const int me = self.world_rank();
    for (int i = 0; i < kCount; ++i) {
      const std::int64_t expected =
          static_cast<std::int64_t>(p) * (p - 1) / 2 +
          static_cast<std::int64_t>(p) * (3 * me + i);
      EXPECT_EQ(out[static_cast<std::size_t>(i)], expected);
    }
  });
}

TEST(CollAlgorithms, GathervVaryingCounts) {
  sweep(CollKind::kGatherv, [](Rank& self, int p) {
    // Rank r contributes r+1 elements.
    const int me = self.world_rank();
    std::vector<std::int32_t> mine(static_cast<std::size_t>(me) + 1);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = 100 * me + static_cast<int>(i);
    }
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts.push_back(static_cast<std::size_t>(r + 1) * sizeof(std::int32_t));
      displs.push_back(total);
      total += counts.back();
    }
    const int root = p - 1;
    std::vector<std::int32_t> out(total / sizeof(std::int32_t), -1);
    self.gatherv(self.world(), cspan(mine), wspan(out), counts, displs, root);
    if (me == root) {
      std::size_t idx = 0;
      for (int r = 0; r < p; ++r) {
        for (int i = 0; i <= r; ++i) EXPECT_EQ(out[idx++], 100 * r + i);
      }
    }
  });
}

TEST(CollAlgorithms, AllgathervVaryingCounts) {
  sweep(CollKind::kAllgatherv, [](Rank& self, int p) {
    const int me = self.world_rank();
    std::vector<std::int32_t> mine(static_cast<std::size_t>(me) + 1);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = 100 * me + static_cast<int>(i);
    }
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts.push_back(static_cast<std::size_t>(r + 1) * sizeof(std::int32_t));
      displs.push_back(total);
      total += counts.back();
    }
    std::vector<std::int32_t> out(total / sizeof(std::int32_t), -1);
    self.allgatherv(self.world(), cspan(mine), wspan(out), counts, displs);
    std::size_t idx = 0;
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i <= r; ++i) EXPECT_EQ(out[idx++], 100 * r + i);
    }
  });
}

TEST(CollAlgorithms, AlltoallvVaryingCounts) {
  sweep(CollKind::kAlltoallv, [](Rank& self, int p) {
    // Rank r sends j+1 elements to rank j, so rank j receives r-independent
    // j+1-element blocks from every r.
    const int me = self.world_rank();
    std::vector<std::size_t> scounts, sdispls, rcounts, rdispls;
    std::size_t stotal = 0, rtotal = 0;
    for (int j = 0; j < p; ++j) {
      scounts.push_back(static_cast<std::size_t>(j + 1) * sizeof(std::int32_t));
      sdispls.push_back(stotal);
      stotal += scounts.back();
      rcounts.push_back(static_cast<std::size_t>(me + 1) * sizeof(std::int32_t));
      rdispls.push_back(rtotal);
      rtotal += rcounts.back();
    }
    std::vector<std::int32_t> send(stotal / sizeof(std::int32_t));
    std::size_t idx = 0;
    for (int j = 0; j < p; ++j) {
      for (int i = 0; i <= j; ++i) send[idx++] = 10'000 * me + 100 * j + i;
    }
    std::vector<std::int32_t> recv(rtotal / sizeof(std::int32_t), -1);
    self.alltoallv(self.world(), cspan(send), scounts, sdispls, wspan(recv),
                   rcounts, rdispls);
    idx = 0;
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i <= me; ++i) {
        EXPECT_EQ(recv[idx++], 10'000 * r + 100 * me + i);
      }
    }
  });
}

TEST(CollAlgorithms, NonBlockingRespectsForcedAlgorithm) {
  for (const auto& algo : {"linear", "rdoubling", "ring"}) {
    run_forced(5, CollKind::kAllreduce, algo, [](Rank& self) {
      std::vector<std::int64_t> mine{self.world_rank() + 1};
      std::vector<std::int64_t> out(1, -1);
      Request req = self.iallreduce(self.world(), cspan(mine), wspan(out),
                                    Datatype::kInt64, ReduceOp::kSum);
      self.wait(req);
      EXPECT_EQ(out[0], 15);
    });
  }
}

TEST(CollAlgorithms, InternalBookkeepingCollectivesIgnoreForcedTuning) {
  // comm_split/comm_dup run internal allgather/bcast; a user-forced
  // algorithm that is inapplicable on some communicator (rdoubling
  // allgather on 6 ranks) must not break communicator management, but must
  // still apply (and fail loudly) for the user's own collectives.
  run_forced(6, CollKind::kAllgather, "rdoubling", [](Rank& self) {
    const CommPtr half =
        self.comm_split(self.world(), self.world_rank() % 2, self.world_rank());
    ASSERT_NE(half, nullptr);
    EXPECT_EQ(half->size(), 3);
    std::vector<std::int64_t> mine{self.world_rank()};
    std::vector<std::int64_t> all(6);
    EXPECT_THROW(self.allgather(self.world(), cspan(mine), wspan(all)),
                 UsageError);
  });
}

// ---- registry / module plumbing --------------------------------------------

TEST(CollModule, ParseCollNames) {
  CollKind kind;
  EXPECT_TRUE(coll::parse_coll_name("bcast", &kind));
  EXPECT_EQ(kind, CollKind::kBcast);
  EXPECT_TRUE(coll::parse_coll_name("reduce-scatter", &kind));
  EXPECT_EQ(kind, CollKind::kReduceScatterBlock);
  EXPECT_FALSE(coll::parse_coll_name("bogus", &kind));
}

TEST(CollModule, ForcedSelectionIsHonored) {
  CollTuning tuning;
  tuning.force(CollKind::kBcast, "ring");
  const coll::CollModule module(tuning, 8);
  EXPECT_EQ(module.select(CollKind::kBcast, CollArgs{}).name, "ring");
}

TEST(CollModule, UnknownForcedAlgorithmThrows) {
  CollTuning tuning;
  tuning.force(CollKind::kBcast, "quantum");
  const coll::CollModule module(tuning, 8);
  EXPECT_THROW((void)module.select(CollKind::kBcast, CollArgs{}), UsageError);
}

TEST(CollModule, InapplicableForcedAlgorithmThrows) {
  CollTuning tuning;
  tuning.force(CollKind::kAllgather, "rdoubling");  // needs a power of two
  const coll::CollModule module(tuning, 6);
  EXPECT_THROW((void)module.select(CollKind::kAllgather, CollArgs{}),
               UsageError);
}

TEST(CollModule, HeuristicSwitchesOnMessageSize) {
  const coll::CollModule module(CollTuning{}, 16);
  std::vector<std::byte> small(64), large(1 << 20);

  CollArgs ar;
  ar.send = small;
  EXPECT_EQ(module.select(CollKind::kAllreduce, ar).name, "rdoubling");
  ar.send = large;
  EXPECT_EQ(module.select(CollKind::kAllreduce, ar).name, "ring");

  CollArgs red;
  red.send = small;
  EXPECT_EQ(module.select(CollKind::kReduce, red).name, "binomial");
  red.send = large;
  EXPECT_EQ(module.select(CollKind::kReduce, red).name, "linear");

  CollArgs a2a;
  a2a.send = small;
  EXPECT_EQ(module.select(CollKind::kAlltoall, a2a).name, "bruck");
  a2a.send = large;
  EXPECT_EQ(module.select(CollKind::kAlltoall, a2a).name, "pairwise");
}

TEST(CollModule, HeuristicSwitchesOnCommSize) {
  CollArgs args;
  std::vector<std::byte> buf(64);
  args.send = buf;
  const coll::CollModule tiny(CollTuning{}, 2);
  EXPECT_EQ(tiny.select(CollKind::kGather, args).name, "linear");
  const coll::CollModule big(CollTuning{}, 32);
  EXPECT_EQ(big.select(CollKind::kGather, args).name, "binomial");

  args.recv = buf;
  const coll::CollModule mid(CollTuning{}, 16);
  EXPECT_EQ(mid.select(CollKind::kBcast, args).name, "linear");
  const coll::CollModule huge(CollTuning{}, 64);
  EXPECT_EQ(huge.select(CollKind::kBcast, args).name, "binomial");
}

TEST(CollModule, TopologyAwareSelectionPrefersHier) {
  coll::TopoView view;
  view.node_count = 4;
  view.max_node_ranks = 4;
  const coll::CollModule module(CollTuning{}, 16, view);
  std::vector<std::byte> small(64);

  EXPECT_EQ(module.select(CollKind::kBarrier, CollArgs{}).name, "hier");
  CollArgs bcast;
  bcast.recv = small;
  EXPECT_EQ(module.select(CollKind::kBcast, bcast).name, "hier");
  CollArgs red;
  red.send = small;
  EXPECT_EQ(module.select(CollKind::kReduce, red).name, "hier");
  EXPECT_EQ(module.select(CollKind::kAllreduce, red).name, "hier");
}

TEST(CollModule, SingleNodeViewStaysFlat) {
  // One node (or one rank per node) has no hierarchy to exploit: the
  // topology-blind heuristics must be unchanged.
  coll::TopoView one_node;
  one_node.node_count = 1;
  one_node.max_node_ranks = 16;
  const coll::CollModule module(CollTuning{}, 16, one_node);
  EXPECT_EQ(module.select(CollKind::kBarrier, CollArgs{}).name, "dissemination");

  coll::TopoView spread;  // 16 ranks over 16 nodes: comm_size == node_count
  spread.node_count = 16;
  spread.max_node_ranks = 1;
  const coll::CollModule flat(CollTuning{}, 16, spread);
  EXPECT_EQ(flat.select(CollKind::kBarrier, CollArgs{}).name, "dissemination");
}

TEST(CollModule, RootedCollectiveVolumeIsNormalizedToTheRoot) {
  // Regression: gather/scatter used to compare the *per-peer* buffer size
  // against the large-message threshold, while their root actually moves
  // per-peer x p bytes — so a gather could stay on the binomial tree (which
  // concentrates whole subtree payloads through inner nodes) long past the
  // point where the volume-bound linear algorithm wins.
  CollTuning tuning;
  tuning.large_message_bytes = 64 * 1024;
  const coll::CollModule module(tuning, 32);
  std::vector<std::byte> per_peer(4 * 1024);  // 4 KiB x 32 ranks = 128 KiB total

  CollArgs gather;
  gather.send = per_peer;
  EXPECT_EQ(module.select(CollKind::kGather, gather).name, "linear");
  CollArgs scatter;
  scatter.recv = per_peer;
  EXPECT_EQ(module.select(CollKind::kScatter, scatter).name, "linear");

  std::vector<std::byte> tiny(64);  // 2 KiB total: tree still wins
  gather.send = tiny;
  EXPECT_EQ(module.select(CollKind::kGather, gather).name, "binomial");
}

TEST(CollModule, DerivedCommunicatorsInheritTuning) {
  // Regression: comm_dup/split/create used to leave the derived comm with
  // a default-tuned module, silently dropping forced --coll-* choices.
  run_forced(6, CollKind::kBcast, "ring", [](Rank& self) {
    const CommPtr dup = self.comm_dup(self.world());
    ASSERT_NE(dup->coll_module, nullptr);
    CollArgs args;
    std::vector<std::byte> buf(64);
    args.recv = buf;
    EXPECT_EQ(dup->coll_module->select(CollKind::kBcast, args).name, "ring");

    const CommPtr half =
        self.comm_split(self.world(), self.world_rank() % 2, self.world_rank());
    ASSERT_NE(half->coll_module, nullptr);
    EXPECT_EQ(half->coll_module->select(CollKind::kBcast, args).name, "ring");
    // And the topology view is recomputed for the *derived* group, not
    // copied from the parent.
    EXPECT_LE(half->coll_module->topo_view().node_count,
              self.world()->coll_module->topo_view().node_count);
  });
}

TEST(CollAlgorithms, ForcedTuningAppliesOnDerivedComms) {
  // The user-visible face of tuning propagation: an allgather algorithm
  // that is inapplicable on the derived communicator's size must now fail
  // loudly there too (it used to silently fall back to the heuristic).
  run_forced(8, CollKind::kAllgather, "rdoubling", [](Rank& self) {
    const CommPtr third =
        self.comm_split(self.world(), self.world_rank() % 3, self.world_rank());
    ASSERT_NE(third, nullptr);
    if (third->size() == 3) {  // non-power-of-two: rdoubling inapplicable
      std::vector<std::int64_t> mine{self.world_rank()};
      std::vector<std::int64_t> all(3);
      EXPECT_THROW(self.allgather(third, cspan(mine), wspan(all)), UsageError);
    }
  });
}

TEST(CollAlgorithms, RailAllreduceMatchesBaselineOnEvenLayouts) {
  // 8 ranks x 2 per node = 4 nodes hosting equal counts: forced "hier"
  // takes the rail-parallel path (intra reduce-scatter, per-plane inter
  // ring, intra allgather). 13 elements divide unevenly by both the node
  // size (2) and the plane count (4), so every uneven-block boundary of
  // the two-level partition is exercised.
  simnet::MessageStore::set_wait_timeout_ms(10'000);
  RuntimeConfig config;
  config.world_size = 8;
  config.ranks_per_node = 2;
  config.coll.force(CollKind::kAllreduce, "hier");
  Runtime runtime(config);
  runtime.run([](Rank& self) {
    constexpr int kN = 13;
    std::vector<std::int64_t> mine(kN), out(kN, -1);
    for (int i = 0; i < kN; ++i) {
      mine[static_cast<std::size_t>(i)] = (self.world_rank() + 1) * (i + 1);
    }
    self.allreduce(self.world(), cspan(mine), wspan(out), Datatype::kInt64,
                   ReduceOp::kSum);
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)], 36 * (i + 1));  // sum 1..8
    }
  });
}

TEST(CollModule, OptionsOverrideTuning) {
  std::vector<const char*> argv{"prog", "--coll-bcast=ring",
                                "--coll-allreduce=linear",
                                "--coll-large-message-bytes=128"};
  const Options options(static_cast<int>(argv.size()),
                        const_cast<char**>(argv.data()));
  const CollTuning tuning = coll::tuning_from_options(options);
  EXPECT_EQ(tuning.forced_for(CollKind::kBcast), "ring");
  EXPECT_EQ(tuning.forced_for(CollKind::kAllreduce), "linear");
  EXPECT_TRUE(tuning.forced_for(CollKind::kBarrier).empty());
  EXPECT_EQ(tuning.large_message_bytes, 128u);
}

TEST(CollModule, UnknownOptionAlgorithmThrows) {
  std::vector<const char*> argv{"prog", "--coll-barrier=bogus"};
  const Options options(static_cast<int>(argv.size()),
                        const_cast<char**>(argv.data()));
  EXPECT_THROW(coll::tuning_from_options(options), UsageError);
}

TEST(CollModule, RemovedSwitchAlgorithmIsRejected) {
  // The deleted in-switch barrier/bcast must be rejected like any unknown
  // algorithm.
  for (const char* flag : {"--coll-barrier=switch", "--coll-bcast=switch"}) {
    std::vector<const char*> argv{"prog", flag};
    const Options options(static_cast<int>(argv.size()),
                          const_cast<char**>(argv.data()));
    CollTuning tuning;
    EXPECT_THROW(coll::apply_coll_options(tuning, options), UsageError) << flag;
  }
}

}  // namespace
}  // namespace manatee::umpi
