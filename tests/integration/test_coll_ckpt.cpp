// Cross-algorithm equivalence of the collective-selection layer under
// checkpoint/restart: for every registered algorithm of the core
// collectives, an integer-arithmetic application must produce
//
//   (a) the same per-rank fingerprints as the default-tuned baseline run
//       (byte-identical results regardless of the selected algorithm), and
//   (b) identical fingerprints when a CC checkpoint is taken mid-run, the
//       job is killed, and a fresh engine restarts from the images while
//       the same algorithm is forced.
//
// This is the acceptance property of the pluggable framework: algorithm
// choice changes only internal message patterns, never results, drain
// behaviour, or replay skip-counting.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "harness/scenario.hpp"
#include "simnet/topology.hpp"
#include "split/engine.hpp"
#include "umpi/coll/module.hpp"

namespace manatee::split {
namespace {

using umpi::coll::CollKind;

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("manatee_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Exact-arithmetic mixed-collective app: every collective folds int64
/// values, so any correct algorithm must produce byte-identical state.
struct CollEquivApp {
  int iterations = 10;
  bool use_nbc = false;

  void run(Api& api, std::uint64_t* fingerprint) const {
    const int rank = api.rank();
    const int size = api.size();
    const auto usize = static_cast<std::size_t>(size);

    std::vector<std::int64_t> state(16);
    std::vector<std::int64_t> tmp(16);
    std::vector<std::int64_t> gathered(usize * 2);
    std::vector<std::int64_t> a2a_in(usize * 2), a2a_out(usize * 2);
    std::vector<std::int64_t> rs_out(2);
    std::int64_t control = 0;

    api.register_state("state", state);
    api.register_state("tmp", tmp);
    api.register_state("gathered", gathered);
    api.register_state("a2a_in", a2a_in);
    api.register_state("a2a_out", a2a_out);
    api.register_state("rs_out", rs_out);
    api.register_value("control", control);

    api.once([&] {
      for (std::size_t i = 0; i < state.size(); ++i) {
        state[i] = 1 + rank + static_cast<int>(i);
      }
    });

    for (int iter = 0; iter < iterations; ++iter) {
      // Allreduce (blocking or non-blocking), exact integer sum.
      if (use_nbc) {
        auto req = api.iallreduce(kWorldComm, std::span<const std::int64_t>(state),
                                  std::span<std::int64_t>(tmp),
                                  umpi::ReduceOp::kSum);
        api.wait(req);
      } else {
        api.allreduce(kWorldComm, std::span<const std::int64_t>(state),
                      std::span<std::int64_t>(tmp), umpi::ReduceOp::kSum);
      }
      api.once([&] {
        for (std::size_t i = 0; i < state.size(); ++i) {
          state[i] = state[i] / 2 + tmp[i] % 100'003;
        }
      });

      // Bcast from a rotating root.
      const int root = iter % size;
      api.once([&] { control = rank == root ? state[0] : 0; });
      api.bcast(kWorldComm, std::span(&control, 1), root);
      api.once([&] { state[1] += control % 1'000; });

      // Allgather of a two-element block.
      api.once([&] {
        tmp[0] = 31 * rank + iter;
        tmp[1] = state[2] % 997;
      });
      api.allgather(kWorldComm, std::span<const std::int64_t>(tmp.data(), 2),
                    std::span<std::int64_t>(gathered));
      api.once([&] {
        for (std::size_t i = 0; i < gathered.size(); ++i) {
          state[2 + (i % 4)] += gathered[i] % 89;
        }
      });

      // Alltoall of two-element blocks.
      api.once([&] {
        for (int j = 0; j < size; ++j) {
          a2a_out[static_cast<std::size_t>(2 * j)] = state[3] + j;
          a2a_out[static_cast<std::size_t>(2 * j) + 1] = rank - j;
        }
      });
      api.alltoall(kWorldComm, std::span<const std::int64_t>(a2a_out),
                   std::span<std::int64_t>(a2a_in));
      api.once([&] {
        for (std::size_t i = 0; i < a2a_in.size(); ++i) {
          state[6 + (i % 4)] += a2a_in[i] % 113;
        }
      });

      // Reduce-scatter of two-element blocks (send = size * recv).
      api.once([&] {
        for (std::size_t i = 0; i < a2a_out.size(); ++i) {
          a2a_out[i] = state[10] % 50 + static_cast<std::int64_t>(i);
        }
      });
      api.reduce_scatter(kWorldComm, std::span<const std::int64_t>(a2a_out),
                         std::span<std::int64_t>(rs_out), umpi::ReduceOp::kSum);
      api.once([&] { state[10] += rs_out[0] % 71 + rs_out[1] % 73; });

      api.barrier(kWorldComm);
    }

    Fingerprint fp;
    fp.add_range<std::int64_t>(state);
    *fingerprint = fp.value();
  }
};

EngineConfig make_config(int world, Protocol protocol, const std::string& dir,
                         std::vector<std::uint64_t> triggers, bool stop,
                         CollKind kind, const std::string& algo) {
  simnet::MessageStore::set_wait_timeout_ms(20'000);
  EngineConfig config;
  config.runtime.world_size = world;
  config.runtime.ranks_per_node = 4;
  if (!algo.empty()) config.runtime.coll.force(kind, algo);
  config.protocol = protocol;
  config.image_dir = dir;
  config.failures.at_collectives = std::move(triggers);
  config.stop_after_checkpoint = stop;
  return config;
}

std::vector<std::uint64_t> run_native(int world, CollKind kind,
                                      const std::string& algo, bool nbc) {
  CollEquivApp app;
  app.use_nbc = nbc;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(world));
  Engine engine(make_config(world, Protocol::kNative, "", {}, false, kind, algo));
  engine.run([&](Api& api) {
    app.run(api, &out[static_cast<std::size_t>(api.rank())]);
  });
  return out;
}

struct AlgoCase {
  CollKind kind;
  const char* algo;
};

/// Every registered algorithm of the core collectives (rdoubling allgather
/// is power-of-two-only and runs in the dedicated pow2 test below). The
/// hier variants run on the default topology — 6 ranks over 2 nodes — so
/// their leader/node-peer phases are genuinely multi-node.
const std::vector<AlgoCase> kCases{
    {CollKind::kBarrier, "dissemination"}, {CollKind::kBarrier, "tree"},
    {CollKind::kBarrier, "hier"},
    {CollKind::kBcast, "linear"},          {CollKind::kBcast, "binomial"},
    {CollKind::kBcast, "ring"},            {CollKind::kBcast, "hier"},
    {CollKind::kAllreduce, "linear"},
    {CollKind::kAllreduce, "rdoubling"},   {CollKind::kAllreduce, "ring"},
    {CollKind::kAllreduce, "hier"},
    {CollKind::kAllgather, "linear"},      {CollKind::kAllgather, "ring"},
    {CollKind::kAlltoall, "pairwise"},     {CollKind::kAlltoall, "bruck"},
    {CollKind::kReduceScatterBlock, "direct"},
    {CollKind::kReduceScatterBlock, "ring"},
};

void check_case(int world, CollKind kind, const std::string& algo, bool nbc,
                const std::vector<std::uint64_t>& baseline) {
  SCOPED_TRACE(std::string(umpi::coll::coll_name(kind)) + "/" + algo +
               (nbc ? " nbc" : "") + " w" + std::to_string(world));

  // (a) Byte-identical results vs the default-tuned baseline.
  const auto native = run_native(world, kind, algo, nbc);
  EXPECT_EQ(native, baseline);

  // (b) Mid-run CC checkpoint, kill, restart with the same forced
  // algorithm: fingerprints must survive the cycle unchanged.
  const auto dir = fresh_dir("collckpt_" + std::string(umpi::coll::coll_name(kind)) +
                             "_" + algo + (nbc ? "_nbc" : ""));
  CollEquivApp app;
  app.use_nbc = nbc;
  {
    Engine engine(
        make_config(world, Protocol::kCC, dir, {13}, true, kind, algo));
    RunReport report;
    try {
      report = engine.run([&](Api& api) {
        std::uint64_t sink = 0;
        app.run(api, &sink);
      });
    } catch (const std::exception& ex) {
      FAIL() << ex.what();
    }
    ASSERT_EQ(report.checkpoints, 1u);
    ASSERT_TRUE(report.stopped_after_checkpoint);
  }
  {
    Engine engine(make_config(world, Protocol::kCC, dir, {}, false, kind, algo));
    std::vector<std::uint64_t> restored(static_cast<std::size_t>(world));
    engine.restart([&](Api& api) {
      app.run(api, &restored[static_cast<std::size_t>(api.rank())]);
    });
    EXPECT_EQ(restored, baseline);
  }
}

TEST(CollAlgorithmCkpt, EveryAlgorithmCheckpointRestartsByteIdentical) {
  const int world = 6;  // non-power-of-two: exercises fixup paths
  const auto baseline = run_native(world, CollKind::kBarrier, "", false);
  for (const auto& c : kCases) {
    check_case(world, c.kind, c.algo, /*nbc=*/false, baseline);
  }
}

TEST(CollAlgorithmCkpt, PowerOfTwoWorldIncludesRdoublingAllgather) {
  const int world = 4;
  const auto baseline = run_native(world, CollKind::kBarrier, "", false);
  check_case(world, CollKind::kAllgather, "rdoubling", false, baseline);
  check_case(world, CollKind::kAllgather, "ring", false, baseline);
}

TEST(CollAlgorithmCkpt, NonBlockingAllreduceAlgorithmsSurviveDrain) {
  // The CC drain of §4.3.2 Test-drives incomplete NBCs to completion; the
  // in-flight message pattern differs per algorithm, the drain must not.
  const int world = 6;
  const auto baseline = run_native(world, CollKind::kBarrier, "", true);
  for (const auto* algo : {"linear", "rdoubling", "ring"}) {
    check_case(world, CollKind::kAllreduce, algo, /*nbc=*/true, baseline);
  }
}

// ---- topology-aware paths ---------------------------------------------------

TEST(CollAlgorithmCkpt, HeuristicSelectionEquivalentAcrossTopologies) {
  // The same app under heuristic selection on every cluster shape — flat
  // single-node, multi-rail flat, tapered fat-tree, dragonfly — must
  // produce byte-identical fingerprints: topology may only change message
  // patterns and timing, never results.
  const int world = 8;
  const auto baseline = run_native(world, CollKind::kBarrier, "", false);
  for (const char* spec :
       {"flat:rpn=8", "flat:rpn=2,rails=2", "fattree:rpn=2,group=2,oversub=2",
        "dragonfly:rpn=2,group=2"}) {
    SCOPED_TRACE(spec);
    EngineConfig config =
        make_config(world, Protocol::kNative, "", {}, false, CollKind::kBarrier, "");
    config.runtime.topo = simnet::parse_topo_spec(spec);
    CollEquivApp app;
    std::vector<std::uint64_t> out(static_cast<std::size_t>(world));
    Engine engine(config);
    engine.run([&](Api& api) {
      app.run(api, &out[static_cast<std::size_t>(api.rank())]);
    });
    EXPECT_EQ(out, baseline);
  }
}

/// CollEquivApp as a harness fingerprint app (lifecycle scenarios below).
harness::FingerprintApp equiv_app() {
  return [](Api& api) {
    CollEquivApp app;
    std::uint64_t fp = 0;
    app.run(api, &fp);
    return fp;
  };
}

TEST(CollAlgorithmCkpt, LifecycleCrashesMidHierAllreduce) {
  // Multi-crash lifecycle chain with hierarchical allreduce/barrier on a
  // 4-node placement: checkpoints land while the leader ring /
  // dissemination phases are in flight across nodes.
  harness::Scenario s;
  s.tag = "life_hier_allreduce";
  s.world = 8;
  s.ranks_per_node = 2;  // 4 nodes: leaders genuinely inter-node
  s.coll.force(CollKind::kAllreduce, "hier");
  s.coll.force(CollKind::kBarrier, "hier");
  s.custom_app = equiv_app();
  s.failures.at_collectives = {7, 15};
  const auto out = harness::expect_scenario_roundtrip(s);
  EXPECT_EQ(out.lifecycle.crashes, 2u);
}

}  // namespace
}  // namespace manatee::split
