// bench_coll_algorithms — sweeps message size × communicator size ×
// algorithm for every collective with selectable algorithms and reports the
// virtual time per operation, marking both the decision heuristic's pick
// and the actually fastest variant. The heuristic is doing its job when the
// two columns agree (or are within noise of each other).
//
//   ./bench_coll_algorithms [--ranks N | --full] [--iters 8]
//                           [--topo SPEC] [--coll-<collective>=<algorithm> ...]
//                           [--json FILE] [--check]
//
// --topo applies a cluster shape (simnet/topology.hpp spec string) to the
// whole table sweep; the default is the historical flat rpn=16 placement.
//
// --json/--check switch to the topology-comparison mode: a fixed world is
// re-run across cluster shapes (single node, two-node flat, oversubscribed
// fat-tree, dragonfly) and the per-shape cells plus the heuristic's picks
// are written as JSON. --check self-gates on virtual-time ratios
// (machine-independent): on every multi-node shape the hierarchical
// allreduce must beat the flat algorithms at large messages, and the
// heuristic must pick it there (and must not pick it on one node).
//
// The --coll-* overrides (common/options) apply on top, demonstrating the
// runtime-selection plumbing end to end.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "simnet/topology.hpp"
#include "umpi/coll/module.hpp"
#include "umpi/group.hpp"
#include "umpi/runtime.hpp"

namespace manatee::bench {
namespace {

using umpi::AppFn;
using umpi::Datatype;
using umpi::Rank;
using umpi::ReduceOp;
using umpi::RuntimeConfig;
using umpi::coll::CollArgs;
using umpi::coll::CollKind;
using umpi::coll::CollTuning;
using umpi::coll::Registry;

struct Sweep {
  CollKind kind;
  /// Builds the per-rank app for one (message size, world) instance.
  std::function<AppFn(std::size_t bytes, int world, int iters)> app;
};

simnet::SimTime run_once(int world, CollKind kind, const std::string& algo,
                         const CollTuning& base, const simnet::TopoSpec& topo,
                         const AppFn& app) {
  simnet::MessageStore::set_wait_timeout_ms(120'000);
  RuntimeConfig config;
  config.world_size = world;
  config.ranks_per_node = 16;
  config.topo = topo;
  config.coll = base;
  config.coll.force(kind, algo);
  umpi::Runtime runtime(config);
  runtime.run(app);
  return runtime.max_clock();
}

AppFn bcast_app(std::size_t bytes, int /*world*/, int iters) {
  return [bytes, iters](Rank& self) {
    std::vector<std::byte> data(bytes);
    for (int i = 0; i < iters; ++i) {
      self.bcast(self.world(), data, i % self.world_size());
    }
  };
}

AppFn allreduce_app(std::size_t bytes, int /*world*/, int iters) {
  return [bytes, iters](Rank& self) {
    const std::size_t n = std::max<std::size_t>(1, bytes / sizeof(double));
    std::vector<double> in(n, 1.0), out(n);
    for (int i = 0; i < iters; ++i) {
      self.allreduce(self.world(), std::as_bytes(std::span(in)),
                     std::as_writable_bytes(std::span(out)), Datatype::kDouble,
                     ReduceOp::kSum);
    }
  };
}

AppFn allgather_app(std::size_t bytes, int world, int iters) {
  return [bytes, world, iters](Rank& self) {
    std::vector<std::byte> mine(bytes);
    std::vector<std::byte> all(bytes * static_cast<std::size_t>(world));
    for (int i = 0; i < iters; ++i) {
      self.allgather(self.world(), mine, all);
    }
  };
}

AppFn alltoall_app(std::size_t bytes, int world, int iters) {
  return [bytes, world, iters](Rank& self) {
    std::vector<std::byte> send(bytes * static_cast<std::size_t>(world));
    std::vector<std::byte> recv(send.size());
    for (int i = 0; i < iters; ++i) {
      self.alltoall(self.world(), send, recv);
    }
  };
}

AppFn reduce_app(std::size_t bytes, int /*world*/, int iters) {
  return [bytes, iters](Rank& self) {
    const std::size_t n = std::max<std::size_t>(1, bytes / sizeof(double));
    std::vector<double> in(n, 1.0), out(n);
    for (int i = 0; i < iters; ++i) {
      self.reduce(self.world(), std::as_bytes(std::span(in)),
                  std::as_writable_bytes(std::span(out)), Datatype::kDouble,
                  ReduceOp::kSum, 0);
    }
  };
}

AppFn barrier_app(std::size_t /*bytes*/, int /*world*/, int iters) {
  return [iters](Rank& self) {
    for (int i = 0; i < iters; ++i) self.barrier(self.world());
  };
}

/// Representative CollArgs for asking the heuristic what it would pick.
CollArgs probe_args(CollKind kind, std::span<std::byte> buf) {
  CollArgs args;
  switch (kind) {
    case CollKind::kBcast:
    case CollKind::kScatter: args.recv = buf; break;
    default: args.send = buf; break;
  }
  return args;
}

/// What the heuristic picks for (kind, bytes) on the world comm of `spec`.
std::string heuristic_pick(CollKind kind, std::size_t bytes, int world,
                           const CollTuning& base,
                           const simnet::TopoSpec& spec) {
  const simnet::Topology topo(world, spec);
  const umpi::coll::CollModule module(
      base, world,
      umpi::coll::make_topo_view(umpi::Group::world(world), topo));
  std::vector<std::byte> probe(bytes);
  return module.select(kind, probe_args(kind, probe)).name;
}

// ---------------------------------------------------------------------------
// Topology-comparison mode (--json / --check): the BENCH_9 axis.
// ---------------------------------------------------------------------------

struct TopoCase {
  std::string label;
  simnet::TopoSpec spec;
  int nodes = 1;
};

std::vector<TopoCase> topo_cases(int world) {
  auto flat = [world](int nodes) {
    simnet::TopoSpec s;
    s.ranks_per_node = world / nodes;
    return s;
  };
  simnet::TopoSpec fat =
      simnet::parse_topo_spec("fattree:group=2,oversub=2");
  fat.ranks_per_node = world / 4;
  simnet::TopoSpec dfly = simnet::parse_topo_spec("dragonfly:group=2,rails=2");
  dfly.ranks_per_node = world / 4;
  return {
      {"flat-1node", flat(1), 1},
      {"flat-2node", flat(2), 2},
      {"fattree-4node-oversub2", fat, 4},
      {"dragonfly-4node", dfly, 4},
  };
}

struct TopoCell {
  std::string topo;
  int nodes = 1;
  std::string coll;
  std::size_t bytes = 0;
  std::string algo;
  double us = 0.0;
};

struct TopoPick {
  std::string topo;
  int nodes = 1;
  std::string coll;
  std::size_t bytes = 0;
  std::string pick;
};

int run_topology_mode(const Options& opts, const CollTuning& base) {
  const int world = static_cast<int>(opts.get_int("ranks", 32));
  if (world % 4 != 0) {
    std::fprintf(stderr, "--ranks must be a multiple of 4 in topology mode\n");
    return 2;
  }
  const int iters = static_cast<int>(opts.get_int("iters", 8));
  const std::vector<std::size_t> sizes{4096, 1u << 20};

  print_header("Collective topology axis: virtual time per operation",
               "cluster shapes × algorithm (hier vs flat variants)");

  const std::vector<Sweep> sweeps{
      {CollKind::kBarrier, barrier_app},
      {CollKind::kBcast, bcast_app},
      {CollKind::kAllreduce, allreduce_app},
  };

  std::vector<TopoCell> cells;
  std::vector<TopoPick> picks;
  std::printf("%-24s %-10s %10s  %-52s %-12s\n", "topology", "collective",
              "msg_size", "per-op virtual time by algorithm [us]", "heuristic");
  for (const auto& tc : topo_cases(world)) {
    for (const auto& sweep : sweeps) {
      for (const std::size_t bytes : sizes) {
        if (sweep.kind == CollKind::kBarrier && bytes != sizes.front()) {
          continue;
        }
        std::string row;
        for (const auto& entry : Registry::instance().entries(sweep.kind)) {
          if (!entry.usable(world, CollArgs{})) continue;
          const auto total = run_once(world, sweep.kind, entry.name, base,
                                      tc.spec, sweep.app(bytes, world, iters));
          const double us =
              static_cast<double>(total) / (1000.0 * static_cast<double>(iters));
          cells.push_back({tc.label, tc.nodes,
                           umpi::coll::coll_name(sweep.kind),
                           sweep.kind == CollKind::kBarrier ? 0 : bytes,
                           entry.name, us});
          char cell[96];
          std::snprintf(cell, sizeof cell, "%s=%.1f ", entry.name.c_str(), us);
          row += cell;
        }
        const std::string pick =
            heuristic_pick(sweep.kind, bytes, world, base, tc.spec);
        picks.push_back({tc.label, tc.nodes, umpi::coll::coll_name(sweep.kind),
                         sweep.kind == CollKind::kBarrier ? 0 : bytes, pick});
        std::printf("%-24s %-10s %10zu  %-52s %-12s\n", tc.label.c_str(),
                    umpi::coll::coll_name(sweep.kind),
                    sweep.kind == CollKind::kBarrier ? 0 : bytes, row.c_str(),
                    pick.c_str());
      }
    }
  }

  if (opts.has("json")) {
    const std::string path = opts.get("json", "");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"world\": %d,\n  \"iters\": %d,\n  \"cells\": [\n",
                 world, iters);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      std::fprintf(f,
                   "    {\"topo\": \"%s\", \"nodes\": %d, \"collective\": "
                   "\"%s\", \"bytes\": %zu, \"algo\": \"%s\", "
                   "\"us_per_op\": %.2f}%s\n",
                   c.topo.c_str(), c.nodes, c.coll.c_str(), c.bytes,
                   c.algo.c_str(), c.us, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"picks\": [\n");
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const auto& p = picks[i];
      std::fprintf(f,
                   "    {\"topo\": \"%s\", \"nodes\": %d, \"collective\": "
                   "\"%s\", \"bytes\": %zu, \"pick\": \"%s\"}%s\n",
                   p.topo.c_str(), p.nodes, p.coll.c_str(), p.bytes,
                   p.pick.c_str(), i + 1 < picks.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  if (opts.has("check")) {
    // Virtual-time gates — deterministic, so no machine tolerance needed.
    bool ok = true;
    auto cell_us = [&cells](const std::string& topo, const char* coll,
                            std::size_t bytes,
                            const std::string& algo) -> double {
      for (const auto& c : cells) {
        if (c.topo == topo && c.coll == coll && c.bytes == bytes &&
            c.algo == algo) {
          return c.us;
        }
      }
      return -1.0;
    };
    for (const auto& tc : topo_cases(world)) {
      const std::size_t big = 1u << 20;
      const double hier = cell_us(tc.label, "allreduce", big, "hier");
      if (tc.nodes >= 2) {
        // Gate 1: hierarchical allreduce beats every flat algorithm on
        // multi-node shapes at large messages.
        for (const auto& c : cells) {
          if (c.topo != tc.label || c.coll != "allreduce" || c.bytes != big ||
              c.algo == "hier") {
            continue;
          }
          if (hier < 0 || hier >= c.us) {
            std::fprintf(stderr,
                         "FAIL: hier allreduce (%.1fus) not faster than %s "
                         "(%.1fus) on %s\n",
                         hier, c.algo.c_str(), c.us, tc.label.c_str());
            ok = false;
          }
        }
      }
      for (const auto& p : picks) {
        if (p.topo != tc.label || p.coll != "allreduce" || p.bytes != big) {
          continue;
        }
        // Gate 2: the heuristic exploits the hierarchy where it exists and
        // only there.
        if (tc.nodes >= 2 && p.pick != "hier") {
          std::fprintf(stderr,
                       "FAIL: heuristic picked %s (not hier) for large "
                       "allreduce on %s\n",
                       p.pick.c_str(), tc.label.c_str());
          ok = false;
        }
        if (tc.nodes == 1 && p.pick == "hier") {
          std::fprintf(stderr,
                       "FAIL: heuristic picked hier on single-node %s\n",
                       tc.label.c_str());
          ok = false;
        }
      }
    }
    if (!ok) return 1;
    std::printf(
        "\ncheck OK: hier allreduce beats flat on every multi-node shape, "
        "and the heuristic picks it there (and only there)\n");
  }
  return 0;
}

int run(int argc, char** argv) {
  const Options opts(argc, argv);
  const CollTuning base = umpi::coll::tuning_from_options(opts);
  if (opts.has("json") || opts.has("check")) {
    return run_topology_mode(opts, base);
  }

  const auto worlds = (opts.has("ranks") || opts.get_bool("full"))
                          ? world_sweep(opts)
                          : std::vector<int>{4, 8, 16, 32};
  const int iters = static_cast<int>(opts.get_int("iters", 8));
  const std::vector<std::size_t> sizes{64, 4096, 65536, 1u << 20};
  simnet::TopoSpec spec;
  if (opts.has("topo")) {
    spec = simnet::parse_topo_spec(opts.get("topo", "flat"));
  }
  if (spec.ranks_per_node == 0) spec.ranks_per_node = 16;

  print_header("Collective algorithm sweep: virtual time per operation",
               "selection layer (src/umpi/coll), Open MPI tuned-style");
  std::printf("topology: %s rpn=%d\n\n", simnet::topo_kind_name(spec.kind),
              spec.ranks_per_node);

  const std::vector<Sweep> sweeps{
      {CollKind::kBarrier, barrier_app},   {CollKind::kBcast, bcast_app},
      {CollKind::kReduce, reduce_app},     {CollKind::kAllreduce, allreduce_app},
      {CollKind::kAllgather, allgather_app},
      {CollKind::kAlltoall, alltoall_app},
  };

  std::printf("%-14s %10s %6s  %-40s %-12s %-12s\n", "collective", "msg_size",
              "ranks", "per-op virtual time by algorithm [us]", "heuristic",
              "fastest");
  for (const auto& sweep : sweeps) {
    for (const std::size_t bytes : sizes) {
      if (sweep.kind == CollKind::kBarrier && bytes != sizes.front()) continue;
      for (const int world : worlds) {
        // Keep the biggest alltoall/allgather instances bounded.
        if ((sweep.kind == CollKind::kAlltoall ||
             sweep.kind == CollKind::kAllgather) &&
            bytes >= (1u << 20) && world > 16) {
          continue;
        }
        std::string cells;
        std::string fastest;
        simnet::SimTime best = 0;
        for (const auto& entry : Registry::instance().entries(sweep.kind)) {
          if (!entry.usable(world, CollArgs{})) continue;
          const auto total = run_once(world, sweep.kind, entry.name, base,
                                      spec, sweep.app(bytes, world, iters));
          const double us =
              static_cast<double>(total) / (1000.0 * static_cast<double>(iters));
          char cell[96];
          std::snprintf(cell, sizeof cell, "%s=%.1f ", entry.name.c_str(), us);
          cells += cell;
          if (fastest.empty() || total < best) {
            best = total;
            fastest = entry.name;
          }
        }
        const std::string picked =
            heuristic_pick(sweep.kind, bytes, world, base, spec);
        std::printf("%-14s %10zu %6d  %-40s %-12s %-12s\n",
                    umpi::coll::coll_name(sweep.kind),
                    sweep.kind == CollKind::kBarrier ? 0 : bytes, world,
                    cells.c_str(), picked.c_str(), fastest.c_str());
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace manatee::bench

int main(int argc, char** argv) { return manatee::bench::run(argc, argv); }
