// topology.hpp — cluster topology model: named cluster shapes and path costs.
//
// The paper's experiments place 128 MPI processes per Perlmutter node; the
// intra- vs inter-node distinction drives both the cost model (Slingshot
// hop vs shared-memory copy) and the paper's Fig. 8 discussion (the 256-rank
// dip at the first multi-node point). Beyond the flat ranks-per-node model,
// a Topology can describe multi-rail node groups, a fat-tree with per-level
// link costs, or dragonfly groups; the fabric charges transfers through
// path() — hop count and bandwidth scale of the route — instead of the old
// binary same-node check, and the collective selection layer consults
// node_count()/spec() to pick hierarchical algorithms.
#pragma once

#include <string>

#include "common/error.hpp"

namespace manatee::simnet {

/// Named cluster shapes. kFlat is a single switch (every inter-node route
/// is one hop); kFatTree groups nodes under leaf switches with a spine
/// above (cross-group routes climb leaf→spine→leaf and see the uplink
/// oversubscription); kDragonfly groups nodes into all-to-all-connected
/// groups (cross-group routes take one local plus one global hop).
enum class TopoKind : int { kFlat = 0, kFatTree = 1, kDragonfly = 2 };

[[nodiscard]] const char* topo_kind_name(TopoKind kind) noexcept;

/// Declarative topology description (part of the job configuration, like
/// world_size — identical across ranks by construction).
struct TopoSpec {
  TopoKind kind = TopoKind::kFlat;
  /// Ranks packed per node; 0 = inherit the runtime's ranks_per_node.
  int ranks_per_node = 0;
  /// Parallel inter-node rails (NICs) per node; scales injection bandwidth
  /// of every inter-node route.
  int rails = 1;
  /// Nodes per leaf pod (fat-tree) / per group (dragonfly); 0 = all nodes
  /// in one group (both shapes then degenerate to a 1-hop flat switch).
  int nodes_per_group = 0;
  /// Fat-tree uplink taper: cross-group bandwidth is divided by this
  /// (1.0 = full bisection).
  double oversubscription = 1.0;
};

/// Parse a topology description string, e.g. "flat", "flat:rpn=16,rails=2",
/// "fattree:rpn=8,group=4,oversub=2", "dragonfly:rpn=8,group=2".
/// Unknown shapes or keys throw UsageError.
[[nodiscard]] TopoSpec parse_topo_spec(const std::string& text);

/// The route between two world ranks, as the cost model prices it.
struct PathCost {
  int hops = 0;           ///< inter-node switch hops (0 = shared memory)
  double bw_scale = 1.0;  ///< multiplier on the inter-node bandwidth term
  bool same_node = true;
};

class Topology {
 public:
  /// Flat shape shorthand (the historical constructor).
  /// `ranks_per_node == 0` is invalid; one rank per node is allowed.
  Topology(int world_size, int ranks_per_node)
      : Topology(world_size, make_flat(ranks_per_node)) {}

  Topology(int world_size, TopoSpec spec) : world_size_(world_size), spec_(spec) {
    MANATEE_REQUIRE(world_size > 0, "world size must be positive");
    MANATEE_REQUIRE(spec_.ranks_per_node > 0, "ranks per node must be positive");
    MANATEE_REQUIRE(spec_.rails >= 1, "a node needs at least one rail");
    MANATEE_REQUIRE(spec_.nodes_per_group >= 0, "nodes per group must be >= 0");
    MANATEE_REQUIRE(spec_.oversubscription >= 1.0,
                    "oversubscription below 1 would create bandwidth");
  }

  [[nodiscard]] int world_size() const noexcept { return world_size_; }
  [[nodiscard]] int ranks_per_node() const noexcept { return spec_.ranks_per_node; }
  [[nodiscard]] const TopoSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] int node_of(int world_rank) const noexcept {
    return world_rank / spec_.ranks_per_node;
  }

  [[nodiscard]] bool same_node(int a, int b) const noexcept {
    return node_of(a) == node_of(b);
  }

  [[nodiscard]] int node_count() const noexcept {
    return (world_size_ + spec_.ranks_per_node - 1) / spec_.ranks_per_node;
  }

  /// Leaf pod (fat-tree) / group (dragonfly) of a node.
  [[nodiscard]] int group_of_node(int node) const noexcept {
    return spec_.nodes_per_group > 0 ? node / spec_.nodes_per_group : 0;
  }

  [[nodiscard]] int group_count() const noexcept {
    if (spec_.nodes_per_group <= 0) return 1;
    return (node_count() + spec_.nodes_per_group - 1) / spec_.nodes_per_group;
  }

  /// Route between two world ranks. Same node: shared memory (0 hops).
  /// Same group: one leaf/local switch hop at full rail bandwidth.
  /// Cross-group: fat-tree climbs leaf→spine→leaf (3 hops, tapered by the
  /// oversubscription); dragonfly takes a local plus a global hop (2 hops).
  [[nodiscard]] PathCost path(int a, int b) const noexcept {
    const int na = node_of(a);
    const int nb = node_of(b);
    if (na == nb) return PathCost{0, 1.0, true};
    const double rails = static_cast<double>(spec_.rails);
    if (group_of_node(na) == group_of_node(nb)) {
      return PathCost{1, rails, false};
    }
    switch (spec_.kind) {
      case TopoKind::kFatTree:
        return PathCost{3, rails / spec_.oversubscription, false};
      case TopoKind::kDragonfly:
        return PathCost{2, rails, false};
      case TopoKind::kFlat:
        break;
    }
    return PathCost{1, rails, false};
  }

  [[nodiscard]] std::string describe() const;

 private:
  static TopoSpec make_flat(int ranks_per_node) {
    TopoSpec spec;
    spec.ranks_per_node = ranks_per_node;
    return spec;
  }

  int world_size_;
  TopoSpec spec_;
};

}  // namespace manatee::simnet
