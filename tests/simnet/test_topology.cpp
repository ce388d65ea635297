#include "simnet/topology.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace manatee::simnet {
namespace {

TEST(Topology, NodeAssignment) {
  const Topology t(8, 4);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.node_of(7), 1);
}

TEST(Topology, SameNode) {
  const Topology t(8, 4);
  EXPECT_TRUE(t.same_node(0, 3));
  EXPECT_FALSE(t.same_node(3, 4));
  EXPECT_TRUE(t.same_node(5, 5));
}

TEST(Topology, NodeCountRoundsUp) {
  EXPECT_EQ(Topology(8, 4).node_count(), 2);
  EXPECT_EQ(Topology(9, 4).node_count(), 3);
  EXPECT_EQ(Topology(1, 128).node_count(), 1);
}

TEST(Topology, SingleRankPerNode) {
  const Topology t(4, 1);
  EXPECT_FALSE(t.same_node(0, 1));
  EXPECT_EQ(t.node_count(), 4);
}

TEST(Topology, InvalidArgsThrow) {
  EXPECT_THROW(Topology(0, 4), UsageError);
  EXPECT_THROW(Topology(4, 0), UsageError);
  EXPECT_THROW(Topology(-1, 4), UsageError);
}

TEST(Topology, DescribeMentionsCounts) {
  const auto s = Topology(16, 8).describe();
  EXPECT_NE(s.find("16 ranks"), std::string::npos);
  EXPECT_NE(s.find("2 node"), std::string::npos);
}

TEST(Topology, FlatPathCosts) {
  TopoSpec spec;
  spec.ranks_per_node = 4;
  spec.rails = 2;
  const Topology t(16, spec);
  const auto intra = t.path(0, 3);
  EXPECT_TRUE(intra.same_node);
  EXPECT_EQ(intra.hops, 0);
  const auto inter = t.path(0, 15);
  EXPECT_FALSE(inter.same_node);
  EXPECT_EQ(inter.hops, 1);
  EXPECT_DOUBLE_EQ(inter.bw_scale, 2.0);  // rails scale every inter-node route
}

TEST(Topology, FatTreeCrossGroupClimbsSpine) {
  TopoSpec spec;
  spec.kind = TopoKind::kFatTree;
  spec.ranks_per_node = 2;
  spec.nodes_per_group = 2;
  spec.oversubscription = 2.0;
  const Topology t(16, spec);  // 8 nodes, 4 leaf pods
  // ranks 0,1 -> node 0; ranks 2,3 -> node 1 (same pod); ranks 4.. -> pod 1+
  const auto leaf = t.path(0, 2);
  EXPECT_EQ(leaf.hops, 1);
  EXPECT_DOUBLE_EQ(leaf.bw_scale, 1.0);
  const auto spine = t.path(0, 4);
  EXPECT_EQ(spine.hops, 3);
  EXPECT_DOUBLE_EQ(spine.bw_scale, 0.5);  // 2:1 taper
  EXPECT_FALSE(spine.same_node);
}

TEST(Topology, DragonflyCrossGroupTwoHops) {
  TopoSpec spec;
  spec.kind = TopoKind::kDragonfly;
  spec.ranks_per_node = 2;
  spec.nodes_per_group = 2;
  const Topology t(16, spec);
  EXPECT_EQ(t.group_count(), 4);
  EXPECT_EQ(t.path(0, 2).hops, 1);  // local link inside the group
  const auto global = t.path(0, 6);
  EXPECT_EQ(global.hops, 2);  // local + global link
  EXPECT_DOUBLE_EQ(global.bw_scale, 1.0);
}

TEST(Topology, ZeroGroupMeansOneGroup) {
  TopoSpec spec;
  spec.kind = TopoKind::kFatTree;
  spec.ranks_per_node = 2;
  spec.nodes_per_group = 0;
  const Topology t(8, spec);
  EXPECT_EQ(t.group_count(), 1);
  EXPECT_EQ(t.path(0, 7).hops, 1);  // degenerates to a 1-hop flat switch
}

TEST(Topology, SpecValidation) {
  TopoSpec bad;
  bad.ranks_per_node = 4;
  bad.rails = 0;
  EXPECT_THROW(Topology(8, bad), UsageError);
  bad.rails = 1;
  bad.oversubscription = 0.5;
  EXPECT_THROW(Topology(8, bad), UsageError);
}

TEST(ParseTopoSpec, Shapes) {
  EXPECT_EQ(parse_topo_spec("flat").kind, TopoKind::kFlat);
  EXPECT_EQ(parse_topo_spec("fattree").kind, TopoKind::kFatTree);
  EXPECT_EQ(parse_topo_spec("dragonfly").kind, TopoKind::kDragonfly);
  EXPECT_THROW(parse_topo_spec("torus"), UsageError);
}

TEST(ParseTopoSpec, Parameters) {
  const auto spec = parse_topo_spec("fattree:rpn=8,group=4,oversub=2,rails=2");
  EXPECT_EQ(spec.kind, TopoKind::kFatTree);
  EXPECT_EQ(spec.ranks_per_node, 8);
  EXPECT_EQ(spec.nodes_per_group, 4);
  EXPECT_DOUBLE_EQ(spec.oversubscription, 2.0);
  EXPECT_EQ(spec.rails, 2);
}

TEST(ParseTopoSpec, InSwitchKeysAreRejected) {
  // Keys of the deleted in-switch unit must fail loudly, like any unknown
  // key, rather than be silently ignored.
  for (const char* spec :
       {"dragonfly:rpn=16,group=2,switch=1", "flat:rpn=4,switch-members=64",
        "flat:rpn=4,switch-payload=256"}) {
    EXPECT_THROW((void)parse_topo_spec(spec), UsageError) << spec;
  }
}

TEST(ParseTopoSpec, Errors) {
  EXPECT_THROW(parse_topo_spec("flat:bogus=1"), UsageError);
  EXPECT_THROW(parse_topo_spec("flat:rpn"), UsageError);
}

}  // namespace
}  // namespace manatee::simnet
