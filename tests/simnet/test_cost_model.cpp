#include "simnet/cost_model.hpp"

#include <gtest/gtest.h>

#include "simnet/virtual_clock.hpp"

namespace manatee::simnet {
namespace {

TEST(CostModel, InterNodeSlowerThanIntraNode) {
  const CostModel m;
  EXPECT_GT(m.transfer_ns(1024, /*same_node=*/false),
            m.transfer_ns(1024, /*same_node=*/true));
}

TEST(CostModel, ZeroBytesIsPureLatency) {
  CostParams p;
  const CostModel m(p);
  EXPECT_EQ(m.transfer_ns(0, true), p.intra_node_latency_ns);
  EXPECT_EQ(m.transfer_ns(0, false), p.inter_node_latency_ns);
}

TEST(CostModel, BandwidthTermScalesWithBytes) {
  const CostModel m;
  const auto small = m.transfer_ns(1024, false);
  const auto large = m.transfer_ns(1024 * 1024, false);
  EXPECT_GT(large, small);
  // For 1 MB at 25 GB/s the wire term (~40 us) dwarfs latency (~2 us).
  EXPECT_GT(large, 10 * small);
}

TEST(CostModel, LargeMessageApproachesBandwidthBound) {
  CostParams p;
  const CostModel m(p);
  const std::size_t bytes = 100 * 1024 * 1024;
  const auto t = m.transfer_ns(bytes, false);
  const auto wire = static_cast<SimTime>(static_cast<double>(bytes) / p.inter_node_gbps);
  EXPECT_NEAR(static_cast<double>(t), static_cast<double>(wire + p.inter_node_latency_ns),
              static_cast<double>(wire) * 0.01);
}

TEST(CostModel, WrapperCostsOrdered) {
  // The paper's premise: CC's blocking wrapper is far cheaper than a network
  // round trip, and the NBC wrapper (two interposition points) costs more
  // than the blocking wrapper.
  const CostModel m;
  EXPECT_LT(m.cc_wrapper_cost(), m.transfer_ns(0, false));
  EXPECT_GT(m.cc_nbc_wrapper_cost(), m.cc_wrapper_cost());
  // The 2PC software path (inserted barrier + Test polling, calibrated
  // against Fig. 5a) dwarfs both CC wrappers.
  EXPECT_GT(m.tpc_wrapper_cost(), 10 * m.cc_nbc_wrapper_cost());
  EXPECT_GT(m.tpc_p2p_wrapper_cost(), m.cc_p2p_wrapper_cost());
}

TEST(CostModel, SmallPayloadBandwidthNoLongerTruncatesToZero) {
  // Regression: the bandwidth term used to be truncated per call, so any
  // payload under ~gbps bytes contributed zero wire time. With llround the
  // half-up rounding kicks in at gbps/2 bytes.
  CostParams p;
  p.inter_node_gbps = 25.0;
  const CostModel m(p);
  // 13 bytes / 25 GB/s = 0.52 ns -> rounds to 1 ns, not 0.
  EXPECT_EQ(m.transfer_ns(13, false), p.inter_node_latency_ns + 1);
  // 12 bytes / 25 GB/s = 0.48 ns -> rounds to 0.
  EXPECT_EQ(m.transfer_ns(12, false), p.inter_node_latency_ns);
}

TEST(CostModel, PathCostHopsAddLatency) {
  CostParams p;
  const CostModel m(p);
  const auto one_hop = m.transfer_ns(0, PathCost{1, 1.0, false});
  const auto three_hop = m.transfer_ns(0, PathCost{3, 1.0, false});
  EXPECT_EQ(one_hop, p.inter_node_latency_ns);
  EXPECT_EQ(three_hop, p.inter_node_latency_ns + 2 * p.extra_hop_latency_ns);
}

TEST(CostModel, PathCostBandwidthScale) {
  CostParams p;
  const CostModel m(p);
  const std::size_t bytes = 1 << 20;
  const auto full = m.transfer_ns(bytes, PathCost{1, 1.0, false});
  const auto tapered = m.transfer_ns(bytes, PathCost{1, 0.5, false});
  const auto railed = m.transfer_ns(bytes, PathCost{1, 2.0, false});
  EXPECT_GT(tapered, full);   // oversubscription halves bandwidth
  EXPECT_LT(railed, full);    // extra rails add bandwidth
  const auto wire = static_cast<double>(full - p.inter_node_latency_ns);
  EXPECT_NEAR(static_cast<double>(tapered - p.inter_node_latency_ns), 2.0 * wire,
              wire * 0.01);
}

TEST(CostModel, CustomParamsRespected) {
  CostParams p;
  p.inter_node_latency_ns = 5000;
  p.cc_wrapper_ns = 7;
  const CostModel m(p);
  EXPECT_EQ(m.transfer_ns(0, false), 5000);
  EXPECT_EQ(m.cc_wrapper_cost(), 7);
}

TEST(VirtualClock, AdvanceAndMerge) {
  VirtualClock c;
  EXPECT_EQ(c.now(), 0);
  c.advance(100);
  EXPECT_EQ(c.now(), 100);
  c.merge(50);  // event in the past: no-op
  EXPECT_EQ(c.now(), 100);
  c.merge(250);  // blocking until a future event
  EXPECT_EQ(c.now(), 250);
  c.reset();
  EXPECT_EQ(c.now(), 0);
}

TEST(SimTimeConversions, SecondsAndMicros) {
  EXPECT_DOUBLE_EQ(to_seconds(1'500'000'000), 1.5);
  EXPECT_DOUBLE_EQ(to_micros(2500), 2.5);
}

}  // namespace
}  // namespace manatee::simnet
