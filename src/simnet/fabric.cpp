#include "simnet/fabric.hpp"

#include "common/error.hpp"

namespace manatee::simnet {

Fabric::Fabric(Topology topology, CostModel cost)
    : topology_(topology), cost_(cost) {
  stores_.reserve(static_cast<std::size_t>(topology_.world_size()));
  for (int i = 0; i < topology_.world_size(); ++i) {
    stores_.push_back(std::make_unique<MessageStore>(&pool_));
  }
}

MessageStore& Fabric::store(int world_rank) {
  MANATEE_REQUIRE(world_rank >= 0 && world_rank < topology_.world_size(),
                  "world rank out of range");
  return *stores_[static_cast<std::size_t>(world_rank)];
}

void Fabric::send(int src_world, int dst_world, ContextId context, int src_in_comm,
                  int tag, std::span<const std::byte> payload,
                  VirtualClock& src_clock, TrafficClass traffic) {
  MANATEE_REQUIRE(dst_world >= 0 && dst_world < topology_.world_size(),
                  "destination world rank out of range");
  src_clock.advance(cost_.injection_ns(payload.size()));
  const SimTime arrival =
      src_clock.now() +
      cost_.transfer_ns(payload.size(), topology_.path(src_world, dst_world));
  store(dst_world).deliver_bytes(context, src_in_comm, tag, arrival, payload,
                                 traffic);
}

void Fabric::deliver_raw(int dst_world, Envelope env, TrafficClass traffic) {
  store(dst_world).deliver(std::move(env), traffic);
}

void Fabric::notify_all_ranks() {
  for (auto& s : stores_) s->notify();
}

TrafficCounters Fabric::counters(TrafficClass traffic) const {
  TrafficCounters total;
  for (const auto& s : stores_) {
    const TrafficCounters c = s->traffic(traffic);
    total.messages += c.messages;
    total.bytes += c.bytes;
  }
  return total;
}

std::uint64_t Fabric::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& s : stores_) {
    for (int cls = 0; cls < kTrafficClassCount; ++cls) {
      total += s->traffic(static_cast<TrafficClass>(cls)).messages;
    }
  }
  return total;
}

}  // namespace manatee::simnet
