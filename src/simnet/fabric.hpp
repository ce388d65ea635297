// fabric.hpp — the interconnect: owns every rank's MessageStore and the
// shared payload BufferPool, routes messages, applies the cost model, and
// keeps per-traffic-class counters.
//
// Traffic classes let the benchmarks demonstrate *why* 2PC is slow: the
// extra barrier messages it injects are visible as kCkptProtocol traffic,
// while CC's steady-state message count is identical to native.
//
// Counters are sharded per destination store (updated under that store's
// delivery lock) and folded on read — concurrent senders to different
// destinations never contend on a shared counter cache line.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simnet/cost_model.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/message.hpp"
#include "simnet/payload.hpp"
#include "simnet/topology.hpp"
#include "simnet/virtual_clock.hpp"

namespace manatee::simnet {

class Fabric {
 public:
  Fabric(Topology topology, CostModel cost);

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }

  [[nodiscard]] MessageStore& store(int world_rank);

  /// Payload pool backing every store's unexpected queue and the collective
  /// algorithms' scratch buffers.
  [[nodiscard]] BufferPool& pool() noexcept { return pool_; }

  /// Send `payload` from world rank `src_world` to `dst_world`.
  ///
  /// Charges the sender's clock the injection overhead, stamps the arrival
  /// time from the cost model, and delivers zero-copy: a matching posted
  /// receive is completed straight from `payload` (single memcpy, no
  /// envelope); otherwise the bytes are staged in a pool-backed envelope.
  /// `src_in_comm` is the sender's rank inside the communicator that owns
  /// `context` (what the receiver's match pattern sees).
  void send(int src_world, int dst_world, ContextId context, int src_in_comm,
            int tag, std::span<const std::byte> payload, VirtualClock& src_clock,
            TrafficClass traffic);

  /// Deliver a pre-built envelope without charging any clock (restart
  /// re-injection and coordinator control messages).
  void deliver_raw(int dst_world, Envelope env, TrafficClass traffic);

  /// Wake every rank blocked in a MessageStore wait (out-of-band events).
  void notify_all_ranks();

  [[nodiscard]] TrafficCounters counters(TrafficClass traffic) const;
  [[nodiscard]] std::uint64_t total_messages() const;

 private:
  // Concurrency contract (DESIGN.md §9): the Fabric itself holds no lock.
  // Every member below is written once in the constructor and immutable
  // afterwards; all mutable state lives behind each MessageStore's own
  // mutex (level 60) or the pool's per-class mutexes (level 30), so a
  // send() is exactly one store lock plus at most one pool-class lock.
  Topology topology_;
  CostModel cost_;
  BufferPool pool_;  ///< declared before stores_: destroyed after them
  std::vector<std::unique_ptr<MessageStore>> stores_;
};

}  // namespace manatee::simnet
