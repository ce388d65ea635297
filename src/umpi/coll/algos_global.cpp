// algos_global.cpp — rootless collectives: barrier, allreduce, allgather,
// alltoall, scan, reduce-scatter(-block), allgatherv, alltoallv.
//
//   barrier        — dissemination, tree (binomial gather + release)
//   allreduce      — linear (rank-order fold at rank 0 + linear return),
//                    recursive doubling with non-power-of-two fixup,
//                    ring (reduce-scatter + allgather, uneven blocks)
//   allgather      — linear, ring, recursive doubling (power-of-two only)
//   alltoall       — pairwise exchange, Bruck (log-round store-and-forward)
//   scan           — linear chain, recursive doubling (Hillis–Steele)
//   reduce-scatter — direct (pairwise blocks, rank-order fold), ring
//   allgatherv     — linear
//   alltoallv      — direct
#include "umpi/coll/algos.hpp"

namespace manatee::umpi::coll {

namespace {

// ---- barrier: dissemination ------------------------------------------------

class DisseminationBarrierOp final : public NbcOp {
 public:
  DisseminationBarrierOp(CommPtr comm, int tag) : NbcOp(std::move(comm), tag) {
    const int p = comm_->size();
    int rounds = 0;
    while ((1 << rounds) < p) ++rounds;
    slots_.reserve(static_cast<std::size_t>(rounds));
    slots_.ensure_size(static_cast<std::size_t>(rounds));
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (!preposted_) {
      // Round sources (r - 2^k mod p) are pairwise distinct: post the whole
      // receive window up front (arrivals complete in place, any order).
      for (std::size_t k = 0; k < slots_.size(); ++k) {
        const int dist = 1 << k;
        prepost(rank, slots_[k], (r - dist % p + p) % p, 0);
      }
      preposted_ = true;
    }
    while (round_ < static_cast<int>(slots_.size())) {
      const int dist = 1 << round_;
      if (!sent_) {
        send_bytes(rank, (r + dist) % p, {});
        sent_ = true;
      }
      if (!recv_ready(rank, slots_[static_cast<std::size_t>(round_)],
                      (r - dist % p + p) % p, 0)) {
        return false;
      }
      ++round_;
      sent_ = false;
    }
    return true;
  }

 private:
  SlotArray slots_;
  int round_ = 0;
  bool sent_ = false;
  bool preposted_ = false;
};

// ---- barrier: tree (binomial gather to rank 0, binomial release) -----------

class TreeBarrierOp final : public NbcOp {
 public:
  TreeBarrierOp(CommPtr comm, int tag) : NbcOp(std::move(comm), tag) {
    const int p = comm_->size();
    const int r = comm_->rank;
    int mask = 1;
    while (mask < p && !(r & mask)) mask <<= 1;
    parent_mask_ = mask;  // >= p when r == 0
    release_mask_ = (r == 0 ? ceil_pow2(p) : mask) >> 1;
    int rounds = 0;
    while ((1 << rounds) < p) ++rounds;
    slots_.reserve(static_cast<std::size_t>(rounds) + 1);
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    // Phase 1: gather — wait for all children, then signal the parent.
    while (gather_mask_ < p && gather_mask_ < parent_mask_) {
      const int child = r + gather_mask_;
      if (child < p) {
        slots_.ensure_size(used_slots_ + 1);
        if (!recv_ready(rank, slots_[used_slots_], child, 0)) return false;
        ++used_slots_;
      }
      gather_mask_ <<= 1;
    }
    if (r != 0 && !signalled_parent_) {
      send_bytes(rank, r - parent_mask_, {});
      signalled_parent_ = true;
    }
    // Phase 2: release — wait for the parent, then release children.
    if (r != 0 && !recv_ready(rank, release_slot_, r - parent_mask_, 0)) {
      return false;
    }
    while (release_mask_ > 0) {
      if (r + release_mask_ < p) send_bytes(rank, r + release_mask_, {});
      release_mask_ >>= 1;
    }
    return true;
  }

 private:
  int parent_mask_;
  int release_mask_;
  int gather_mask_ = 1;
  SlotArray slots_;
  std::size_t used_slots_ = 0;
  bool signalled_parent_ = false;
  Slot release_slot_;
};

// ---- allreduce: linear (fold at rank 0, linear return) ----------------------

class LinearAllreduceOp final : public NbcOp {
 public:
  LinearAllreduceOp(CommPtr comm, int tag, std::span<const std::byte> send,
                    std::span<std::byte> recv, Datatype dt, ReduceOp op,
                    simnet::BufferPool* pool)
      : NbcOp(std::move(comm), tag), send_(send), recv_(recv), dt_(dt), op_(op),
        pool_(pool) {
    MANATEE_REQUIRE(send.size() == recv.size(),
                    "allreduce send/recv size mismatch");
    MANATEE_REQUIRE(send.size() % datatype_size(dt) == 0,
                    "allreduce buffer not a whole number of elements");
    count_ = send.size() / datatype_size(dt);
    if (comm_->rank == 0) {
      const auto p = static_cast<std::size_t>(comm_->size());
      slots_.reserve(p);
      slots_.ensure_size(p);
    }
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (r != 0) {
      if (!sent_) {
        send_bytes(rank, 0, send_);
        sent_ = true;
      }
      return recv_ready_into(rank, result_slot_, 0, recv_);
    }
    if (!preposted_) {
      for (int s = 1; s < p; ++s) {
        prepost(rank, slots_[static_cast<std::size_t>(s)], s, send_.size());
      }
      preposted_ = true;
    }
    while (next_src_ < p) {
      std::span<const std::byte> contribution;
      if (next_src_ == 0) {
        contribution = send_;
        acc_.assign(pool_, contribution);
      } else {
        Slot& slot = slots_[static_cast<std::size_t>(next_src_)];
        if (!recv_ready(rank, slot, next_src_, send_.size())) return false;
        apply_reduce(op_, dt_, acc_, slot.buf, count_);
        charge_compute(rank.runtime().cost().reduce_cost(acc_.size()));
      }
      ++next_src_;
    }
    copy_bytes(recv_, acc_);
    for (int dst = 1; dst < p; ++dst) send_bytes(rank, dst, acc_);
    return true;
  }

 private:
  std::span<const std::byte> send_;
  std::span<std::byte> recv_;
  Datatype dt_;
  ReduceOp op_;
  simnet::BufferPool* pool_;
  std::size_t count_ = 0;
  simnet::PayloadBuffer acc_;
  SlotArray slots_;
  Slot result_slot_;
  int next_src_ = 0;
  bool sent_ = false;
  bool preposted_ = false;
};

// ---- allreduce: recursive doubling with non-power-of-two fixup --------------

class RdoublingAllreduceOp final : public NbcOp {
 public:
  RdoublingAllreduceOp(CommPtr comm, int tag, std::span<const std::byte> send,
                       std::span<std::byte> recv, Datatype dt, ReduceOp op)
      : NbcOp(std::move(comm), tag), recv_(recv), dt_(dt), op_(op) {
    MANATEE_REQUIRE(send.size() == recv.size(),
                    "allreduce send/recv size mismatch");
    MANATEE_REQUIRE(send.size() % datatype_size(dt) == 0,
                    "allreduce buffer not a whole number of elements");
    copy_bytes(recv_, send);  // recv_ is the accumulator
    count_ = send.size() / datatype_size(dt);
    const int p = comm_->size();
    p2_ = floor_pow2(p);
    rem_ = p - p2_;
    const int r = comm_->rank;
    if (r < 2 * rem_) {
      vr_ = (r % 2 == 0) ? -1 : r / 2;
    } else {
      vr_ = r - rem_;
    }
    int rounds = 0;
    while ((1 << rounds) < p2_) ++rounds;
    rd_slots_.reserve(static_cast<std::size_t>(rounds));
  }

 protected:
  bool step(Rank& rank) override {
    const int r = comm_->rank;
    const auto bytes = recv_.size();

    // Phase A: fold the remainder ranks into their odd partners.
    if (phase_ == 0) {
      if (r < 2 * rem_) {
        if (r % 2 == 0) {
          send_bytes(rank, r + 1, recv_);
          phase_ = 2;  // wait for the final result in phase C
        } else {
          if (!recv_ready(rank, pre_slot_, r - 1, bytes)) return false;
          apply_reduce(op_, dt_, recv_, pre_slot_.buf, count_);
          charge_compute(rank.runtime().cost().reduce_cost(bytes));
          phase_ = 1;
        }
      } else {
        phase_ = 1;
      }
    }

    // Phase B: recursive doubling among the p2 participating vranks.
    if (phase_ == 1) {
      while ((1 << round_) < p2_) {
        const int partner_vr = vr_ ^ (1 << round_);
        const int partner =
            partner_vr < rem_ ? 2 * partner_vr + 1 : partner_vr + rem_;
        if (!round_sent_) {
          send_bytes(rank, partner, recv_);
          round_sent_ = true;
        }
        rd_slots_.ensure_size(static_cast<std::size_t>(round_) + 1);
        Slot& slot = rd_slots_[static_cast<std::size_t>(round_)];
        if (!recv_ready(rank, slot, partner, bytes)) return false;
        apply_reduce(op_, dt_, recv_, slot.buf, count_);
        charge_compute(rank.runtime().cost().reduce_cost(bytes));
        ++round_;
        round_sent_ = false;
      }
      phase_ = 2;
    }

    // Phase C: return results to the folded-out even ranks.
    if (phase_ == 2) {
      if (r < 2 * rem_) {
        if (r % 2 == 0) {
          if (!recv_ready_into(rank, post_slot_, r + 1, recv_)) return false;
        } else {
          send_bytes(rank, r - 1, recv_);
        }
      }
      phase_ = 3;
    }
    return true;
  }

 private:
  std::span<std::byte> recv_;
  Datatype dt_;
  ReduceOp op_;
  std::size_t count_ = 0;
  int p2_ = 1;
  int rem_ = 0;
  int vr_ = -1;
  int phase_ = 0;
  int round_ = 0;
  bool round_sent_ = false;
  Slot pre_slot_;
  Slot post_slot_;
  SlotArray rd_slots_;
};

// ---- allreduce: ring (reduce-scatter + allgather, uneven blocks) ------------
//
// Phase 1, step s: send partial block (r-s-1) right, fold incoming block
// (r-s-2) from the left; after p-1 steps rank r owns the complete block r.
// Phase 2 is the standard ring allgather of the completed blocks. Bandwidth
// optimal: every rank sends ~2·(p-1)/p of the vector regardless of p.

class RingAllreduceOp final : public NbcOp {
 public:
  RingAllreduceOp(CommPtr comm, int tag, std::span<const std::byte> send,
                  std::span<std::byte> recv, Datatype dt, ReduceOp op)
      : NbcOp(std::move(comm), tag), recv_(recv), dt_(dt), op_(op) {
    MANATEE_REQUIRE(send.size() == recv.size(),
                    "allreduce send/recv size mismatch");
    MANATEE_REQUIRE(send.size() % datatype_size(dt) == 0,
                    "allreduce buffer not a whole number of elements");
    copy_bytes(recv_, send);  // recv_ is the accumulator
    count_ = send.size() / datatype_size(dt);
    const int p = comm_->size();
    const auto n = 2 * static_cast<std::size_t>(p > 0 ? p - 1 : 0);
    slots_.reserve(n);
    slots_.ensure_size(n);
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    const int right = (r + 1) % p;
    const int left = (r - 1 + p) % p;
    const auto esize = datatype_size(dt_);

    if (!preposted_) {
      // Every receive comes from `left` with this op's tag; posting the
      // whole window in round order matches the sender's send order under
      // non-overtaking, so blocks land in the right slots zero-copy.
      for (int s = 0; s < p - 1; ++s) {
        const int recv_idx = ((r - s - 2) % p + p) % p;
        prepost(rank, slots_[static_cast<std::size_t>(s)], left,
                block(recv_idx).size());
      }
      for (int s = p - 1; s < 2 * (p - 1); ++s) {
        const int recv_idx = ((r - (s - (p - 1)) - 1) % p + p) % p;
        prepost_into(rank, slots_[static_cast<std::size_t>(s)], left,
                     block(recv_idx));
      }
      preposted_ = true;
    }

    // Phase 1: reduce-scatter.
    while (step_ < p - 1) {
      const int send_idx = ((r - step_ - 1) % p + p) % p;
      const int recv_idx = ((r - step_ - 2) % p + p) % p;
      if (!sent_) {
        send_bytes(rank, right, block(send_idx));
        sent_ = true;
      }
      Slot& slot = slots_[static_cast<std::size_t>(step_)];
      if (!recv_ready(rank, slot, left, block(recv_idx).size())) return false;
      if (!slot.buf.empty()) {
        apply_reduce(op_, dt_, block(recv_idx), slot.buf,
                     slot.buf.size() / esize);
        charge_compute(rank.runtime().cost().reduce_cost(slot.buf.size()));
      }
      ++step_;
      sent_ = false;
    }

    // Phase 2: ring allgather of the completed blocks.
    while (step_ < 2 * (p - 1)) {
      const int s = step_ - (p - 1);
      const int send_idx = ((r - s) % p + p) % p;
      const int recv_idx = ((r - s - 1) % p + p) % p;
      if (!sent_) {
        send_bytes(rank, right, block(send_idx));
        sent_ = true;
      }
      if (!recv_ready_into(rank, slots_[static_cast<std::size_t>(step_)], left,
                           block(recv_idx))) {
        return false;
      }
      ++step_;
      sent_ = false;
    }
    return true;
  }

 private:
  [[nodiscard]] std::span<std::byte> block(int idx) {
    const auto range = elem_block(count_, comm_->size(), idx, datatype_size(dt_));
    return recv_.subspan(range.off, range.len);
  }

  std::span<std::byte> recv_;
  Datatype dt_;
  ReduceOp op_;
  std::size_t count_ = 0;
  SlotArray slots_;
  int step_ = 0;
  bool sent_ = false;
  bool preposted_ = false;
};

// ---- allgather: linear ------------------------------------------------------

class LinearAllgatherOp final : public NbcOp {
 public:
  LinearAllgatherOp(CommPtr comm, int tag, std::span<const std::byte> send,
                    std::span<std::byte> recv)
      : NbcOp(std::move(comm), tag), recv_(recv), block_(send.size()) {
    const int p = comm_->size();
    MANATEE_REQUIRE(recv.size() >= block_ * static_cast<std::size_t>(p),
                    "allgather recv buffer too small");
    copy_bytes(block_of(comm_->rank), send);
    slots_.reserve(static_cast<std::size_t>(p));
    slots_.ensure_size(static_cast<std::size_t>(p));
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (!sent_) {
      for (int s = 0; s < p; ++s) {
        if (s != r) {
          prepost_into(rank, slots_[static_cast<std::size_t>(s)], s,
                       block_of(s));
        }
      }
      for (int dst = 0; dst < p; ++dst) {
        if (dst != r) send_bytes(rank, dst, block_of(r));
      }
      sent_ = true;
    }
    while (next_src_ < p) {
      if (next_src_ != r &&
          !recv_ready_into(rank, slots_[static_cast<std::size_t>(next_src_)],
                           next_src_, block_of(next_src_))) {
        return false;
      }
      ++next_src_;
    }
    return true;
  }

 private:
  [[nodiscard]] std::span<std::byte> block_of(int idx) {
    return recv_.subspan(static_cast<std::size_t>(idx) * block_, block_);
  }

  std::span<std::byte> recv_;
  std::size_t block_;
  SlotArray slots_;
  int next_src_ = 0;
  bool sent_ = false;
};

// ---- allgather: ring --------------------------------------------------------

class RingAllgatherOp final : public NbcOp {
 public:
  RingAllgatherOp(CommPtr comm, int tag, std::span<const std::byte> send,
                  std::span<std::byte> recv)
      : NbcOp(std::move(comm), tag), recv_(recv), block_(send.size()) {
    const int p = comm_->size();
    MANATEE_REQUIRE(recv.size() >= block_ * static_cast<std::size_t>(p),
                    "allgather recv buffer too small");
    copy_bytes(block_of(comm_->rank), send);
    const auto n = static_cast<std::size_t>(p > 0 ? p - 1 : 0);
    slots_.reserve(n);
    slots_.ensure_size(n);
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    const int right = (r + 1) % p;
    const int left = (r - 1 + p) % p;
    if (!preposted_) {
      for (int k = 0; k < p - 1; ++k) {
        prepost_into(rank, slots_[static_cast<std::size_t>(k)], left,
                     block_of((r - k - 1 + p) % p));
      }
      preposted_ = true;
    }
    while (round_ < p - 1) {
      if (!sent_) {
        send_bytes(rank, right, block_of((r - round_ + p) % p));
        sent_ = true;
      }
      const int recv_idx = (r - round_ - 1 + p) % p;
      if (!recv_ready_into(rank, slots_[static_cast<std::size_t>(round_)], left,
                           block_of(recv_idx))) {
        return false;
      }
      ++round_;
      sent_ = false;
    }
    return true;
  }

 private:
  [[nodiscard]] std::span<std::byte> block_of(int idx) {
    return recv_.subspan(static_cast<std::size_t>(idx) * block_, block_);
  }

  std::span<std::byte> recv_;
  std::size_t block_;
  SlotArray slots_;
  int round_ = 0;
  bool sent_ = false;
  bool preposted_ = false;
};

// ---- allgather: recursive doubling (power-of-two communicators) -------------

class RdoublingAllgatherOp final : public NbcOp {
 public:
  RdoublingAllgatherOp(CommPtr comm, int tag, std::span<const std::byte> send,
                       std::span<std::byte> recv)
      : NbcOp(std::move(comm), tag), recv_(recv), block_(send.size()) {
    const int p = comm_->size();
    MANATEE_REQUIRE(is_pow2(p), "recursive-doubling allgather needs a "
                                "power-of-two communicator");
    MANATEE_REQUIRE(recv.size() >= block_ * static_cast<std::size_t>(p),
                    "allgather recv buffer too small");
    copy_bytes(region(comm_->rank, 1), send);
    int rounds = 0;
    while ((1 << rounds) < p) ++rounds;
    slots_.reserve(static_cast<std::size_t>(rounds));
    slots_.ensure_size(static_cast<std::size_t>(rounds));
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    while (dist_ < p) {
      const int partner = r ^ dist_;
      const int my_base = r & ~(dist_ - 1);
      const int partner_base = partner & ~(dist_ - 1);
      if (!sent_) {
        send_bytes(rank, partner, region(my_base, dist_));
        sent_ = true;
      }
      if (!recv_ready_into(rank, slots_[static_cast<std::size_t>(round_)], partner,
                           region(partner_base, dist_))) {
        return false;
      }
      dist_ <<= 1;
      ++round_;
      sent_ = false;
    }
    return true;
  }

 private:
  /// Contiguous region of `len` blocks starting at block `base`.
  [[nodiscard]] std::span<std::byte> region(int base, int len) {
    return recv_.subspan(static_cast<std::size_t>(base) * block_,
                         static_cast<std::size_t>(len) * block_);
  }

  std::span<std::byte> recv_;
  std::size_t block_;
  SlotArray slots_;
  int dist_ = 1;
  int round_ = 0;
  bool sent_ = false;
};

// ---- alltoall: pairwise exchange -------------------------------------------

class PairwiseAlltoallOp final : public NbcOp {
 public:
  PairwiseAlltoallOp(CommPtr comm, int tag, std::span<const std::byte> send,
                     std::span<std::byte> recv)
      : NbcOp(std::move(comm), tag), send_(send), recv_(recv) {
    const int p = comm_->size();
    MANATEE_REQUIRE(p > 0 && send.size() % static_cast<std::size_t>(p) == 0,
                    "alltoall send buffer not divisible by comm size");
    MANATEE_REQUIRE(recv.size() == send.size(),
                    "alltoall send/recv size mismatch");
    block_ = send.size() / static_cast<std::size_t>(p);
    copy_bytes(recv_block(comm_->rank), send_block(comm_->rank));
    const auto n = static_cast<std::size_t>(p > 0 ? p - 1 : 0);
    slots_.reserve(n);
    slots_.ensure_size(n);
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (!preposted_) {
      // One distinct source per round: post the whole receive window so
      // every block lands zero-copy in its final position.
      for (int k = 0; k < p - 1; ++k) {
        const int src = (r - k - 1 + p) % p;
        prepost_into(rank, slots_[static_cast<std::size_t>(k)], src,
                     recv_block(src));
      }
      preposted_ = true;
    }
    while (round_ < p - 1) {
      const int dst = (r + round_ + 1) % p;
      const int src = (r - round_ - 1 + p) % p;
      if (!sent_) {
        send_bytes(rank, dst, send_block(dst));
        sent_ = true;
      }
      if (!recv_ready_into(rank, slots_[static_cast<std::size_t>(round_)], src,
                           recv_block(src))) {
        return false;
      }
      ++round_;
      sent_ = false;
    }
    return true;
  }

 private:
  [[nodiscard]] std::span<const std::byte> send_block(int idx) const {
    return send_.subspan(static_cast<std::size_t>(idx) * block_, block_);
  }
  [[nodiscard]] std::span<std::byte> recv_block(int idx) {
    return recv_.subspan(static_cast<std::size_t>(idx) * block_, block_);
  }

  std::span<const std::byte> send_;
  std::span<std::byte> recv_;
  std::size_t block_ = 0;
  SlotArray slots_;
  int round_ = 0;
  bool sent_ = false;
  bool preposted_ = false;
};

// ---- alltoall: Bruck --------------------------------------------------------
//
// ceil(log2 p) rounds of aggregated store-and-forward: after a local
// rotation, round k forwards every block whose index has bit k set by k
// ranks; a final inverse rotation puts blocks into source order. Latency
// O(log p) instead of O(p) — the small-message algorithm.

class BruckAlltoallOp final : public NbcOp {
 public:
  BruckAlltoallOp(CommPtr comm, int tag, std::span<const std::byte> send,
                  std::span<std::byte> recv, simnet::BufferPool* pool)
      : NbcOp(std::move(comm), tag), recv_(recv), pool_(pool) {
    const int p = comm_->size();
    MANATEE_REQUIRE(p > 0 && send.size() % static_cast<std::size_t>(p) == 0,
                    "alltoall send buffer not divisible by comm size");
    MANATEE_REQUIRE(recv.size() == send.size(),
                    "alltoall send/recv size mismatch");
    block_ = send.size() / static_cast<std::size_t>(p);
    tmp_.ensure(pool_, send.size());
    const int r = comm_->rank;
    // Local rotation: tmp[i] holds our block destined for rank (r + i).
    for (int i = 0; i < p && block_ > 0; ++i) {
      const int dst = (r + i) % p;
      std::memcpy(tmp_.data() + static_cast<std::size_t>(i) * block_,
                  send.data() + static_cast<std::size_t>(dst) * block_, block_);
    }
    int rounds = 0;
    while ((1 << rounds) < p) ++rounds;
    slots_.reserve(static_cast<std::size_t>(rounds));
    moving_.reserve(static_cast<std::size_t>(p));
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    while (dist_ < p) {
      if (!sent_) {
        refresh_moving(p);
        staging_.ensure(pool_, moving_.size() * block_);
        for (std::size_t j = 0; j < moving_.size(); ++j) {
          std::memcpy(
              staging_.data() + j * block_,
              tmp_.data() + static_cast<std::size_t>(moving_[j]) * block_,
              block_);
        }
        send_bytes(rank, (r + dist_) % p, staging_);
        sent_ = true;
      }
      slots_.ensure_size(static_cast<std::size_t>(round_) + 1);
      Slot& slot = slots_[static_cast<std::size_t>(round_)];
      if (!recv_ready(rank, slot, (r - dist_ + p) % p, moving_.size() * block_)) {
        return false;
      }
      MANATEE_CHECK(slot.result.bytes == moving_.size() * block_,
                    "bruck alltoall round payload size mismatch");
      for (std::size_t j = 0; j < moving_.size(); ++j) {
        std::memcpy(tmp_.data() + static_cast<std::size_t>(moving_[j]) * block_,
                    slot.buf.data() + j * block_, block_);
      }
      dist_ <<= 1;
      ++round_;
      sent_ = false;
    }
    // Inverse rotation: the block that travelled i hops came from (r - i).
    for (int i = 0; i < p && block_ > 0; ++i) {
      const int src = (r - i + p) % p;
      std::memcpy(recv_.data() + static_cast<std::size_t>(src) * block_,
                  tmp_.data() + static_cast<std::size_t>(i) * block_, block_);
    }
    return true;
  }

 private:
  void refresh_moving(int p) {
    moving_.clear();
    for (int i = 0; i < p; ++i) {
      if (i & dist_) moving_.push_back(i);
    }
  }

  std::span<std::byte> recv_;
  std::size_t block_ = 0;
  simnet::BufferPool* pool_;
  simnet::PayloadBuffer tmp_;
  simnet::PayloadBuffer staging_;
  std::vector<int> moving_;  ///< block indices in flight this round
  SlotArray slots_;
  int dist_ = 1;
  int round_ = 0;
  bool sent_ = false;
};

// ---- scan: linear chain (inclusive) ----------------------------------------

class LinearScanOp final : public NbcOp {
 public:
  LinearScanOp(CommPtr comm, int tag, std::span<const std::byte> send,
               std::span<std::byte> recv, Datatype dt, ReduceOp op)
      : NbcOp(std::move(comm), tag), send_(send), recv_(recv), dt_(dt), op_(op) {
    MANATEE_REQUIRE(send.size() == recv.size(), "scan send/recv size mismatch");
    MANATEE_REQUIRE(send.size() % datatype_size(dt) == 0,
                    "scan buffer not a whole number of elements");
    count_ = send.size() / datatype_size(dt);
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (r > 0) {
      // recv_ <- partial from the left, then fold in our contribution.
      if (!recv_ready_into(rank, rslot_, r - 1, recv_)) return false;
      apply_reduce(op_, dt_, recv_, send_, count_);
      charge_compute(rank.runtime().cost().reduce_cost(recv_.size()));
    } else {
      copy_bytes(recv_, send_);
    }
    if (r + 1 < p) send_bytes(rank, r + 1, recv_);
    return true;
  }

 private:
  std::span<const std::byte> send_;
  std::span<std::byte> recv_;
  Datatype dt_;
  ReduceOp op_;
  std::size_t count_ = 0;
  Slot rslot_;
};

// ---- scan: recursive doubling (Hillis–Steele) ------------------------------

class RdoublingScanOp final : public NbcOp {
 public:
  RdoublingScanOp(CommPtr comm, int tag, std::span<const std::byte> send,
                  std::span<std::byte> recv, Datatype dt, ReduceOp op)
      : NbcOp(std::move(comm), tag), recv_(recv), dt_(dt), op_(op) {
    MANATEE_REQUIRE(send.size() == recv.size(), "scan send/recv size mismatch");
    MANATEE_REQUIRE(send.size() % datatype_size(dt) == 0,
                    "scan buffer not a whole number of elements");
    count_ = send.size() / datatype_size(dt);
    copy_bytes(recv_, send);  // recv_ is the running prefix
    int rounds = 0;
    while ((1 << rounds) < comm_->size()) ++rounds;
    slots_.reserve(static_cast<std::size_t>(rounds));
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    while (dist_ < p) {
      // Send the pre-fold value: it covers the window (r - dist, r].
      if (!sent_ && r + dist_ < p) send_bytes(rank, r + dist_, recv_);
      sent_ = true;
      if (r >= dist_) {
        slots_.ensure_size(static_cast<std::size_t>(round_) + 1);
        Slot& slot = slots_[static_cast<std::size_t>(round_)];
        if (!recv_ready(rank, slot, r - dist_, recv_.size())) return false;
        apply_reduce(op_, dt_, recv_, slot.buf, count_);
        charge_compute(rank.runtime().cost().reduce_cost(recv_.size()));
      }
      dist_ <<= 1;
      ++round_;
      sent_ = false;
    }
    return true;
  }

 private:
  std::span<std::byte> recv_;
  Datatype dt_;
  ReduceOp op_;
  std::size_t count_ = 0;
  SlotArray slots_;
  int dist_ = 1;
  int round_ = 0;
  bool sent_ = false;
};

// ---- reduce-scatter(-block): direct pairwise ------------------------------
//
// Every rank sends block j of its contribution straight to rank j and folds
// the p received contributions for its own block in rank order (the linear
// baseline order).

class DirectReduceScatterOp final : public NbcOp {
 public:
  DirectReduceScatterOp(CommPtr comm, int tag, std::span<const std::byte> send,
                        std::span<std::byte> recv, Datatype dt, ReduceOp op,
                        simnet::BufferPool* pool)
      : NbcOp(std::move(comm), tag), send_(send), recv_(recv), dt_(dt), op_(op),
        pool_(pool), block_(recv.size()) {
    const int p = comm_->size();
    MANATEE_REQUIRE(send.size() == block_ * static_cast<std::size_t>(p),
                    "reduce_scatter_block: send must be comm_size * recv");
    MANATEE_REQUIRE(block_ % datatype_size(dt) == 0,
                    "reduce_scatter_block buffer not a whole number of elements");
    count_ = block_ / datatype_size(dt);
    slots_.reserve(static_cast<std::size_t>(p));
    slots_.ensure_size(static_cast<std::size_t>(p));
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (!sent_) {
      for (int s = 0; s < p; ++s) {
        if (s != r) {
          prepost(rank, slots_[static_cast<std::size_t>(s)], s, block_);
        }
      }
      for (int dst = 0; dst < p; ++dst) {
        if (dst != r) send_bytes(rank, dst, send_block(dst));
      }
      sent_ = true;
    }
    while (next_src_ < p) {
      std::span<const std::byte> contribution;
      if (next_src_ == r) {
        contribution = send_block(r);
      } else {
        Slot& slot = slots_[static_cast<std::size_t>(next_src_)];
        if (!recv_ready(rank, slot, next_src_, block_)) return false;
        contribution = slot.buf;
      }
      if (next_src_ == 0) {
        acc_.assign(pool_, contribution);
      } else {
        apply_reduce(op_, dt_, acc_, contribution, count_);
        charge_compute(rank.runtime().cost().reduce_cost(block_));
      }
      ++next_src_;
    }
    copy_bytes(recv_, acc_);
    return true;
  }

 private:
  [[nodiscard]] std::span<const std::byte> send_block(int idx) const {
    return send_.subspan(static_cast<std::size_t>(idx) * block_, block_);
  }

  std::span<const std::byte> send_;
  std::span<std::byte> recv_;
  Datatype dt_;
  ReduceOp op_;
  simnet::BufferPool* pool_;
  std::size_t block_;
  std::size_t count_ = 0;
  simnet::PayloadBuffer acc_;
  SlotArray slots_;
  int next_src_ = 0;
  bool sent_ = false;
};

// ---- reduce-scatter(-block): ring ------------------------------------------
//
// The reduce-scatter phase of the ring allreduce over a full-vector
// accumulator: after p-1 steps rank r owns the completed block r.

class RingReduceScatterOp final : public NbcOp {
 public:
  RingReduceScatterOp(CommPtr comm, int tag, std::span<const std::byte> send,
                      std::span<std::byte> recv, Datatype dt, ReduceOp op,
                      simnet::BufferPool* pool)
      : NbcOp(std::move(comm), tag), recv_(recv), dt_(dt), op_(op),
        block_(recv.size()) {
    const int p = comm_->size();
    MANATEE_REQUIRE(send.size() == block_ * static_cast<std::size_t>(p),
                    "reduce_scatter_block: send must be comm_size * recv");
    MANATEE_REQUIRE(block_ % datatype_size(dt) == 0,
                    "reduce_scatter_block buffer not a whole number of elements");
    count_ = block_ / datatype_size(dt);
    acc_.assign(pool, send);
    const auto n = static_cast<std::size_t>(p > 0 ? p - 1 : 0);
    slots_.reserve(n);
    slots_.ensure_size(n);
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    const int right = (r + 1) % p;
    const int left = (r - 1 + p) % p;
    if (!preposted_) {
      for (int s = 0; s < p - 1; ++s) {
        prepost(rank, slots_[static_cast<std::size_t>(s)], left, block_);
      }
      preposted_ = true;
    }
    while (step_ < p - 1) {
      const int send_idx = ((r - step_ - 1) % p + p) % p;
      const int recv_idx = ((r - step_ - 2) % p + p) % p;
      if (!sent_) {
        send_bytes(rank, right, acc_block(send_idx));
        sent_ = true;
      }
      Slot& slot = slots_[static_cast<std::size_t>(step_)];
      if (!recv_ready(rank, slot, left, block_)) return false;
      if (block_ > 0) {
        apply_reduce(op_, dt_, acc_block(recv_idx), slot.buf, count_);
        charge_compute(rank.runtime().cost().reduce_cost(block_));
      }
      ++step_;
      sent_ = false;
    }
    copy_bytes(recv_, acc_block(r));
    return true;
  }

 private:
  [[nodiscard]] std::span<std::byte> acc_block(int idx) {
    return acc_.span().subspan(static_cast<std::size_t>(idx) * block_, block_);
  }

  std::span<std::byte> recv_;
  Datatype dt_;
  ReduceOp op_;
  std::size_t block_;
  std::size_t count_ = 0;
  simnet::PayloadBuffer acc_;
  SlotArray slots_;
  int step_ = 0;
  bool sent_ = false;
  bool preposted_ = false;
};

// ---- allgatherv: linear -----------------------------------------------------

class LinearAllgathervOp final : public NbcOp {
 public:
  LinearAllgathervOp(CommPtr comm, int tag, const CollArgs& args)
      : NbcOp(std::move(comm), tag), recv_(args.recv) {
    const int p = comm_->size();
    MANATEE_REQUIRE(args.recv_counts.size() == static_cast<std::size_t>(p),
                    "allgatherv needs one recv count per rank");
    MANATEE_REQUIRE(args.recv_displs.size() == static_cast<std::size_t>(p),
                    "allgatherv needs one recv displacement per rank");
    counts_.assign(args.recv_counts.begin(), args.recv_counts.end());
    displs_.assign(args.recv_displs.begin(), args.recv_displs.end());
    const auto r = static_cast<std::size_t>(comm_->rank);
    MANATEE_REQUIRE(args.send.size() == counts_[r],
                    "allgatherv send size != own recv count");
    for (int i = 0; i < p; ++i) {
      const auto u = static_cast<std::size_t>(i);
      MANATEE_REQUIRE(displs_[u] + counts_[u] <= recv_.size(),
                      "allgatherv recv buffer too small");
    }
    copy_bytes(recv_.subspan(displs_[r], counts_[r]), args.send);
    slots_.reserve(static_cast<std::size_t>(p));
    slots_.ensure_size(static_cast<std::size_t>(p));
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (!sent_) {
      for (int s = 0; s < p; ++s) {
        if (s != r) {
          prepost_into(rank, slots_[static_cast<std::size_t>(s)], s,
                       block_of(s));
        }
      }
      const auto own = block_of(r);
      for (int dst = 0; dst < p; ++dst) {
        if (dst != r) send_bytes(rank, dst, own);
      }
      sent_ = true;
    }
    while (next_src_ < p) {
      if (next_src_ != r &&
          !recv_ready_into(rank, slots_[static_cast<std::size_t>(next_src_)],
                           next_src_, block_of(next_src_))) {
        return false;
      }
      ++next_src_;
    }
    return true;
  }

 private:
  [[nodiscard]] std::span<std::byte> block_of(int idx) {
    const auto u = static_cast<std::size_t>(idx);
    return recv_.subspan(displs_[u], counts_[u]);
  }

  std::span<std::byte> recv_;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> displs_;
  SlotArray slots_;
  int next_src_ = 0;
  bool sent_ = false;
};

// ---- alltoallv: direct ------------------------------------------------------

class DirectAlltoallvOp final : public NbcOp {
 public:
  DirectAlltoallvOp(CommPtr comm, int tag, const CollArgs& args)
      : NbcOp(std::move(comm), tag), send_(args.send), recv_(args.recv) {
    const int p = comm_->size();
    const auto up = static_cast<std::size_t>(p);
    MANATEE_REQUIRE(args.send_counts.size() == up && args.send_displs.size() == up,
                    "alltoallv needs one send count+displacement per rank");
    MANATEE_REQUIRE(args.recv_counts.size() == up && args.recv_displs.size() == up,
                    "alltoallv needs one recv count+displacement per rank");
    send_counts_.assign(args.send_counts.begin(), args.send_counts.end());
    send_displs_.assign(args.send_displs.begin(), args.send_displs.end());
    recv_counts_.assign(args.recv_counts.begin(), args.recv_counts.end());
    recv_displs_.assign(args.recv_displs.begin(), args.recv_displs.end());
    for (std::size_t i = 0; i < up; ++i) {
      MANATEE_REQUIRE(send_displs_[i] + send_counts_[i] <= send_.size(),
                      "alltoallv send buffer too small");
      MANATEE_REQUIRE(recv_displs_[i] + recv_counts_[i] <= recv_.size(),
                      "alltoallv recv buffer too small");
    }
    const auto r = static_cast<std::size_t>(comm_->rank);
    MANATEE_REQUIRE(send_counts_[r] == recv_counts_[r],
                    "alltoallv self block count mismatch");
    copy_bytes(recv_.subspan(recv_displs_[r], recv_counts_[r]),
               send_.subspan(send_displs_[r], send_counts_[r]));
    slots_.reserve(up);
    slots_.ensure_size(up);
  }

 protected:
  bool step(Rank& rank) override {
    const int p = comm_->size();
    const int r = comm_->rank;
    if (!sent_) {
      for (int s = 0; s < p; ++s) {
        const auto u = static_cast<std::size_t>(s);
        if (s != r) {
          prepost_into(rank, slots_[u], s,
                       recv_.subspan(recv_displs_[u], recv_counts_[u]));
        }
      }
      for (int dst = 0; dst < p; ++dst) {
        const auto u = static_cast<std::size_t>(dst);
        if (dst != r) {
          send_bytes(rank, dst, send_.subspan(send_displs_[u], send_counts_[u]));
        }
      }
      sent_ = true;
    }
    while (next_src_ < p) {
      const auto u = static_cast<std::size_t>(next_src_);
      if (next_src_ != r &&
          !recv_ready_into(rank, slots_[u], next_src_,
                           recv_.subspan(recv_displs_[u], recv_counts_[u]))) {
        return false;
      }
      ++next_src_;
    }
    return true;
  }

 private:
  std::span<const std::byte> send_;
  std::span<std::byte> recv_;
  std::vector<std::size_t> send_counts_;
  std::vector<std::size_t> send_displs_;
  std::vector<std::size_t> recv_counts_;
  std::vector<std::size_t> recv_displs_;
  SlotArray slots_;
  int next_src_ = 0;
  bool sent_ = false;
};

}  // namespace

void register_global_algorithms(Registry& registry) {
  registry.add(CollKind::kBarrier, "dissemination",
               [](CommPtr comm, int tag, const CollArgs&) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<DisseminationBarrierOp>(std::move(comm), tag);
               });
  registry.add(CollKind::kBarrier, "tree",
               [](CommPtr comm, int tag, const CollArgs&) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<TreeBarrierOp>(std::move(comm), tag);
               });

  registry.add(CollKind::kAllreduce, "linear",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<LinearAllreduceOp>(
                     std::move(comm), tag, a.send, a.recv, a.dt, a.op, a.pool);
               });
  registry.add(CollKind::kAllreduce, "rdoubling",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<RdoublingAllreduceOp>(
                     std::move(comm), tag, a.send, a.recv, a.dt, a.op);
               });
  registry.add(CollKind::kAllreduce, "ring",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<RingAllreduceOp>(std::move(comm), tag, a.send,
                                                          a.recv, a.dt, a.op);
               });

  registry.add(CollKind::kAllgather, "linear",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<LinearAllgatherOp>(std::move(comm), tag,
                                                            a.send, a.recv);
               });
  registry.add(CollKind::kAllgather, "ring",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<RingAllgatherOp>(std::move(comm), tag, a.send,
                                                          a.recv);
               });
  registry.add(
      CollKind::kAllgather, "rdoubling",
      [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
        return std::make_unique<RdoublingAllgatherOp>(std::move(comm), tag, a.send,
                                                      a.recv);
      },
      [](int comm_size, const CollArgs&) { return is_pow2(comm_size); });

  registry.add(CollKind::kAlltoall, "pairwise",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<PairwiseAlltoallOp>(std::move(comm), tag,
                                                             a.send, a.recv);
               });
  registry.add(CollKind::kAlltoall, "bruck",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<BruckAlltoallOp>(std::move(comm), tag, a.send,
                                                          a.recv, a.pool);
               });

  registry.add(CollKind::kScan, "linear",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<LinearScanOp>(std::move(comm), tag, a.send,
                                                       a.recv, a.dt, a.op);
               });
  registry.add(CollKind::kScan, "rdoubling",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<RdoublingScanOp>(std::move(comm), tag, a.send,
                                                          a.recv, a.dt, a.op);
               });

  registry.add(CollKind::kReduceScatterBlock, "direct",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<DirectReduceScatterOp>(
                     std::move(comm), tag, a.send, a.recv, a.dt, a.op, a.pool);
               });
  registry.add(CollKind::kReduceScatterBlock, "ring",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<RingReduceScatterOp>(
                     std::move(comm), tag, a.send, a.recv, a.dt, a.op, a.pool);
               });

  registry.add(CollKind::kAllgatherv, "linear",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<LinearAllgathervOp>(std::move(comm), tag, a);
               });

  registry.add(CollKind::kAlltoallv, "direct",
               [](CommPtr comm, int tag, const CollArgs& a) -> std::unique_ptr<NbcOp> {
                 return std::make_unique<DirectAlltoallvOp>(std::move(comm), tag, a);
               });
}

void register_builtin_algorithms(Registry& registry) {
  register_rooted_algorithms(registry);
  register_global_algorithms(registry);
  register_hier_algorithms(registry);
}

}  // namespace manatee::umpi::coll
