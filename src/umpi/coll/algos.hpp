// algos.hpp — internal helpers shared by the built-in algorithm files.
#pragma once

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "umpi/coll/coll.hpp"
#include "umpi/nbc.hpp"
#include "umpi/op.hpp"
#include "umpi/rank.hpp"
#include "umpi/runtime.hpp"

namespace manatee::umpi::coll {

/// Smallest power of two >= p (p >= 1).
inline int ceil_pow2(int p) {
  int m = 1;
  while (m < p) m <<= 1;
  return m;
}

/// Largest power of two <= p (p >= 1).
inline int floor_pow2(int p) {
  int m = 1;
  while (m * 2 <= p) m <<= 1;
  return m;
}

inline bool is_pow2(int p) { return p > 0 && (p & (p - 1)) == 0; }

inline void copy_bytes(std::span<std::byte> dst, std::span<const std::byte> src) {
  MANATEE_CHECK(dst.size() >= src.size(), "collective buffer too small");
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
}

/// Byte range of ring block `i` when `count` elements of size `esize` are
/// split over `p` nearly equal blocks (first count%p blocks one element
/// longer) — the uneven-block partition of ring allreduce.
struct ByteRange {
  std::size_t off = 0;
  std::size_t len = 0;
};

inline ByteRange elem_block(std::size_t count, int p, int i, std::size_t esize) {
  const std::size_t base = count / static_cast<std::size_t>(p);
  const std::size_t extra = count % static_cast<std::size_t>(p);
  const auto u = static_cast<std::size_t>(i);
  const std::size_t off = u * base + std::min(u, extra);
  const std::size_t len = base + (u < extra ? 1 : 0);
  return ByteRange{off * esize, len * esize};
}

void register_rooted_algorithms(Registry& registry);
void register_global_algorithms(Registry& registry);
void register_hier_algorithms(Registry& registry);

}  // namespace manatee::umpi::coll
