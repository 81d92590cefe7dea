// Test-only reference oracles (the `esamr_oracles` library): earlier or
// simpler formulations of library algorithms, kept so differential tests
// and bench_comm can compare the production path against them. They are
// free functions over the public Forest / GhostLayer API, so src/ ships
// exactly one implementation of each algorithm.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "forest/forest.h"
#include "forest/ghost.h"

namespace esamr::oracles {

/// The original Morton key: one bit of each coordinate per iteration over
/// all max_level bits. Octant::key() must return the same number for every
/// input, exterior coordinates included (KeyMatchesBitLoopOracle in
/// test_octant.cc).
template <int Dim>
constexpr std::uint64_t morton_key_loop(const forest::Octant<Dim>& o) {
  std::uint64_t k = 0;
  for (int b = 0; b < forest::Octant<Dim>::max_level; ++b) {
    k |= (static_cast<std::uint64_t>((o.x >> b) & 1)) << (Dim * b + 0);
    k |= (static_cast<std::uint64_t>((o.y >> b) & 1)) << (Dim * b + 1);
    if constexpr (Dim == 3) k |= (static_cast<std::uint64_t>((o.z >> b) & 1)) << (Dim * b + 2);
  }
  return k;
}

/// Bitwise CRC32C (reflected Castagnoli polynomial 0x82F63B78): one shift
/// per bit, no table. par::crc32c must return the same value for every
/// buffer (Crc32c.MatchesBitwiseOracle in test_resil.cc).
inline std::uint32_t crc32c_bitwise(const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < nbytes; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
  }
  return ~crc;
}

/// The original iterated-ripple Balance (the seed formulation). Every leaf
/// emits same-level "shadow" constraints into its 3^Dim - 1 neighbor
/// directions; too-coarse ancestors are refined and the new children emit
/// shadows of their own until the local queue drains; boundary shadows are
/// exchanged and rounds repeat until a global fixed point (allreduce).
/// Reaches the same forest as Forest::balance() bit for bit
/// (BalanceEquivalence in test_balance.cc), at a higher constant.
template <int Dim>
void balance_ripple(forest::Forest<Dim>& f);

extern template void balance_ripple<2>(forest::Forest<2>&);
extern template void balance_ripple<3>(forest::Forest<3>&);

/// Blocking twin of GhostLayer::exchange (one alltoallv that copies every
/// packed buffer into the collective); same element-ordered `fields`,
/// identical result.
template <int Dim, typename T>
std::vector<T> exchange_blocking(const forest::GhostLayer<Dim>& g, par::Comm& comm,
                                 std::span<const T> fields, int per_elem) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = comm.size();
  std::vector<std::vector<T>> send(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& buf = send[static_cast<std::size_t>(r)];
    for (const std::int32_t mi : g.mirror_lists[static_cast<std::size_t>(r)]) {
      const auto elem = g.mirrors[static_cast<std::size_t>(mi)].local_index;
      const T* block = fields.data() + static_cast<std::size_t>(elem) * per_elem;
      buf.insert(buf.end(), block, block + per_elem);
    }
  }
  const auto recv = comm.alltoallv(send);
  std::vector<T> out(g.ghosts.size() * static_cast<std::size_t>(per_elem));
  for (int r = 0; r < p; ++r) {
    const auto& from = recv[static_cast<std::size_t>(r)];
    std::memcpy(out.data() + g.rank_offset[static_cast<std::size_t>(r)] * per_elem, from.data(),
                from.size() * sizeof(T));
  }
  return out;
}

}  // namespace esamr::oracles
