// FNV-1a style digests shared by the golden tests: a fold step, and a digest
// over the bits of a distributed nodal field gathered in global SFC order.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "par/comm.h"

inline void fold(std::uint64_t& h, std::int64_t v) {
  h ^= static_cast<std::uint64_t>(v);
  h *= 1099511628211ull;
}

/// Digest of every rank's field blocks in rank order (local blocks are in SFC
/// order, so this is global SFC order): one fold per value over its bits.
/// Collective; every rank returns the same digest.
template <typename T>
std::uint64_t field_digest(esamr::par::Comm& c, std::span<const T> local) {
  static_assert(std::is_floating_point_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
  using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& part : c.allgatherv(local)) {
    for (const T v : part) {
      Bits b;
      std::memcpy(&b, &v, sizeof(b));
      fold(h, static_cast<std::int64_t>(b));
    }
  }
  return h;
}
