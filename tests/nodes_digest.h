// FNV-1a style digest shared by the Nodes tests (fold step in digest.h): a
// digest over every field of one rank's NodeNumbering — counts and offsets, owned
// keys, gid keys, and each element slot's (gid, weight bits).
#pragma once

#include <cstdint>
#include <cstring>

#include "digest.h"
#include "forest/nodes.h"

template <int Dim>
std::uint64_t nodes_digest(const esamr::forest::NodeNumbering<Dim>& n) {
  std::uint64_t h = 1469598103934665603ull;
  fold(h, n.num_owned);
  fold(h, n.owned_offset);
  fold(h, n.num_global);
  for (const std::int64_t r : n.rank_offsets) fold(h, r);
  for (const auto& k : n.owned_keys) {
    for (const std::int32_t v : k) fold(h, v);
  }
  for (const auto& [gid, k] : n.gid_keys) {
    fold(h, gid);
    for (const std::int32_t v : k) fold(h, v);
  }
  for (std::size_t e = 0; e < n.num_elements(); ++e) {
    for (int c = 0; c < esamr::forest::Topo<Dim>::num_corners; ++c) {
      const auto slot = n.slot(e, c);
      fold(h, static_cast<std::int64_t>(slot.size()));
      for (const auto& cb : slot) {
        fold(h, cb.gid);
        std::int64_t wb;
        std::memcpy(&wb, &cb.weight, sizeof(wb));
        fold(h, wb);
      }
    }
  }
  return h;
}
