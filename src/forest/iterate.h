// Recursive corner iteration over one tree's known leaves, after Isaac et al.,
// "Recursive Algorithms for Distributed Forests of Octrees" (the scheme of
// p4est_iterate). The tree's sorted local + ghost leaf directory is walked
// top-down as virtual octants: splitting a region visits the entities the
// split creates inside it — its children, the faces between them, in 3D the
// edges where four meet, and the center corner — and each face or edge is in
// turn split along itself, down to the corners. Every lattice point strictly
// inside the tree that is a corner of some leaf is therefore reached exactly
// once, together with the 2^Dim leaves around it, with no per-point leaf
// lookups. Points on the tree boundary, whose leaves partly live in other
// trees, are not visited.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "forest/ghost.h"

namespace esamr::forest {

/// The leaves around one tree-interior lattice point.
template <int Dim>
struct CornerAdjacency {
  static constexpr int nc = Topo<Dim>::num_corners;
  std::array<std::int32_t, 3> pt{};  ///< the point, in tree coordinates
  /// Directory index of the leaf at each position around `pt` — position i
  /// lies on the upper side of axis a iff bit a of i is set — or -1 when the
  /// directory holds no leaf there. A leaf spanning several positions
  /// appears at each of them.
  std::array<std::int32_t, nc> leaf{};
  /// Which corner of leaf[i] `pt` is, or -1 when `pt` lies inside one of
  /// that leaf's faces or edges (a hanging point as seen from that leaf).
  std::array<std::int8_t, nc> corner{};
};

/// Call `visit` once for every lattice point strictly inside the tree that
/// touches a marked leaf. `dir` is one tree's leaf directory (sorted,
/// non-overlapping, all inside the root); `marked` is parallel to it.
/// Subtrees holding no marked leaf are skipped.
template <int Dim>
void iterate_corners(std::span<const LeafRef<Dim>> dir, std::span<const std::uint8_t> marked,
                     const std::function<void(const CornerAdjacency<Dim>&)>& visit);

extern template void iterate_corners<2>(std::span<const LeafRef<2>>, std::span<const std::uint8_t>,
                                        const std::function<void(const CornerAdjacency<2>&)>&);
extern template void iterate_corners<3>(std::span<const LeafRef<3>>, std::span<const std::uint8_t>,
                                        const std::function<void(const CornerAdjacency<3>&)>&);

}  // namespace esamr::forest
