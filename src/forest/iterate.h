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
//
// The walk is a template on its visitor, so the per-point call inlines into
// the caller's loop.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

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

namespace detail {

/// The recursion behind iterate_corners.
template <int Dim, typename Visit>
class CornerWalk {
 public:
  using Oct = Octant<Dim>;
  static constexpr int nc = Topo<Dim>::num_corners;
  static constexpr int all_axes = nc - 1;

  CornerWalk(std::span<const LeafRef<Dim>> dir, std::span<const std::uint8_t> marked, Visit& visit)
      : dir_(dir), marked_(marked), prefix_(dir.size() + 1, 0), visit_(visit) {
    for (std::size_t i = 0; i < dir.size(); ++i) prefix_[i + 1] = prefix_[i] + (marked[i] ? 1 : 0);
  }

  void run() {
    Sides root;
    root.fill(side_of(0, static_cast<std::int32_t>(dir_.size()), 0));
    if (live(0, root)) entity(0, 0, {0, 0, 0}, root);
  }

 private:
  /// A region at some level, as the leaves of the directory overlapping it:
  /// kEmpty (none), leaf_side(i) (dir_[i] covers the region), or the index
  /// of a node (leaves strictly inside the region). The first two are
  /// negative: the side is settled and no split reaches below it.
  using Side = std::int32_t;
  using Sides = std::array<Side, nc>;
  static constexpr Side kEmpty = -1;
  static constexpr Side leaf_side(std::int32_t i) { return -2 - i; }
  static constexpr std::int32_t leaf_of(Side s) { return -2 - s; }

  /// A region split further by the directory: its leaves dir_[lo, hi) and,
  /// once some entity needed them, its 2^Dim children (each region is split
  /// once, however many faces, edges and corners it borders).
  struct Node {
    std::int32_t lo, hi;
    bool marked;  // some leaf in dir_[lo, hi) is marked
    bool split = false;
    Sides child{};
  };

  /// The side holding dir_[lo, hi), the leaves overlapping a level-l region.
  Side side_of(std::int32_t lo, std::int32_t hi, int l) {
    if (lo == hi) return kEmpty;
    if (hi - lo == 1 && dir_[static_cast<std::size_t>(lo)].oct.level <= l) return leaf_side(lo);
    nodes_.push_back(Node{lo, hi,
                          prefix_[static_cast<std::size_t>(hi)] > prefix_[static_cast<std::size_t>(lo)]});
    return static_cast<Side>(nodes_.size() - 1);
  }

  bool has_mark(Side s) const {
    if (s == kEmpty) return false;
    if (s < 0) return marked_[static_cast<std::size_t>(leaf_of(s))] != 0;
    return nodes_[static_cast<std::size_t>(s)].marked;
  }

  /// Child id of the level-(l + 1) ancestor of an octant deeper than l.
  static int child_id(const Oct& o, int l) {
    const int s = Oct::max_level - l - 1;
    int id = ((o.x >> s) & 1) | (((o.y >> s) & 1) << 1);
    if constexpr (Dim == 3) id |= ((o.z >> s) & 1) << 2;
    return id;
  }

  /// Split a level-l node side into its children, once; a settled side
  /// needs no split.
  void split(Side s, int l) {
    if (s < 0 || nodes_[static_cast<std::size_t>(s)].split) return;
    // The leaves inside a region are sorted by their level-(l + 1) child id.
    const auto* b = dir_.data();
    std::int32_t lo = nodes_[static_cast<std::size_t>(s)].lo;
    const std::int32_t end = nodes_[static_cast<std::size_t>(s)].hi;
    Sides ch;
    for (int k = 0; k < nc; ++k) {
      const auto hi = static_cast<std::int32_t>(
          std::partition_point(b + lo, b + end,
                               [&](const LeafRef<Dim>& d) { return child_id(d.oct, l) <= k; }) -
          b);
      ch[static_cast<std::size_t>(k)] = side_of(lo, hi, l + 1);  // may grow nodes_
      lo = hi;
    }
    nodes_[static_cast<std::size_t>(s)].child = ch;
    nodes_[static_cast<std::size_t>(s)].split = true;
  }

  /// Child k of a side that split() has seen: an empty or leaf side is its
  /// own child everywhere.
  Side child(Side s, int k) const {
    return s < 0 ? s : nodes_[static_cast<std::size_t>(s)].child[static_cast<std::size_t>(k)];
  }

  /// True when an entity (see entity()) may hold a point to report: some
  /// side holds a marked leaf and, unless the entity is a corner, some side
  /// is split further (interiors, faces and edges between settled sides hold
  /// no leaf corner).
  bool live(int normal, const Sides& sides) const {
    bool any_mark = false;
    bool all_settled = true;
    for (int i = normal;; i = (i - 1) & normal) {  // the distinct sides
      any_mark = any_mark || has_mark(sides[static_cast<std::size_t>(i)]);
      all_settled = all_settled && sides[static_cast<std::size_t>(i)] < 0;
      if (i == 0) break;
    }
    return any_mark && (normal == all_axes || !all_settled);
  }

  /// Walk one live entity between level-l regions, named by its normal axes
  /// (the set bits of `normal`): none is the interior of one region, one
  /// axis a face, two axes (3D) an edge, all axes a corner point. sides[i]
  /// is the region on the upper side of normal axis a iff bit a of i is set;
  /// entries at positions with bits of the other axes set are not read.
  /// `origin` is the lower corner of sides[0]'s region.
  void entity(int l, int normal, const std::array<std::int32_t, 3>& origin, const Sides& sides) {
    const std::int32_t h = Oct::root_len >> l;
    const std::int32_t half = h / 2;
    if (normal == all_axes) {
      bool settled = true;
      for (const Side s : sides) settled = settled && s < 0;
      if (settled) {
        report(origin, h, sides);
        return;
      }
      // Descend toward the point: the child of each side that touches it.
      Sides down;
      for (int i = 0; i < nc; ++i) {
        const Side s = sides[static_cast<std::size_t>(i)];
        split(s, l);
        down[static_cast<std::size_t>(i)] = child(s, all_axes ^ i);
      }
      if (!live(normal, down)) return;
      std::array<std::int32_t, 3> o = origin;
      for (int a = 0; a < Dim; ++a) o[static_cast<std::size_t>(a)] += half;
      entity(l + 1, normal, o, down);
      return;
    }
    for (int s = normal;; s = (s - 1) & normal) {  // the distinct sides
      split(sides[static_cast<std::size_t>(s)], l);
      if (s == 0) break;
    }
    // The split creates 3^k entities for k tangential axes: each subset m of
    // them joins the normal axes, and the remaining tangential axes pick a
    // half (p). The side at position i is the child of sides[i] adjacent to
    // the entity along the old normal axes, on side i of the new ones, and
    // in half p along the rest. Only the positions i within the new normal
    // axes are distinct, so only those are filled.
    const int tangential = all_axes & ~normal;
    for (int m = tangential;; m = (m - 1) & tangential) {
      const int rest = tangential & ~m;
      const int sub_normal = normal | m;
      for (int p = rest;; p = (p - 1) & rest) {
        Sides sub;
        for (int i = sub_normal;; i = (i - 1) & sub_normal) {
          const int k = (~i & normal) | (i & m) | p;
          sub[static_cast<std::size_t>(i)] = child(sides[static_cast<std::size_t>(i & normal)], k);
          if (i == 0) break;
        }
        if (live(sub_normal, sub)) {
          std::array<std::int32_t, 3> o = origin;
          for (int a = 0; a < Dim; ++a) {
            if (((normal | p) >> a) & 1) o[static_cast<std::size_t>(a)] += half;
          }
          entity(l + 1, sub_normal, o, sub);
        }
        if (p == 0) break;
      }
      if (m == 0) break;
    }
  }

  /// A corner whose sides are all settled: the point is the upper corner of
  /// sides[0]'s region (lower corner `origin`, side length h).
  void report(const std::array<std::int32_t, 3>& origin, std::int32_t h, const Sides& sides) {
    CornerAdjacency<Dim> adj;
    for (int a = 0; a < Dim; ++a) adj.pt[static_cast<std::size_t>(a)] = origin[static_cast<std::size_t>(a)] + h;
    for (int i = 0; i < nc; ++i) {
      const Side s = sides[static_cast<std::size_t>(i)];
      auto& leaf = adj.leaf[static_cast<std::size_t>(i)];
      auto& corner = adj.corner[static_cast<std::size_t>(i)];
      if (s == kEmpty) {
        leaf = -1;
        corner = -1;
        continue;
      }
      leaf = leaf_of(s);
      const Oct& o = dir_[static_cast<std::size_t>(leaf)].oct;
      // The leaf at position i lies above the point along axis a iff bit a
      // of i is set, so the point can only be its corner (~i & all_axes).
      bool is_corner = true;
      for (int a = 0; a < Dim; ++a) {
        const std::int32_t rel = adj.pt[static_cast<std::size_t>(a)] - o.coord(a);
        is_corner = is_corner && rel == (((i >> a) & 1) ? 0 : o.size());
      }
      corner = static_cast<std::int8_t>(is_corner ? (~i & all_axes) : -1);
    }
    visit_(adj);
  }

  std::span<const LeafRef<Dim>> dir_;
  std::span<const std::uint8_t> marked_;
  std::vector<std::int32_t> prefix_;  ///< prefix_[i]: marked leaves in dir_[0, i)
  std::vector<Node> nodes_;
  Visit& visit_;
};

}  // namespace detail

/// Call `visit(const CornerAdjacency<Dim>&)` once for every lattice point
/// strictly inside the tree that touches a marked leaf. `dir` is one tree's
/// leaf directory (sorted, non-overlapping, all inside the root); `marked`
/// is parallel to it. Subtrees holding no marked leaf are skipped.
template <int Dim, typename Visit>
void iterate_corners(std::span<const LeafRef<Dim>> dir, std::span<const std::uint8_t> marked,
                     Visit&& visit) {
  if (marked.size() != dir.size()) {
    throw std::invalid_argument("iterate_corners: marks must be parallel to the directory");
  }
  detail::CornerWalk<Dim, std::remove_reference_t<Visit>>(dir, marked, visit).run();
}

}  // namespace esamr::forest
