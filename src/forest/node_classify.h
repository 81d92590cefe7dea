// Point classification for Nodes (forest/nodes.cc), shared with the tests
// that hold the corner iterator against the directory-lookup path. Not part
// of the public API.
//
// Pass 1 of Nodes keeps one PointRecord per node point: its owner and, for a
// hanging point, the owner and level of the leaf that constrains it. Both
// classification paths return it — the corner iterator's adjacency for
// tree-interior points, leaf lookups in every tree frame for the rest. The
// masters are not formed from it: a hanging element corner takes its
// parent's corner (nodes.h), and the constraining leaf's owner is the rank
// to ask for that node.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "forest/ghost.h"
#include "forest/iterate.h"
#include "forest/nodes.h"
#include "forest/stats.h"

namespace esamr::forest::detail {

/// What pass 1 learns of a node point (12 B). The classification rule
/// (paper Fig. 3): a point is independent iff it is a corner of every leaf
/// touching it; its owner is the minimum rank owning a touching leaf; a
/// hanging point is constrained by the first coarsest touching leaf, frame
/// by frame in quadrant order, of which it is not a corner. Under 2:1
/// balance that leaf is the neighbour of the hanging element's parent across
/// the parent's face or edge holding the point, so the masters are its
/// corners there, and its owner knows them.
template <int Dim>
struct PointRecord {
  std::int32_t owner = std::numeric_limits<std::int32_t>::max();
  std::int32_t leaf_owner = -1;  ///< owner of the constraining leaf; -1 if independent
  std::int32_t leaf_level = -1;  ///< level of the constraining leaf

  bool hanging() const { return leaf_owner >= 0; }

  /// Fold in one incidence: leaf `l` (owned by `rank`) touches the point,
  /// which is one of l's corners iff `corner`.
  void touch(const Octant<Dim>& l, std::int32_t rank, bool corner) {
    owner = std::min(owner, rank);
    if (corner || (hanging() && l.level >= leaf_level)) return;
    leaf_owner = rank;
    leaf_level = l.level;
  }
};
static_assert(sizeof(PointRecord<3>) == 12);

/// Shared geometric machinery: leaf lookup, canonical keys, and the two
/// classification paths of the PointRecord rule.
template <int Dim>
struct NodeClassifier {
  using Oct = Octant<Dim>;
  using T = Topo<Dim>;
  using Key = typename NodeNumbering<Dim>::Key;
  using Rec = PointRecord<Dim>;

  const Connectivity<Dim>& conn;
  std::vector<std::vector<LeafRef<Dim>>> dir;
  OpStats& ops;

  NodeClassifier(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost)
      : conn(forest.conn()), dir(build_leaf_directory(forest, ghost)), ops(op_stats()) {}

  /// True iff the point lies strictly inside the tree's root cube, i.e. on no
  /// macro face/edge/corner — then it has no images in other tree frames.
  static bool tree_interior(const std::array<std::int32_t, 3>& pt) {
    for (int a = 0; a < Dim; ++a) {
      if (pt[static_cast<std::size_t>(a)] <= 0 ||
          pt[static_cast<std::size_t>(a)] >= Oct::root_len) {
        return false;
      }
    }
    return true;
  }

  /// Find the known leaf containing a (max-level) cell, or nullptr.
  const LeafRef<Dim>* find_leaf(int t, const Oct& cell) const {
    ops.nodes_leaf_lookups++;
    const auto& v = dir[static_cast<std::size_t>(t)];
    const auto it = std::upper_bound(
        v.begin(), v.end(), cell,
        [](const Oct& a, const LeafRef<Dim>& b) { return a < b.oct; });
    if (it == v.begin() || !(it - 1)->oct.contains(cell)) return nullptr;
    return &*(it - 1);
  }

  /// The point's representation in the lowest tree frame.
  Key canonical(int t, std::array<std::int32_t, 3> pt) const {
    Key best{t, pt[0], pt[1], pt[2]};
    if (tree_interior(pt)) return best;  // sole frame
    conn.point_images(t, pt, images_);
    for (const auto& [ft, fp] : images_) best = std::min(best, Key{ft, fp[0], fp[1], fp[2]});
    return best;
  }

  /// Classify a tree-interior point from the leaves around it in tree t, as
  /// the corner iterator visits them; the caller guarantees all are known.
  Rec classify_adjacency(int t, const CornerAdjacency<Dim>& adj) const {
    Rec rec;
    const auto& d = dir[static_cast<std::size_t>(t)];
    for (int q = 0; q < T::num_corners; ++q) {
      // Quadrant q lies below the point along axis a iff bit a of q is set;
      // the iterator's positions count the other way.
      const auto i = static_cast<std::size_t>((T::num_corners - 1) ^ q);
      const LeafRef<Dim>& l = d[static_cast<std::size_t>(adj.leaf[i])];
      rec.touch(l.oct, l.owner, adj.corner[i] >= 0);
    }
    return rec;
  }

  /// Classify the node point (t, pt) by looking up its touching leaves in
  /// every tree frame. The caller guarantees the point is a corner of one of
  /// this rank's local leaves, or was routed here by a rank that found this
  /// rank owning the node or its constraining leaf, so every touching leaf is
  /// known locally (local or ghost).
  Rec classify(int t, std::array<std::int32_t, 3> pt) const {
    Rec rec;
    const auto visit_frame = [&](int ft, const std::array<std::int32_t, 3>& fp) {
      for (int q = 0; q < T::num_corners; ++q) {
        // The finest-level cell adjacent to the point in quadrant q.
        Oct cell;
        cell.level = Oct::max_level;
        bool ok = true;
        for (int a = 0; a < Dim; ++a) {
          const std::int32_t c = fp[static_cast<std::size_t>(a)] - (((q >> a) & 1) ? 1 : 0);
          if (c < 0 || c >= Oct::root_len) ok = false;
          cell.set_coord(a, c);
        }
        if (!ok) continue;
        const LeafRef<Dim>* leaf = find_leaf(ft, cell);
        if (leaf == nullptr) {
          throw std::runtime_error("nodes: touching leaf not in local+ghost storage");
        }
        bool is_corner = true;
        for (int a = 0; a < Dim; ++a) {
          const std::int32_t rel = fp[static_cast<std::size_t>(a)] - leaf->oct.coord(a);
          if (rel != 0 && rel != leaf->oct.size()) is_corner = false;
        }
        rec.touch(leaf->oct, leaf->owner, is_corner);
      }
    };
    visit_frame(t, pt);
    if (!tree_interior(pt)) {
      conn.point_images(t, pt, images_);
      for (const auto& [ft, fp] : images_) visit_frame(ft, fp);
    }
    return rec;
  }

 private:
  /// Scratch for point_images, reused so canonicalization allocates nothing
  /// (each rank builds its own classifier).
  mutable std::vector<typename Connectivity<Dim>::PointImage> images_;
};

}  // namespace esamr::forest::detail
