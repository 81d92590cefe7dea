// Point classification for Nodes (forest/nodes.cc), shared with the tests
// that hold the corner iterator against the directory-lookup path. Not part
// of the public API.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "forest/ghost.h"
#include "forest/iterate.h"
#include "forest/nodes.h"
#include "forest/stats.h"

namespace esamr::forest::detail {

/// Local classification of a node point.
template <int Dim>
struct Classification {
  /// A hanging point's masters are the corners of a face or an edge.
  static constexpr int kMaxMasters = 4;
  bool independent = false;
  int owner = -1;       // if independent
  int num_masters = 0;  // if dependent
  std::array<typename NodeNumbering<Dim>::Key, kMaxMasters> masters{};
  std::array<int, kMaxMasters> ask{};  // rank to ask per master
};

/// Shared geometric machinery: leaf lookup, frame/canonical key logic, and
/// the point classification rule (paper Fig. 3): a point is independent iff
/// it is a corner of every touching leaf; its owner is the minimum touching
/// rank; a hanging point's masters are the corners of the face/edge of the
/// coarsest incidence for which it is not a corner.
template <int Dim>
struct NodeClassifier {
  using Oct = Octant<Dim>;
  using T = Topo<Dim>;
  using Key = typename NodeNumbering<Dim>::Key;
  using Cls = Classification<Dim>;

  const Connectivity<Dim>& conn;
  std::vector<std::vector<LeafRef<Dim>>> dir;
  int nranks;
  OpStats& ops;

  NodeClassifier(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost)
      : conn(forest.conn()),
        dir(build_leaf_directory(forest, ghost)),
        nranks(forest.comm().size()),
        ops(op_stats()) {}

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
    for (const auto& [ft, fp] : conn.point_images(t, pt)) {
      best = std::min(best, Key{ft, fp[0], fp[1], fp[2]});
    }
    return best;
  }

  /// One incidence of a leaf at the node point, in some tree frame.
  struct Touch {
    int tree;
    Oct oct;
    int owner;
    std::array<std::int32_t, 3> pt;  // the node point in this frame
    bool corner;                     // point is a corner of the leaf
  };

  /// The classification rule over the distinct leaves touching a point,
  /// frame by frame in quadrant order (ties between equally coarse
  /// constraining leaves go to the first, which picks the rank to ask).
  Cls classify_touches(std::span<const Touch> touching) const {
    Cls cls;
    cls.independent = true;
    cls.owner = nranks;
    for (const Touch& tc : touching) {
      cls.owner = std::min(cls.owner, tc.owner);
      if (!tc.corner) cls.independent = false;
    }
    if (cls.independent) return cls;
    // Dependent: the constraining entity is the face/edge of the coarsest
    // incidence for which the point is not a corner.
    const Touch* best = nullptr;
    for (const Touch& tc : touching) {
      if (!tc.corner && (best == nullptr || tc.oct.level < best->oct.level)) best = &tc;
    }
    const std::int32_t h = best->oct.size();
    // Masters: corners of the constraining entity (2^k of them for its k
    // interior axes, in ascending axis order).
    std::array<int, 3> axes{};
    int naxes = 0;
    for (int a = 0; a < Dim; ++a) {
      const std::int32_t rel = best->pt[static_cast<std::size_t>(a)] - best->oct.coord(a);
      if (rel != 0 && rel != h) axes[static_cast<std::size_t>(naxes++)] = a;
    }
    if (naxes > 2) throw std::runtime_error("nodes: point inside a touching leaf");
    cls.num_masters = 1 << naxes;
    for (int combo = 0; combo < cls.num_masters; ++combo) {
      std::array<std::int32_t, 3> m = best->pt;
      for (int i = 0; i < naxes; ++i) {
        const int a = axes[static_cast<std::size_t>(i)];
        m[static_cast<std::size_t>(a)] = best->oct.coord(a) + (((combo >> i) & 1) ? h : 0);
      }
      cls.masters[static_cast<std::size_t>(combo)] = canonical(best->tree, m);
      cls.ask[static_cast<std::size_t>(combo)] = best->owner;
    }
    return cls;
  }

  /// Classify a tree-interior point from the leaves around it in tree t, as
  /// the corner iterator visits them; the caller guarantees all are known.
  Cls classify_adjacency(int t, const CornerAdjacency<Dim>& adj) const {
    std::array<Touch, T::num_corners> touching;
    std::array<std::int32_t, T::num_corners> seen{};
    std::size_t ntouch = 0;
    for (int q = 0; q < T::num_corners; ++q) {
      // Quadrant q lies below the point along axis a iff bit a of q is set;
      // the iterator's positions count the other way.
      const auto i = static_cast<std::size_t>((T::num_corners - 1) ^ q);
      const std::int32_t di = adj.leaf[i];
      // One frame: a repeated directory index is a leaf spanning quadrants.
      if (std::find(seen.begin(), seen.begin() + static_cast<std::ptrdiff_t>(ntouch), di) !=
          seen.begin() + static_cast<std::ptrdiff_t>(ntouch)) {
        continue;
      }
      const LeafRef<Dim>& leaf = dir[static_cast<std::size_t>(t)][static_cast<std::size_t>(di)];
      seen[ntouch] = di;
      touching[ntouch++] = Touch{t, leaf.oct, leaf.owner, adj.pt, adj.corner[i] >= 0};
    }
    return classify_touches({touching.data(), ntouch});
  }

  /// Classify the node point (t, pt) by looking up its touching leaves in
  /// every tree frame. The caller guarantees the point is a corner of one of
  /// this rank's local leaves, or was routed here by a rank that found this
  /// rank owning the node or its constraining leaf, so every touching leaf is
  /// known locally (local or ghost).
  Cls classify(int t, std::array<std::int32_t, 3> pt) const {
    // Inline buffer: frames x quadrants incidences. Macro-corner valence is
    // small in practice; overflow fails loudly rather than silently
    // truncating.
    std::array<Touch, 64> touching;
    std::size_t ntouch = 0;
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
        Touch tc{ft, leaf->oct, leaf->owner, fp, is_corner};
        bool dup = false;
        for (std::size_t x = 0; x < ntouch; ++x) {
          const Touch& tx = touching[x];
          if (tx.tree == tc.tree && tx.oct == tc.oct && tx.pt == tc.pt) dup = true;
        }
        if (!dup) {
          if (ntouch == touching.size()) {
            throw std::runtime_error("nodes: corner valence exceeds touch buffer");
          }
          touching[ntouch++] = tc;
        }
      }
    };
    visit_frame(t, pt);
    if (!tree_interior(pt)) {
      for (const auto& [ft, fp] : conn.point_images(t, pt)) visit_frame(ft, fp);
    }
    return classify_touches({touching.data(), ntouch});
  }
};

}  // namespace esamr::forest::detail
