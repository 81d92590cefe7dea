// DeltaSet<Dim>: change tracking for incremental adapt (ROADMAP "Incremental
// AMR"). A delta octant is a coarse cover of a changed region of the mesh:
//   * Refine records the OLD leaf that was subdivided,
//   * Coarsen records the NEW parent that replaced its children,
//   * Balance records every old leaf it refined away.
// Invariant relied on throughout the incremental pipeline: every leaf that
// differs between the pre- and post-adapt forests is a descendant-of-or-equal
// of some recorded delta octant, and leaves inside a delta octant d have
// level >= level(d) both before and after the adapt step. Consumers
// (balance seed filter, node-table patching, delta checkpoints) derive
// their invalidation regions from the normalized set — sorted,
// deduplicated, outermost octants only, hence mutually disjoint — which
// the balance seed filter widens by same-size insulation rings mapped
// across tree junctions (closure()).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "forest/connectivity.h"
#include "forest/octant.h"
#include "par/comm.h"

namespace esamr::forest {

template <int Dim>
struct DeltaSet {
  using Oct = Octant<Dim>;

  /// Per-tree recorded change regions. Normalized on demand; record() may
  /// append freely (duplicates and nested octants are fine).
  std::vector<std::vector<Oct>> regions;

  /// Set when an adapt step abandoned the incremental path (threshold
  /// exceeded or invalid caches): downstream consumers must
  /// fall back to their full rebuilds and re-capture their caches.
  bool overflow = false;

  DeltaSet() = default;
  explicit DeltaSet(int num_trees) : regions(static_cast<std::size_t>(num_trees)) {}

  void record(int tree, const Oct& region) {
    regions[static_cast<std::size_t>(tree)].push_back(region);
    normalized_ = false;
  }

  bool empty() const {
    for (const auto& v : regions) {
      if (!v.empty()) return false;
    }
    return true;
  }

  void clear() {
    for (auto& v : regions) v.clear();
    overflow = false;
    normalized_ = true;
  }

  /// Sort each tree's regions in SFC order, drop duplicates and any octant
  /// contained in another (the outermost cover). The result per tree is
  /// sorted and mutually disjoint, so overlapping_range() applies.
  void normalize();

  /// Total number of delta octants across trees (normalizes first).
  std::int64_t count();

  /// Union of every rank's regions, replicated on all ranks (collective).
  DeltaSet replicated(par::Comm& comm) const;

  /// The delta regions widened by `rings` same-size insulation rings, mapped
  /// into neighbor trees across macro faces/edges/corners: a sorted,
  /// disjoint superset per tree of everything within rings * size(d) of
  /// each delta octant d, which is what the balance seed filter quantifies
  /// its horizon in. A region coarser than level ceil(log2(rings + 1))
  /// makes it every tree's root.
  std::vector<std::vector<Oct>> closure(const Connectivity<Dim>& conn, int rings);

  /// True iff the lattice point `pt` (in tree-`tree` coordinates) lies in the
  /// CLOSED region of some delta octant of that tree. Callers must test every
  /// frame of a multi-tree point themselves (conn.point_images).
  bool contains_point(int tree, const std::array<std::int32_t, 3>& pt) const;

 private:
  bool normalized_ = true;
};

extern template struct DeltaSet<2>;
extern template struct DeltaSet<3>;

}  // namespace esamr::forest
