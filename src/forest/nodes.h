// "Nodes" (paper §II-C/E): construct a globally unique numbering of the
// independent unknowns of a continuous (here: tri/bi-linear) finite element
// space on a 2:1-balanced forest, including
//   * canonicalization of nodes on inter-tree boundaries (a node shared by
//     several trees is represented once, in the lowest frame; paper §II-E),
//   * hanging-node constraints: a corner node lying in the interior of a
//     coarse neighbor's face or edge carries no unknown of its own; its
//     element slot interpolates the corners of the constraining entity,
//     which 2:1 balance keeps independent (one level of constraint),
//   * distributed ownership: an independent node is owned by the lowest
//     rank among the owners of the leaves touching it; ids are assigned
//     contiguously per rank (exscan) and resolved across ranks with at
//     most two query rounds.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "forest/delta.h"
#include "forest/forest.h"
#include "forest/ghost.h"

namespace esamr::forest {

template <int Dim>
struct NodeNumbering;

/// State carried between adapt steps by the incremental node-table path: the
/// partition fingerprint and leaf snapshot the numbering was built against,
/// plus the numbering itself (patched in place by build_incremental).
template <int Dim>
struct NodesCache {
  std::vector<SfcPosition> markers;
  std::vector<std::vector<Octant<Dim>>> leaves;
  NodeNumbering<Dim> numbering;
  bool valid = false;
};

template <int Dim>
struct NodeNumbering {
  /// Canonical node identity: tree id plus lattice point in that tree.
  using Key = std::array<std::int32_t, 4>;  // (tree, x, y, z)

  struct Contrib {
    std::int64_t gid;
    double weight;
  };
  /// Per local element (SFC order), per corner slot: the interpolation of
  /// that slot onto independent global nodes, stored flat — slot i = e *
  /// num_corners + c holds contribs[slot_offsets[i], slot_offsets[i + 1]),
  /// sorted by gid. Independent slots hold a single entry of weight one.
  std::vector<std::size_t> slot_offsets;
  std::vector<Contrib> contribs;

  /// The contributions of corner c of local element e.
  std::span<const Contrib> slot(std::size_t e, int c) const {
    const std::size_t i = e * Topo<Dim>::num_corners + static_cast<std::size_t>(c);
    return {contribs.data() + slot_offsets[i], contribs.data() + slot_offsets[i + 1]};
  }
  /// Number of local elements the slots cover.
  std::size_t num_elements() const {
    return slot_offsets.empty() ? 0 : (slot_offsets.size() - 1) / Topo<Dim>::num_corners;
  }

  std::int64_t num_owned = 0;
  std::int64_t owned_offset = 0;  ///< my ids are [owned_offset, owned_offset + num_owned)
  std::int64_t num_global = 0;
  /// Per-rank id range starts (size P+1); owner of a gid by upper_bound.
  std::vector<std::int64_t> rank_offsets;
  /// Canonical keys of the nodes this rank owns, indexed by gid - owned_offset.
  std::vector<Key> owned_keys;
  /// Canonical key of every gid referenced by this rank's element slots
  /// (owned or not), sorted by gid. Lets local code compute node positions
  /// (e.g. boundary values) without further communication.
  std::vector<std::pair<std::int64_t, Key>> gid_keys;

  /// Key of a locally referenced gid (throws if unknown to this rank).
  const Key& key_of(std::int64_t gid) const;

  int owner_of_gid(std::int64_t gid) const {
    int lo = 0, hi = static_cast<int>(rank_offsets.size()) - 2;
    while (lo < hi) {
      const int mid = (lo + hi + 1) / 2;
      if (rank_offsets[static_cast<std::size_t>(mid)] <= gid) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }

  /// Build the numbering for a 2:1-balanced forest with its ghost layer.
  /// The precondition is checked: a forest on which a hanging node's master
  /// hangs too, which 2:1 balance rules out, throws std::runtime_error
  /// naming 2:1 balance.
  static NodeNumbering build(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost);

  /// Incremental build after a tracked adapt step (collective). It runs the
  /// same engine as build(), but only on the elements with a corner in the
  /// closed delta, in some tree frame; owned nodes whose every touching leaf
  /// is unchanged survive with their relative order intact, so the reused
  /// contribution lists only need a monotone gid remap. The result — ids
  /// included — is identical to a full build() on the new forest. Falls back to build() (and recaptures
  /// the cache) when the cache is invalid, the partition changed, or the
  /// delta overflowed; the decision is collective. Returns the numbering now
  /// held by `cache`.
  static const NodeNumbering& build_incremental(const Forest<Dim>& forest,
                                                const GhostLayer<Dim>& ghost,
                                                DeltaSet<Dim>& delta, NodesCache<Dim>& cache);
};

extern template struct NodeNumbering<2>;
extern template struct NodeNumbering<3>;

}  // namespace esamr::forest
