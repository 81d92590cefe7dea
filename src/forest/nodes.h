// "Nodes" (paper §II-C/E): construct a globally unique numbering of the
// independent unknowns of a continuous (here: tri/bi-linear) finite element
// space on a 2:1-balanced forest, in the layout of p4est's lnodes: one node
// per element corner plus a code of the corners that hang. It covers
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
#include <bit>
#include <cstdint>
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
  /// The interpolation of one element corner onto independent nodes: 1, 2 or
  /// 4 contributions of equal weight, sorted by gid.
  struct Slot {
    std::array<Contrib, 4> c{};
    std::size_t n = 0;
    const Contrib* begin() const { return c.data(); }
    const Contrib* end() const { return c.data() + n; }
    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
  };

  /// Per local element (SFC order), one gid per corner: element e's corner
  /// c is element_nodes[e * num_corners + c]. An independent corner holds
  /// its own node; a hanging one the node at corner c of the element's
  /// parent.
  std::vector<std::int64_t> element_nodes;
  /// Per local element: bit c is set iff corner c hangs; bits 8-10 hold the
  /// element's child id.
  std::vector<std::uint16_t> element_code;

  /// The contributions of corner c of local element e. Corner c of child k
  /// lies where its parent P is halved along the axes D = c ^ k; a hanging
  /// one is the midpoint of an edge of P (|D| = 1) or the centre of a face
  /// (|D| = 2). Under 2:1 balance its constraining leaf has P's level and
  /// shares that edge or face, so the masters are P's corners (k & ~D) | s
  /// for s ⊆ D, each of weight 1 / 2^|D|. Every other corner of the element
  /// on that edge or face hangs too, or is corner k, P's own, so the row
  /// holds the masters at exactly those corners.
  Slot slot(std::size_t e, int c) const {
    const std::int64_t* row = element_nodes.data() + e * Topo<Dim>::num_corners;
    const unsigned code = element_code[e];
    Slot s;
    if (((code >> c) & 1u) == 0) {
      s.c[0] = Contrib{row[c], 1.0};
      s.n = 1;
      return s;
    }
    const unsigned k = code >> 8;
    const unsigned d = static_cast<unsigned>(c) ^ k;
    const double w = 1.0 / static_cast<double>(1u << std::popcount(d));
    unsigned sub = 0;  // the subsets of d, in increasing order
    do {
      // Insertion sort of at most four: std::sort on the fixed array trips
      // GCC 12's -Warray-bounds in sanitizer builds.
      const Contrib x{row[(k & ~d) | sub], w};
      std::size_t j = s.n++;
      for (; j > 0 && s.c[j - 1].gid > x.gid; --j) s.c[j] = s.c[j - 1];
      s.c[j] = x;
      sub = (sub - d) & d;
    } while (sub != 0);
    return s;
  }
  /// Number of local elements the rows cover.
  std::size_t num_elements() const { return element_code.size(); }

  std::int64_t num_owned = 0;
  std::int64_t owned_offset = 0;  ///< my ids are [owned_offset, owned_offset + num_owned)
  std::int64_t num_global = 0;
  /// Per-rank id range starts (size P+1); owner of a gid by upper_bound.
  std::vector<std::int64_t> rank_offsets;
  /// Canonical keys of the nodes this rank owns, indexed by gid - owned_offset.
  std::vector<Key> owned_keys;
  /// Canonical key of every gid referenced by this rank's element rows
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
  /// is unchanged survive with their relative order intact, so a reused
  /// row keeps its code and only needs its gids remapped. The result — ids
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
