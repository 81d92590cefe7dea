// Forest<Dim>: the distributed forest of octrees (p4est reproduction).
//
// Storage is strictly rank-local: each rank holds a contiguous segment of
// the space-filling curve (the left-to-right traversal of all leaves across
// all trees, paper Fig. 2). The only globally shared metadata is the octant
// count and the first-octant position of every rank — a handful of bytes per
// rank (paper §II-B) — kept in `counts_` / `markers_` and refreshed by
// allgather after every mutating operation.
//
// The core algorithms of paper §II-C are provided as methods: New (the
// `new_uniform` factory), Refine, Coarsen, Partition (optionally weighted),
// and Balance; Ghost and Nodes build on a Forest and live in ghost.h /
// nodes.h.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "forest/connectivity.h"
#include "forest/octant.h"
#include "par/comm.h"

namespace esamr::forest {

template <int Dim>
struct DeltaSet;  // forest/delta.h

/// Position in the global space-filling-curve order: tree id plus the
/// max-level Morton key of the octant's first descendant.
struct SfcPosition {
  std::int32_t tree = 0;
  std::uint64_t key = 0;
  friend constexpr auto operator<=>(const SfcPosition&, const SfcPosition&) = default;
};

/// The octant wire format of every inter-rank transfer and of checkpoint
/// files: five int32 words, z = 0 in 2D. of() encodes, octant() decodes.
struct OctMsg {
  std::int32_t tree;
  std::int32_t x, y, z;
  std::int32_t level;

  template <int Dim>
  static OctMsg of(int tree, const Octant<Dim>& o) {
    return OctMsg{tree, o.x, o.y, Dim == 3 ? o.z : 0, o.level};
  }
  template <int Dim>
  Octant<Dim> octant() const {
    Octant<Dim> o;
    o.x = x;
    o.y = y;
    if constexpr (Dim == 3) o.z = z;
    o.level = static_cast<std::int8_t>(level);
    return o;
  }
  friend bool operator==(const OctMsg&, const OctMsg&) = default;
};

/// Reserved user-plane tags for the library's own point-to-point exchanges,
/// chosen high so they stay clear of application and test tags. Each
/// (sender, receiver) pair carries at most one message per phase, so
/// per-pair FIFO delivery keeps repeated phases unambiguous. 0x5f9e72 is the
/// solver's halo swap (solver/dist_csr.h).
inline constexpr int tag_ghost_build = 0x5f9e70;
inline constexpr int tag_ghost_exchange = 0x5f9e71;
inline constexpr int tag_partition_borrow = 0x5f9e73;

template <int Dim>
class Forest {
 public:
  using Oct = Octant<Dim>;
  using Conn = Connectivity<Dim>;
  using T = Topo<Dim>;

  /// "New": create an equi-partitioned, uniformly refined forest
  /// (paper §II-C). `level` may be zero, in which case some ranks own no
  /// octants at all.
  static Forest new_uniform(par::Comm& comm, const Conn* conn, int level);

  /// Build a forest directly from per-tree local leaf arrays (collective).
  /// Each rank's arrays must satisfy the local invariants (sorted, in-root,
  /// non-overlapping; checked) and the rank-ordered concatenation must form
  /// the global SFC sequence. Partition may be arbitrary — e.g. everything
  /// on rank 0 — with a subsequent partition() establishing the canonical
  /// equal split; checkpoint restore (src/resil) builds forests this way.
  static Forest from_local_leaves(par::Comm& comm, const Conn* conn,
                                  std::vector<std::vector<Oct>> trees);

  par::Comm& comm() const { return *comm_; }
  const Conn& conn() const { return *conn_; }

  int num_trees() const { return conn_->num_trees(); }
  const std::vector<Oct>& tree(int t) const { return trees_[static_cast<std::size_t>(t)]; }

  /// Register every local leaf array with the par correctness checker as
  /// this rank's memory (par/check.h; no-op vector when checking is off).
  /// Algorithms hold the returned guards across a communication phase so a
  /// cross-rank read of a leaf array without a happens-before edge is
  /// reported; the guards must not outlive any mutation of the leaf arrays
  /// (reallocation would stale the registered ranges).
  std::vector<par::check::RegionGuard> check_guard_leaves(const char* phase) const {
    std::vector<par::check::RegionGuard> guards;
    if (!par::check::enabled(*comm_)) return guards;
    guards.reserve(trees_.size());
    for (const auto& tr : trees_) {
      guards.emplace_back(*comm_, tr.data(), tr.size() * sizeof(Oct), phase);
    }
    return guards;
  }

  std::int64_t num_local() const;
  std::int64_t num_global() const;
  /// Per-rank octant counts (replicated partition metadata).
  const std::vector<std::int64_t>& global_counts() const { return counts_; }
  /// Global SFC index of this rank's first octant.
  std::int64_t global_offset() const;
  int max_local_level() const;

  /// Visit local leaves in SFC order: f(tree_id, octant).
  void for_each_local(const std::function<void(int, const Oct&)>& f) const {
    for (int t = 0; t < num_trees(); ++t) {
      for (const Oct& o : trees_[static_cast<std::size_t>(t)]) f(t, o);
    }
  }

  /// "Refine": subdivide leaves for which `marker` returns true, once or
  /// recursively, never beyond `max_level`. No communication. When `delta`
  /// is non-null, every subdivided original leaf is recorded as a change
  /// region (forest/delta.h) for the incremental adapt pipeline.
  void refine(int max_level, bool recursive, const std::function<bool(int, const Oct&)>& marker,
              DeltaSet<Dim>* delta = nullptr);

  /// "Coarsen": replace complete local families by their parent where
  /// `marker(tree, parent)` returns true, once or recursively. Families
  /// split across a rank boundary are left untouched (as in p4est). When
  /// `delta` is non-null, every replacing parent is recorded as a change
  /// region.
  void coarsen(bool recursive, const std::function<bool(int, const Oct&)>& marker,
               DeltaSet<Dim>* delta = nullptr);

  /// "Partition": redistribute octants so every rank holds an equal share
  /// (+-1) of the space-filling curve. One allgather plus point-to-point
  /// transfers of contiguous SFC runs.
  void partition();

  /// Weighted partition: octants carry `weight(tree, oct) >= 0`; ranks
  /// receive approximately equal total weight.
  void partition(const std::function<double(int, const Oct&)>& weight);

  /// Partition (uniform if `weight` is null) that also redistributes a
  /// per-octant payload of `per_oct` doubles (SFC order, resized in place).
  /// Used for solution transfer under repartitioning (paper §IV-A).
  void partition_payload(const std::function<double(int, const Oct&)>* weight, int per_oct,
                         std::vector<double>& data);

  /// Uniform partition whose rank boundaries are shifted backward so that no
  /// complete family of siblings is split across ranks (p4est's "partition
  /// for coarsening"): a subsequent Coarsen can then collapse every marked
  /// family regardless of where the uniform cut would have fallen.
  void partition_for_coarsening();

  /// "Balance": establish the 2:1 size condition between all neighboring
  /// leaves — across faces, edges (3D), and corners, including neighbors in
  /// other trees via the connectivity transforms.
  ///
  /// Single pass: local closure by level-bucket propagation of parent
  /// insulation layers over the Morton-sorted leaf arrays, exactly one
  /// inter-rank exchange of the deduplicated boundary constraint set, then a
  /// local recursive completion of every leaf against the merged constraints.
  void balance();

  /// Incremental balance for a forest that was 2:1 balanced before the
  /// refine/coarsen marker pass recorded in `delta` (collective). Runs the
  /// single pass with its seeding restricted to sibling families near the
  /// delta closure — O(|delta|) seeding instead of O(N) — and appends every
  /// leaf it refines away to `delta`. Falls back to the full balance() when
  /// the global delta exceeds 10% of the mesh or some rank's delta already
  /// overflowed; the fallback marks delta.overflow so node/ghost caches
  /// rebuild. Returns true iff the incremental path ran.
  bool balance_incremental(DeltaSet<Dim>& delta);

  /// Rank owning the SFC position of `o`'s first descendant. `o` must be
  /// inside its tree's root.
  int find_owner(int tree_id, const Oct& o) const;

  /// First and last rank owning part of `o`'s region: the owners of its
  /// first and last max-level descendants, found from one key (the last
  /// descendant's key is key() with the low Dim * (max_level - level) bits
  /// set). Every rank in between owns part of the region or nothing at all.
  /// `o` must be inside its tree's root.
  std::pair<int, int> owner_range(int tree_id, const Oct& o) const;

  /// True if `o` lies strictly inside its tree (no insulation octant leaves
  /// the root) and this rank owns the full same-level insulation
  /// neighborhood of `o` (the 3^Dim block centered on it). Such a leaf can
  /// influence no other rank: Balance prunes its constraints locally and
  /// Ghost skips it without any per-direction owner queries.
  bool owns_insulation(int tree_id, const Oct& o) const;

  /// Local leaf exactly matching, or the leaf that contains `o`, if stored
  /// on this rank; returns nullptr otherwise.
  const Oct* find_local_leaf_containing(int tree_id, const Oct& o) const;

  /// Top-down hierarchical search over the local leaves (the "lightweight
  /// search facilities" of paper §II-D, p4est_search style): `visit` is
  /// called for every traversed ancestor octant with is_leaf = false —
  /// returning false prunes that subtree — and exactly once for every local
  /// leaf reached, with is_leaf = true (return value ignored there).
  void search(const std::function<bool(int tree, const Oct&, bool is_leaf)>& visit) const;

  /// Local structural invariants: per-tree arrays sorted and non-overlapping.
  bool is_valid_local() const;

  /// Order- and partition-independent global checksum over all leaves.
  std::uint64_t checksum() const;

  /// The (replicated, tiny) SFC markers: markers_[r] is the position of
  /// rank r's first octant; empty ranks repeat the next rank's marker.
  const std::vector<SfcPosition>& markers() const { return markers_; }

  /// Recompute counts_/markers_ after a mutation (called internally; public
  /// for algorithms in ghost.cc/nodes.cc that rebuild storage).
  void update_partition_meta();

  /// Direct mutable access for the algorithm implementations (balance,
  /// transfer); callers must keep per-tree arrays sorted and call
  /// update_partition_meta() afterwards.
  std::vector<Oct>& mutable_tree(int t) { return trees_[static_cast<std::size_t>(t)]; }

 private:
  Forest(par::Comm& comm, const Conn* conn)
      : comm_(&comm), conn_(conn), trees_(static_cast<std::size_t>(conn->num_trees())) {}

  /// The single-pass balance body; a non-null `seed_filter` (per tree,
  /// sorted, disjoint) restricts initial seeding to families whose parent
  /// overlaps it (balance.cc; used by balance_incremental).
  void balance_single_pass_impl(const std::vector<std::vector<Oct>>* seed_filter);

  /// Rank owning SFC position `pos` (search of the replicated markers).
  int owner_of(const SfcPosition& pos) const;

  /// Send every local leaf (and its `per_oct` doubles of `data`) to rank
  /// dest[i] (SFC order, non-decreasing) and rebuild from what arrives.
  void redistribute(const std::vector<int>& dest, int per_oct, std::vector<double>& data);

  par::Comm* comm_;
  const Conn* conn_;
  std::vector<std::vector<Oct>> trees_;
  std::vector<std::int64_t> counts_;    // per-rank octant counts
  std::vector<SfcPosition> markers_;    // per-rank first-octant positions
};

/// Collective balance-invariant checker: walks every local leaf's face, edge
/// (3D), and corner neighbors — across tree junctions via the connectivity
/// transforms — against the local + ghost leaf directory and verifies the
/// 2:1 level condition. Returns the same verdict on all ranks.
template <int Dim>
bool check_balanced(const Forest<Dim>& forest);

extern template bool check_balanced<2>(const Forest<2>&);
extern template bool check_balanced<3>(const Forest<3>&);

/// Indices [first, last) of leaves in a sorted leaf array whose regions
/// overlap octant `n` (descendants/equal, or the single containing ancestor).
template <int Dim>
std::pair<std::size_t, std::size_t> overlapping_range(const std::vector<Octant<Dim>>& leaves,
                                                      const Octant<Dim>& n);

extern template class Forest<2>;
extern template class Forest<3>;
extern template std::pair<std::size_t, std::size_t> overlapping_range<2>(
    const std::vector<Octant<2>>&, const Octant<2>&);
extern template std::pair<std::size_t, std::size_t> overlapping_range<3>(
    const std::vector<Octant<3>>&, const Octant<3>&);

}  // namespace esamr::forest
