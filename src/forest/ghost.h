// "Ghost" (paper §II-C): collect one layer of non-local leaves touching the
// parallel partition boundary from the outside — with full face, edge, and
// corner adjacency, within trees and across inter-tree connections.
//
// The layer is built symmetrically: every rank determines which of its own
// leaves touch another rank's domain (via owner range queries on the
// replicated SFC markers, pruned to the touching interface) and sends those
// leaves out; what it receives is exactly its ghost layer. The local leaves
// that were sent are recorded as "mirrors" so that per-element payloads
// (e.g. dG face data) can later be exchanged with one message per peer.
//
// build, build_cached and build_incremental are one algorithm (ghost.cc:
// ghost_build): one per-leaf target rule, one leaf scan, and one exchange
// carrying exactly one message per rank pair on tag_ghost_build. They
// differ only in where a leaf's targets come from (the owner search, or the
// cache for leaves unchanged since it was captured) and in whether an
// unchanged destination list is replaced by a one-octant sentinel.
#pragma once

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "forest/forest.h"

namespace esamr::forest {

/// Cached per-leaf foreign-target sets from a previous ghost scan: the leaf
/// snapshot at capture and, aligned with it, each leaf's targets, valid
/// under the partition markers in force at capture. A leaf's target ranks
/// depend only on its own geometry and the replicated SFC markers — never
/// on other leaves — so under an unchanged partition every leaf found in
/// the snapshot reuses its cached targets verbatim and only leaves created
/// by the adapt step pay the per-direction owner queries.
template <int Dim>
struct GhostScanCache {
  std::vector<SfcPosition> markers;  ///< partition fingerprint at capture
  /// Per tree, aligned arrays: the local leaf octants in SFC order, with
  /// targets[toff[i] .. toff[i+1]) holding leaf i's sorted foreign targets.
  std::vector<std::vector<Octant<Dim>>> leaves;
  std::vector<std::vector<std::int32_t>> toff;
  std::vector<std::vector<std::int32_t>> targets;
  bool valid = false;
};

/// A ghost payload exchange in flight (GhostLayer::exchange_begin ..
/// exchange_finish): the receives posted per source rank and the sends that
/// adopted the packed mirror blocks.
template <typename T>
struct GhostExchange {
  std::vector<par::Request> recvs;  ///< one slot per rank; empty where none
  std::vector<par::Request> sends;
  int per_elem = 0;
};

template <int Dim>
struct GhostLayer {
  using Oct = Octant<Dim>;

  struct GhostOct {
    Oct oct;
    std::int32_t tree;
    std::int32_t owner;
  };
  /// Non-local leaves adjacent to this rank's domain, sorted by
  /// (owner rank, tree, SFC position).
  std::vector<GhostOct> ghosts;
  /// ghosts[rank_offset[r] .. rank_offset[r+1]) came from rank r.
  std::vector<std::size_t> rank_offset;

  struct Mirror {
    Oct oct;
    std::int32_t tree;
    std::int32_t local_index;  ///< index of the leaf in local SFC enumeration
  };
  /// Local leaves that appear in some other rank's ghost layer (SFC order).
  std::vector<Mirror> mirrors;
  /// For each rank: indices into `mirrors` in the exact order the octants
  /// were sent (matching the receiver's ghost order for that rank).
  std::vector<std::vector<std::int32_t>> mirror_lists;

  /// Build the ghost layer of a (typically 2:1 balanced) forest. The
  /// exchange is asynchronous post-all-then-overlap: every peer receive is
  /// posted before the leaf scan, sends adopt the packed octant buffers
  /// (zero-copy), and receives are read in place, in rank order, afterwards.
  ///
  /// `layers` > 1 collects a wider halo (e.g. for semi-Lagrangian methods,
  /// the "minor extension of Ghost" of paper §II-E): every foreign leaf
  /// overlapping the region within `layers` own-size cells of a local leaf
  /// is included. Layer 1 is exact adjacency; deeper layers are a slight
  /// superset of the k-neighborhood on strongly graded meshes.
  static GhostLayer build(const Forest<Dim>& forest, int layers = 1);

  /// build() at one layer that also (re)captures the per-leaf target cache
  /// for subsequent incremental builds. Identical result and traffic.
  static GhostLayer build_cached(const Forest<Dim>& forest, GhostScanCache<Dim>& cache);

  /// Incremental single-layer build: leaves found in the cache's snapshot
  /// reuse their cached targets, only new leaves pay owner queries, and
  /// each destination whose octant list equals the one this rank sent it
  /// for `prev` receives a one-octant sentinel instead (the receiver
  /// splices that rank's segment from `prev`). Result is bit-identical to
  /// build(); falls back to build_cached when the cache is invalid or the
  /// partition changed (collective decision). The cache is updated in place
  /// either way.
  static GhostLayer build_incremental(const Forest<Dim>& forest, const GhostLayer& prev,
                                      GhostScanCache<Dim>& cache);

  /// Exchange per-element payloads: `fields` holds `per_elem` values of T
  /// for each local element (local SFC order); the result holds `per_elem`
  /// values for each ghost (in `ghosts` order). `fields` too short for
  /// every mirror's block is rejected with std::invalid_argument.
  template <typename T>
  std::vector<T> exchange(par::Comm& comm, std::span<const T> fields, int per_elem) const {
    return exchange_finish(exchange_begin(comm, fields, per_elem));
  }

  /// First half of exchange(): post one receive per rank we hold ghosts
  /// from, then pack each peer's mirror blocks straight from `fields` at
  /// their `local_index` and send them (the sends adopt the packed
  /// buffers). The caller may compute until exchange_finish.
  template <typename T>
  GhostExchange<T> exchange_begin(par::Comm& comm, std::span<const T> fields,
                                  int per_elem) const {
    static_assert(std::is_trivially_copyable_v<T>);
    // Mirrors are in SFC order: the last one has the highest local index.
    const auto per = static_cast<std::size_t>(per_elem);
    if (!mirrors.empty() &&
        (static_cast<std::size_t>(mirrors.back().local_index) + 1) * per > fields.size()) {
      throw std::invalid_argument("GhostLayer::exchange: " + std::to_string(fields.size()) +
                                  " values do not cover local element " +
                                  std::to_string(mirrors.back().local_index));
    }
    const int p = comm.size();
    const int me = comm.rank();
    GhostExchange<T> x;
    x.per_elem = per_elem;
    x.recvs.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      if (r != me && rank_offset[static_cast<std::size_t>(r) + 1] >
                         rank_offset[static_cast<std::size_t>(r)]) {
        x.recvs[static_cast<std::size_t>(r)] = comm.irecv(r, tag_ghost_exchange);
      }
    }
    for (int r = 0; r < p; ++r) {
      const auto& list = mirror_lists[static_cast<std::size_t>(r)];
      if (r == me || list.empty()) continue;
      std::vector<T> buf;
      buf.reserve(list.size() * per);
      for (const std::int32_t mi : list) {
        const auto& m = mirrors[static_cast<std::size_t>(mi)];
        const T* block = fields.data() + static_cast<std::size_t>(m.local_index) * per;
        buf.insert(buf.end(), block, block + per);
      }
      x.sends.push_back(comm.isend(r, tag_ghost_exchange, std::move(buf)));
    }
    return x;
  }

  /// Second half of exchange(): wait for each rank's payload in rank order
  /// and place it in the ghost blocks, read in place (Message::view). A
  /// payload whose size is not that rank's ghost count times `per_elem`
  /// values is rejected with a std::runtime_error naming the source rank.
  template <typename T>
  std::vector<T> exchange_finish(GhostExchange<T>&& x) const {
    const auto per = static_cast<std::size_t>(x.per_elem);
    std::vector<T> out(ghosts.size() * per);
    for (std::size_t r = 0; r < x.recvs.size(); ++r) {
      auto& rq = x.recvs[r];
      if (!rq.valid()) continue;
      rq.wait();
      const auto vals = rq.message().template view<T>();
      const std::size_t want = (rank_offset[r + 1] - rank_offset[r]) * per * sizeof(T);
      if (vals.size_bytes() != want) {
        throw std::runtime_error("GhostLayer::exchange: rank " + std::to_string(r) + " sent " +
                                 std::to_string(vals.size_bytes()) + " bytes, expected " +
                                 std::to_string(want));
      }
      std::memcpy(out.data() + rank_offset[r] * per, vals.data(), want);
    }
    par::wait_all(x.sends);
    return out;
  }
};

/// A leaf known to this rank: local (owner == my rank, index = local element
/// index) or ghost (index into the ghost array).
template <int Dim>
struct LeafRef {
  Octant<Dim> oct;
  std::int32_t owner;
  std::int32_t index;
};

/// Per-tree sorted directory of all leaves this rank knows (local + ghost):
/// the neighbor-lookup structure used by Nodes and the dG mesh.
template <int Dim>
std::vector<std::vector<LeafRef<Dim>>> build_leaf_directory(const Forest<Dim>& forest,
                                                            const GhostLayer<Dim>& ghost);

extern template struct GhostLayer<2>;
extern template struct GhostLayer<3>;
extern template std::vector<std::vector<LeafRef<2>>> build_leaf_directory<2>(
    const Forest<2>&, const GhostLayer<2>&);
extern template std::vector<std::vector<LeafRef<3>>> build_leaf_directory<3>(
    const Forest<3>&, const GhostLayer<3>&);

}  // namespace esamr::forest
