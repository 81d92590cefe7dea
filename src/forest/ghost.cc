#include "forest/ghost.h"

#include <algorithm>
#include <stdexcept>

#include "forest/delta.h"
#include "forest/stats.h"

namespace esamr::forest {

namespace {

constexpr int ipow_dirs(int b, int e) {
  int r = 1;
  for (int i = 0; i < e; ++i) r *= b;
  return r;
}

/// Collect the owner ranks of all finest-level cells inside region `n` that
/// touch the boundary entity given by `pins`. Recursion descends only while
/// the (pruned) region spans more than one rank, so the work is bounded by
/// the number of partition boundaries crossing the interface.
template <int Dim>
void collect_owners(const Forest<Dim>& f, int tree, const Octant<Dim>& n,
                    const typename Connectivity<Dim>::EntityPins& pins, std::vector<int>& out) {
  const auto [r0, r1] = f.owner_range(tree, n);
  if (r0 == r1 || n.level >= Octant<Dim>::max_level) {
    for (int r = r0; r <= r1; ++r) out.push_back(r);
    return;
  }
  for (int c = 0; c < Topo<Dim>::num_children; ++c) {
    bool touches = true;
    for (int a = 0; a < Dim; ++a) {
      const std::int8_t pin = pins.pin[static_cast<std::size_t>(a)];
      if (pin >= 0 && ((c >> a) & 1) != pin) touches = false;
    }
    if (touches) collect_owners(f, tree, n.child(c), pins, out);
  }
}

/// Single-layer direction scan for one leaf: the owner ranks of every region
/// adjacent to `o` across faces, edges (3D), and corners, mapped across tree
/// junctions. Appends into `targets` unsorted and with duplicates; the
/// caller sorts/uniques. Depends only on the leaf's own geometry and the
/// replicated partition markers, which is what makes the per-leaf target
/// cache (GhostScanCache) sound.
template <int Dim>
void leaf_adjacent_owners(const Forest<Dim>& forest, int t, const Octant<Dim>& o,
                          std::vector<int>& targets) {
  using Pins = typename Connectivity<Dim>::EntityPins;
  using T = Topo<Dim>;
  using Oct = Octant<Dim>;
  const Connectivity<Dim>& conn = forest.conn();
  const auto handle = [&](int t2, const Oct& n, const Pins& pins) {
    collect_owners(forest, t2, n, pins, targets);
  };
  const auto place = [&](const Oct& n, const Pins& pins) {
    if (n.inside_root()) {
      handle(t, n, pins);
    } else {
      for (const auto& [t2, img, p2] : conn.exterior_images_entity(t, n, pins)) {
        handle(t2, img, p2);
      }
    }
  };
  // Face, edge (3D), and corner directions; the pins describe the interface
  // of the neighbor region that faces back toward `o`.
  for (int f = 0; f < T::num_faces; ++f) {
    Pins pins;
    pins.pin[static_cast<std::size_t>(f / 2)] = static_cast<std::int8_t>(1 - (f % 2));
    place(o.face_neighbor(f), pins);
  }
  if constexpr (Dim == 3) {
    for (int e = 0; e < T::num_edges; ++e) {
      const int axis = T::edge_axis[e];
      const int idx = e & 3;
      Pins pins;
      int k = 0;
      for (int a = 0; a < 3; ++a) {
        if (a == axis) continue;
        pins.pin[static_cast<std::size_t>(a)] = static_cast<std::int8_t>(1 - ((idx >> k) & 1));
        ++k;
      }
      place(o.edge_neighbor(e), pins);
    }
  }
  for (int c = 0; c < T::num_corners; ++c) {
    Pins pins;
    for (int a = 0; a < Dim; ++a) {
      pins.pin[static_cast<std::size_t>(a)] = static_cast<std::int8_t>(1 - ((c >> a) & 1));
    }
    place(o.corner_neighbor(c), pins);
  }
}

}  // namespace

namespace {

/// The local half of build: scan the leaves, fill mirrors/mirror_lists, and
/// pack the per-destination octant buffers.
template <int Dim>
GhostLayer<Dim> ghost_scan(const Forest<Dim>& forest, int layers,
                           std::vector<std::vector<OctMsg>>& send) {
  if (layers < 1) throw std::runtime_error("ghost: layers must be >= 1");
  using Pins = typename Connectivity<Dim>::EntityPins;
  using Oct = Octant<Dim>;
  using Mirror = typename GhostLayer<Dim>::Mirror;
  par::Comm& comm = forest.comm();
  const Connectivity<Dim>& conn = forest.conn();
  const int p = comm.size();
  const int me = comm.rank();

  GhostLayer<Dim> layer;
  layer.mirror_lists.resize(static_cast<std::size_t>(p));
  send.assign(static_cast<std::size_t>(p), {});

  std::int32_t li = 0;  // local element index in SFC enumeration
  std::vector<int> targets;
  forest.for_each_local([&](int t, const Oct& o) {
    if (layers == 1 && forest.owns_insulation(t, o)) {
      // Interior fast path: the whole same-size insulation block around o is
      // local, so no direction can reach another rank — skip the
      // per-direction owner queries (the Balance closure pruned such leaves
      // by the same criterion).
      op_stats().ghost_interior_skipped++;
      ++li;
      return;
    }
    targets.clear();
    const auto handle = [&](int t2, const Oct& n, const Pins& pins) {
      collect_owners(forest, t2, n, pins, targets);
    };
    if (layers > 1) {
      // Wider halo: every offset within `layers` own-size cells, with the
      // whole region collected (free pins). Images across macro edges and
      // corners are truncated to the adjacent shadow (see header).
      const std::int32_t h = o.size();
      std::array<int, 3> d{0, 0, 0};
      const int w = 2 * layers + 1;
      for (int code = 0; code < ipow_dirs(w, Dim); ++code) {
        int rem = code;
        bool zero = true;
        for (int a = 0; a < Dim; ++a) {
          d[static_cast<std::size_t>(a)] = rem % w - layers;
          rem /= w;
          if (d[static_cast<std::size_t>(a)] != 0) zero = false;
        }
        if (zero) continue;
        Oct n = o;
        for (int a = 0; a < Dim; ++a) {
          n.set_coord(a, n.coord(a) + d[static_cast<std::size_t>(a)] * h);
        }
        Pins free;
        if (n.inside_root()) {
          handle(t, n, free);
        } else {
          for (const auto& [t2, img, p2] : conn.exterior_images_entity(t, n, free)) {
            if (img.inside_root()) handle(t2, img, free);
          }
        }
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
      std::int32_t mi2 = -1;
      for (const int r : targets) {
        if (r == me) continue;
        if (mi2 < 0) {
          mi2 = static_cast<std::int32_t>(layer.mirrors.size());
          layer.mirrors.push_back(Mirror{o, t, li});
        }
        layer.mirror_lists[static_cast<std::size_t>(r)].push_back(mi2);
        send[static_cast<std::size_t>(r)].push_back(
            OctMsg{t, o.x, o.y, Dim == 3 ? o.z : 0, o.level});
      }
      ++li;
      return;
    }

    leaf_adjacent_owners(forest, t, o, targets);

    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    std::int32_t mi = -1;
    for (const int r : targets) {
      if (r == me) continue;
      if (mi < 0) {
        mi = static_cast<std::int32_t>(layer.mirrors.size());
        layer.mirrors.push_back(Mirror{o, t, li});
      }
      layer.mirror_lists[static_cast<std::size_t>(r)].push_back(mi);
      send[static_cast<std::size_t>(r)].push_back(OctMsg{t, o.x, o.y, Dim == 3 ? o.z : 0, o.level});
    }
    ++li;
  });

  for (const auto& buf : send) {
    op_stats().ghost_octants_sent += static_cast<std::int64_t>(buf.size());
  }
  return layer;
}

/// Scan twin that maintains the per-leaf target cache. With `old` null this
/// is a full capture scan (every leaf pays the direction scan); with `old`
/// set — valid only under identical partition markers — leaves present in
/// the old snapshot reuse their cached foreign targets verbatim and only
/// leaves created by the adapt step are scanned. Mirrors, mirror lists, and
/// send buffers come out identical to ghost_scan(layers=1) either way
/// because the per-leaf target sets are identical and filled in the same
/// SFC order.
template <int Dim>
GhostLayer<Dim> ghost_scan_cached(const Forest<Dim>& forest, const GhostScanCache<Dim>* old,
                                  GhostScanCache<Dim>& cache,
                                  std::vector<std::vector<OctMsg>>& send) {
  using Oct = Octant<Dim>;
  using Mirror = typename GhostLayer<Dim>::Mirror;
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  const int me = comm.rank();
  const int nt = forest.num_trees();

  cache.markers = forest.markers();
  cache.leaves.assign(static_cast<std::size_t>(nt), {});
  cache.toff.assign(static_cast<std::size_t>(nt), {});
  cache.targets.assign(static_cast<std::size_t>(nt), {});

  GhostLayer<Dim> layer;
  layer.mirror_lists.resize(static_cast<std::size_t>(p));
  send.assign(static_cast<std::size_t>(p), {});

  std::int32_t li = 0;  // local element index in SFC enumeration
  std::vector<int> scratch;
  for (int t = 0; t < nt; ++t) {
    const std::size_t st = static_cast<std::size_t>(t);
    const auto& leaves = forest.tree(t);
    auto& ct = cache.toff[st];
    auto& cg = cache.targets[st];
    cache.leaves[st] = leaves;
    ct.reserve(leaves.size() + 1);
    ct.push_back(0);
    std::size_t oi = 0;  // cursor into the old snapshot of this tree
    for (const Oct& o : leaves) {
      const std::int32_t t0 = static_cast<std::int32_t>(cg.size());
      bool reused = false;
      if (old != nullptr) {
        const auto& ol = old->leaves[st];
        while (oi < ol.size() && ol[oi] < o) ++oi;
        if (oi < ol.size() && ol[oi] == o) {
          const auto& ot = old->toff[st];
          for (std::int32_t k = ot[oi]; k < ot[oi + 1]; ++k) {
            cg.push_back(old->targets[st][static_cast<std::size_t>(k)]);
          }
          reused = true;
          ++oi;
        }
      }
      if (!reused) {
        if (forest.owns_insulation(t, o)) {
          // Interior fast path, same criterion as ghost_scan.
          op_stats().ghost_interior_skipped++;
        } else {
          scratch.clear();
          leaf_adjacent_owners(forest, t, o, scratch);
          std::sort(scratch.begin(), scratch.end());
          scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
          for (const int r : scratch) {
            if (r != me) cg.push_back(r);
          }
        }
      }
      ct.push_back(static_cast<std::int32_t>(cg.size()));
      std::int32_t mi = -1;
      for (std::int32_t k = t0; k < ct.back(); ++k) {
        const int r = cg[static_cast<std::size_t>(k)];
        if (mi < 0) {
          mi = static_cast<std::int32_t>(layer.mirrors.size());
          layer.mirrors.push_back(Mirror{o, t, li});
        }
        layer.mirror_lists[static_cast<std::size_t>(r)].push_back(mi);
        send[static_cast<std::size_t>(r)].push_back(
            OctMsg{t, o.x, o.y, Dim == 3 ? o.z : 0, o.level});
      }
      ++li;
    }
  }
  cache.valid = true;
  return layer;
}

/// Append rank r's octants to layer.ghosts and extend rank_offset.
template <int Dim>
void ghost_append(GhostLayer<Dim>& layer, int r, std::span<const OctMsg> from) {
  layer.rank_offset[static_cast<std::size_t>(r) + 1] =
      layer.rank_offset[static_cast<std::size_t>(r)] + from.size();
  for (const OctMsg& m : from) {
    Octant<Dim> o;
    o.x = m.x;
    o.y = m.y;
    if constexpr (Dim == 3) o.z = m.z;
    o.level = static_cast<std::int8_t>(m.level);
    layer.ghosts.push_back(typename GhostLayer<Dim>::GhostOct{o, m.tree, r});
  }
}

}  // namespace

template <int Dim>
GhostLayer<Dim> GhostLayer<Dim>::build(const Forest<Dim>& forest, int layers) {
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  const int me = comm.rank();
  // Post every peer receive before the leaf scan: octants from peers that
  // finish scanning early flow into this rank's mailbox while it is still
  // working. Each pair exchanges exactly one (possibly empty) message on the
  // reserved tag, so matching is deterministic.
  std::vector<par::Request> recvs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r != me) recvs[static_cast<std::size_t>(r)] = comm.irecv(r, tag_ghost_build);
  }
  std::vector<std::vector<OctMsg>> send;
  GhostLayer layer = ghost_scan(forest, layers, send);
  // Local leaf arrays (including those skipped by the interior fast path)
  // are rank-owned during the exchange.
  const auto leaf_guards = forest.check_guard_leaves("ghost leaves");
  std::vector<par::Request> sends;
  sends.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    // The packed buffer's storage is adopted by the runtime — zero-copy.
    sends.push_back(comm.isend(r, tag_ghost_build, std::move(send[static_cast<std::size_t>(r)])));
  }
  layer.rank_offset.assign(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) {
    auto& rq = recvs[static_cast<std::size_t>(r)];
    std::span<const OctMsg> from{};
    if (rq.valid()) {
      rq.wait();
      from = rq.message().template view<OctMsg>();
    }
    ghost_append(layer, r, from);
  }
  par::wait_all(sends);
  return layer;
}

template <int Dim>
GhostLayer<Dim> GhostLayer<Dim>::build_cached(const Forest<Dim>& forest,
                                              GhostScanCache<Dim>& cache) {
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  std::vector<std::vector<OctMsg>> send;
  GhostLayer layer = ghost_scan_cached<Dim>(forest, nullptr, cache, send);
  for (const auto& buf : send) {
    op_stats().ghost_octants_sent += static_cast<std::int64_t>(buf.size());
  }
  const auto leaf_guards = forest.check_guard_leaves("ghost leaves");
  const auto recv = comm.alltoallv(send);
  layer.rank_offset.assign(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) {
    ghost_append(layer, r, std::span<const OctMsg>(recv[static_cast<std::size_t>(r)]));
  }
  return layer;
}

template <int Dim>
GhostLayer<Dim> GhostLayer<Dim>::build_incremental(const Forest<Dim>& forest,
                                                   const GhostLayer& prev,
                                                   GhostScanCache<Dim>& cache) {
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  const int me = comm.rank();
  const bool ok_local = cache.valid && cache.markers == forest.markers() &&
                        prev.rank_offset.size() == static_cast<std::size_t>(p) + 1;
  if (comm.allreduce(static_cast<int>(ok_local), par::ReduceOp::logical_and) == 0) {
    return build_cached(forest, cache);
  }
  const GhostScanCache<Dim> old = std::move(cache);
  std::vector<std::vector<OctMsg>> send;
  GhostLayer layer = ghost_scan_cached<Dim>(forest, &old, cache, send);
  // Differential exchange: a destination whose octant list is identical to
  // what this rank sent it for `prev` gets a one-octant sentinel (tree = -1)
  // and the receiver splices that rank's segment from `prev` instead. A
  // genuinely empty list is sent as-is — empty stays unambiguous, and the
  // sentinel would cost more than it saves.
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    auto& buf = send[static_cast<std::size_t>(r)];
    const auto& list = prev.mirror_lists[static_cast<std::size_t>(r)];
    bool same = !buf.empty() && buf.size() == list.size();
    for (std::size_t i = 0; same && i < buf.size(); ++i) {
      const auto& m = prev.mirrors[static_cast<std::size_t>(list[i])];
      OctMsg pm{m.tree, m.oct.x, m.oct.y, 0, m.oct.level};
      if constexpr (Dim == 3) pm.z = m.oct.z;
      const OctMsg& b = buf[i];
      same = pm.tree == b.tree && pm.x == b.x && pm.y == b.y && pm.z == b.z &&
             pm.level == b.level;
    }
    if (same) buf.assign(1, OctMsg{-1, 0, 0, 0, 0});
  }
  for (const auto& buf : send) {
    op_stats().ghost_octants_sent += static_cast<std::int64_t>(buf.size());
  }
  const auto leaf_guards = forest.check_guard_leaves("ghost leaves");
  const auto recv = comm.alltoallv(send);
  layer.rank_offset.assign(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) {
    const auto& from = recv[static_cast<std::size_t>(r)];
    if (from.size() == 1 && from[0].tree == -1) {
      const std::size_t b0 = prev.rank_offset[static_cast<std::size_t>(r)];
      const std::size_t b1 = prev.rank_offset[static_cast<std::size_t>(r) + 1];
      layer.rank_offset[static_cast<std::size_t>(r) + 1] =
          layer.rank_offset[static_cast<std::size_t>(r)] + (b1 - b0);
      layer.ghosts.insert(layer.ghosts.end(),
                          prev.ghosts.begin() + static_cast<std::ptrdiff_t>(b0),
                          prev.ghosts.begin() + static_cast<std::ptrdiff_t>(b1));
    } else {
      ghost_append(layer, r, std::span<const OctMsg>(from));
    }
  }
  return layer;
}

template <int Dim>
std::vector<std::vector<LeafRef<Dim>>> build_leaf_directory(const Forest<Dim>& forest,
                                                            const GhostLayer<Dim>& ghost) {
  std::vector<std::vector<LeafRef<Dim>>> dir(static_cast<std::size_t>(forest.num_trees()));
  std::vector<std::size_t> sizes(dir.size(), 0);
  for (std::size_t t = 0; t < dir.size(); ++t) sizes[t] = forest.tree(static_cast<int>(t)).size();
  for (const auto& g : ghost.ghosts) ++sizes[static_cast<std::size_t>(g.tree)];
  for (std::size_t t = 0; t < dir.size(); ++t) dir[t].reserve(sizes[t]);
  std::int32_t li = 0;
  const int me = forest.comm().rank();
  forest.for_each_local([&](int t, const Octant<Dim>& o) {
    dir[static_cast<std::size_t>(t)].push_back(LeafRef<Dim>{o, me, li++});
  });
  for (std::size_t gi = 0; gi < ghost.ghosts.size(); ++gi) {
    const auto& g = ghost.ghosts[gi];
    dir[static_cast<std::size_t>(g.tree)].push_back(
        LeafRef<Dim>{g.oct, g.owner, static_cast<std::int32_t>(gi)});
  }
  // Local leaves arrive sorted: sort only each tree's ghosts, then merge.
  const auto by_oct = [](const LeafRef<Dim>& a, const LeafRef<Dim>& b) { return a.oct < b.oct; };
  for (std::size_t t = 0; t < dir.size(); ++t) {
    auto& v = dir[t];
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(forest.tree(static_cast<int>(t)).size());
    std::sort(mid, v.end(), by_oct);
    std::inplace_merge(v.begin(), mid, v.end(), by_oct);
  }
  return dir;
}

template struct GhostLayer<2>;
template struct GhostLayer<3>;
template std::vector<std::vector<LeafRef<2>>> build_leaf_directory<2>(const Forest<2>&,
                                                                      const GhostLayer<2>&);
template std::vector<std::vector<LeafRef<3>>> build_leaf_directory<3>(const Forest<3>&,
                                                                      const GhostLayer<3>&);

}  // namespace esamr::forest
