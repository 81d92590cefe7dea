#include "forest/ghost.h"

#include <algorithm>
#include <stdexcept>

#include "forest/stats.h"

namespace esamr::forest {

namespace {

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

/// The per-leaf target rule: the foreign ranks whose ghost layer holds leaf
/// `o` of tree `t`, sorted and unique, into `out`. Layer 1 skips a leaf
/// whose whole insulation block is local, else collects the owners of every
/// region adjacent across faces, edges (3D) and corners; `layers` > 1
/// collects the whole region at every offset within `layers` own-size cells
/// (images across macro edges and corners are truncated to the adjacent
/// shadow). Depends only on the leaf's own geometry and the replicated
/// partition markers, which is what makes the target cache (GhostScanCache)
/// sound.
template <int Dim>
void leaf_targets(const Forest<Dim>& forest, int layers, int t, const Octant<Dim>& o,
                  std::vector<int>& out) {
  using Pins = typename Connectivity<Dim>::EntityPins;
  using T = Topo<Dim>;
  using Oct = Octant<Dim>;
  out.clear();
  if (layers == 1 && forest.owns_insulation(t, o)) {
    // Interior fast path: the whole same-size insulation block around o is
    // local, so no direction can reach another rank (the Balance closure
    // prunes such leaves by the same criterion).
    op_stats().ghost_interior_skipped++;
    return;
  }
  if (layers > 1) {
    // Every offset region is collected whole (free pins), in its images too.
    const std::int32_t h = o.size();
    const int w = 2 * layers + 1;
    int codes = 1;
    for (int a = 0; a < Dim; ++a) codes *= w;
    for (int code = 0; code < codes; ++code) {
      Oct n = o;
      for (int a = 0, rem = code; a < Dim; ++a, rem /= w) {
        n.set_coord(a, n.coord(a) + (rem % w - layers) * h);
      }
      if (n == o) continue;
      if (n.inside_root()) {
        collect_owners(forest, t, n, Pins{}, out);
        continue;
      }
      for (const auto& [t2, img] : forest.conn().exterior_images(t, n)) {
        if (img.inside_root()) collect_owners(forest, t2, img, Pins{}, out);
      }
    }
  } else {
    // Pins describe the interface of the neighbor region facing back to `o`.
    const auto place = [&](const Oct& n, const Pins& pins) {
      if (n.inside_root()) {
        collect_owners(forest, t, n, pins, out);
        return;
      }
      for (const auto& [t2, img, p2] : forest.conn().exterior_images_entity(t, n, pins)) {
        collect_owners(forest, t2, img, p2, out);
      }
    };
    for (int f = 0; f < T::num_faces; ++f) {
      Pins pins;
      pins.pin[static_cast<std::size_t>(f / 2)] = static_cast<std::int8_t>(1 - (f % 2));
      place(o.face_neighbor(f), pins);
    }
    if constexpr (Dim == 3) {
      for (int e = 0; e < T::num_edges; ++e) {
        const int idx = e & 3;
        Pins pins;
        int k = 0;
        for (int a = 0; a < 3; ++a) {
          if (a == T::edge_axis[e]) continue;
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
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), forest.comm().rank()), out.end());
}

/// The one Ghost algorithm behind build, build_cached and build_incremental:
/// one leaf scan and one exchange.
///  - Every peer receive is posted before the scan, so octants from peers
///    that finish early flow in while this rank still works.
///  - The scan visits the local leaves in SFC order. A leaf present in
///    `old`'s snapshot (taken under the same markers) reuses its cached
///    targets; any other leaf pays leaf_targets. Every leaf's targets are
///    recorded into `capture` when given.
///  - Each rank pair carries exactly one (possibly empty) message on
///    tag_ghost_build; the send adopts the packed buffer and the receiver
///    reads it in place, in rank order.
///  - With `prev`, a destination whose octant list equals the one `prev`
///    sent it gets a one-octant sentinel (tree = -1) instead, and the
///    receiver splices that rank's segment from `prev`. An empty list is
///    sent as-is: empty stays unambiguous.
template <int Dim>
GhostLayer<Dim> ghost_build(const Forest<Dim>& forest, int layers, const GhostScanCache<Dim>* old,
                            GhostScanCache<Dim>* capture, const GhostLayer<Dim>* prev) {
  if (layers < 1) throw std::runtime_error("ghost: layers must be >= 1");
  using Oct = Octant<Dim>;
  using Layer = GhostLayer<Dim>;
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  const int me = comm.rank();
  const int nt = forest.num_trees();
  const auto ps = static_cast<std::size_t>(p);

  std::vector<par::Request> recvs(ps);
  for (int r = 0; r < p; ++r) {
    if (r != me) recvs[static_cast<std::size_t>(r)] = comm.irecv(r, tag_ghost_build);
  }

  if (capture != nullptr) {
    capture->markers = forest.markers();
    capture->leaves.assign(static_cast<std::size_t>(nt), {});
    capture->toff.assign(static_cast<std::size_t>(nt), {});
    capture->targets.assign(static_cast<std::size_t>(nt), {});
  }
  Layer layer;
  layer.mirror_lists.resize(ps);
  std::vector<std::vector<OctMsg>> send(ps);
  std::int32_t li = 0;  // local element index in SFC enumeration
  std::vector<int> scratch;
  for (int t = 0; t < nt; ++t) {
    const auto st = static_cast<std::size_t>(t);
    const auto& leaves = forest.tree(t);
    if (capture != nullptr) {
      capture->leaves[st] = leaves;
      capture->toff[st].reserve(leaves.size() + 1);
      capture->toff[st].push_back(0);
    }
    // old's snapshot of this tree (empty without a cache) and a cursor.
    const std::span<const Oct> ol =
        old != nullptr ? std::span<const Oct>(old->leaves[st]) : std::span<const Oct>();
    std::size_t oi = 0;
    for (const Oct& o : leaves) {
      while (oi < ol.size() && ol[oi] < o) ++oi;
      std::span<const int> targets;
      if (oi < ol.size() && ol[oi] == o) {
        const auto& ot = old->toff[st];
        targets = std::span<const int>(old->targets[st])
                      .subspan(static_cast<std::size_t>(ot[oi]),
                               static_cast<std::size_t>(ot[oi + 1] - ot[oi]));
        ++oi;
      } else {
        leaf_targets(forest, layers, t, o, scratch);
        targets = scratch;
      }
      if (capture != nullptr) {
        auto& cg = capture->targets[st];
        cg.insert(cg.end(), targets.begin(), targets.end());
        capture->toff[st].push_back(static_cast<std::int32_t>(cg.size()));
      }
      if (!targets.empty()) {
        const auto mi = static_cast<std::int32_t>(layer.mirrors.size());
        layer.mirrors.push_back(typename Layer::Mirror{o, t, li});
        for (const int r : targets) {
          layer.mirror_lists[static_cast<std::size_t>(r)].push_back(mi);
          send[static_cast<std::size_t>(r)].push_back(OctMsg::of(t, o));
        }
      }
      ++li;
    }
  }
  if (capture != nullptr) capture->valid = true;

  if (prev != nullptr) {
    for (int r = 0; r < p; ++r) {
      auto& buf = send[static_cast<std::size_t>(r)];
      const auto& list = prev->mirror_lists[static_cast<std::size_t>(r)];
      bool same = !buf.empty() && buf.size() == list.size();
      for (std::size_t i = 0; same && i < buf.size(); ++i) {
        const auto& m = prev->mirrors[static_cast<std::size_t>(list[i])];
        same = buf[i] == OctMsg::of(m.tree, m.oct);
      }
      if (same) buf.assign(1, OctMsg{-1, 0, 0, 0, 0});
    }
  }
  for (const auto& buf : send) {
    op_stats().ghost_octants_sent += static_cast<std::int64_t>(buf.size());
  }

  // Local leaf arrays (including those skipped by the interior fast path)
  // are rank-owned during the exchange.
  const auto leaf_guards = forest.check_guard_leaves("ghost leaves");
  std::vector<par::Request> sends;
  sends.reserve(ps);
  for (int r = 0; r < p; ++r) {
    if (r != me) {
      sends.push_back(comm.isend(r, tag_ghost_build, std::move(send[static_cast<std::size_t>(r)])));
    }
  }
  layer.rank_offset.assign(ps + 1, 0);
  for (int r = 0; r < p; ++r) {
    auto& rq = recvs[static_cast<std::size_t>(r)];
    std::span<const OctMsg> from{};
    if (rq.valid()) {
      rq.wait();
      from = rq.message().template view<OctMsg>();
    }
    if (prev != nullptr && from.size() == 1 && from[0].tree == -1) {
      const auto& off = prev->rank_offset;
      const auto b0 = static_cast<std::ptrdiff_t>(off[static_cast<std::size_t>(r)]);
      const auto b1 = static_cast<std::ptrdiff_t>(off[static_cast<std::size_t>(r) + 1]);
      layer.ghosts.insert(layer.ghosts.end(), prev->ghosts.begin() + b0, prev->ghosts.begin() + b1);
    } else {
      for (const OctMsg& m : from) {
        layer.ghosts.push_back(typename Layer::GhostOct{m.octant<Dim>(), m.tree, r});
      }
    }
    layer.rank_offset[static_cast<std::size_t>(r) + 1] = layer.ghosts.size();
  }
  par::wait_all(sends);
  return layer;
}

}  // namespace

template <int Dim>
GhostLayer<Dim> GhostLayer<Dim>::build(const Forest<Dim>& forest, int layers) {
  return ghost_build<Dim>(forest, layers, nullptr, nullptr, nullptr);
}

template <int Dim>
GhostLayer<Dim> GhostLayer<Dim>::build_cached(const Forest<Dim>& forest,
                                              GhostScanCache<Dim>& cache) {
  return ghost_build<Dim>(forest, 1, nullptr, &cache, nullptr);
}

template <int Dim>
GhostLayer<Dim> GhostLayer<Dim>::build_incremental(const Forest<Dim>& forest,
                                                   const GhostLayer& prev,
                                                   GhostScanCache<Dim>& cache) {
  par::Comm& comm = forest.comm();
  const bool ok_local = cache.valid && cache.markers == forest.markers() &&
                        prev.rank_offset.size() == static_cast<std::size_t>(comm.size()) + 1;
  if (comm.allreduce(static_cast<int>(ok_local), par::ReduceOp::logical_and) == 0) {
    return build_cached(forest, cache);
  }
  const GhostScanCache<Dim> old = std::move(cache);
  return ghost_build<Dim>(forest, 1, &old, &cache, &prev);
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
