// "Balance" (paper §II-C): establish the 2:1 size condition between all
// neighboring leaves — across faces, edges (3D), and corners, within trees
// and across inter-tree connections via the connectivity transforms.
//
// balance() is a single pass. The 2:1 closure of the mesh is computed
// locally by level-bucket propagation: every leaf at level l seeds the
// insulation layer of its parent (the 3^Dim block of level-(l-1) octants
// centered on it, mapped into neighbor trees where it leaves the root). A
// bucket octant at level j is a constraint demanding that every leaf
// overlapping it end at level >= j. Buckets hold Morton keys (one level per
// bucket, so key order is SFC order) and are processed finest to coarsest
// with a sort+unique merge of the keys per (tree, level); each surviving
// constraint propagates its own parent's insulation layer one level down. A
// constraint whose region is fully owned by this rank and already tiled by
// equal-or-finer leaves is pruned outright — the covering leaves' own seeds
// subsume its cascade — which keeps the closure linear in practice.
// Constraints overlapping foreign ranks are deduplicated and shipped in
// exactly ONE alltoallv: because each rank's local closure is transitively
// complete down to the coarsest level, received constraints never need
// re-propagation. A final recursive completion walks each leaf against the
// merged constraint set and emits its refined subtree directly in Morton
// order — no per-round erase/insert, no global re-sorts.
//
// BalanceEquivalence (tests/test_balance.cc) pins the result bit for bit to
// the original iterated ripple, a test-only oracle in tests/oracles.h.
#include <algorithm>

#include "forest/delta.h"
#include "forest/forest.h"
#include "forest/ghost.h"
#include "forest/stats.h"

namespace esamr::forest {

namespace {

/// Recursively subdivide N until every constraint in cs[js, je) — all strict
/// descendants of N, sorted in SFC order — is matched by an equal-or-finer
/// emitted octant; the completed subtree is appended in Morton order.
template <int Dim>
void complete_against(const Octant<Dim>& N, const Octant<Dim>* cs, std::size_t js, std::size_t je,
                      std::vector<Octant<Dim>>& out) {
  if (js == je) {
    out.push_back(N);
    return;
  }
  for (int i = 0; i < Topo<Dim>::num_children; ++i) {
    const Octant<Dim> ch = N.child(i);
    const Octant<Dim> last = ch.last_descendant(Octant<Dim>::max_level);
    std::size_t ke = js;
    while (ke < je && !(last < cs[ke])) ++ke;  // constraints inside ch
    std::size_t ks = js;
    while (ks < ke && cs[ks].level <= ch.level) ++ks;  // ch itself, if demanded
    complete_against(ch, cs, ks, ke, out);
    js = ke;
  }
}

}  // namespace

template <int Dim>
void Forest<Dim>::balance() {
  balance_single_pass_impl(nullptr);
}

namespace {

/// Seed-filter width for incremental balance, in delta-sized insulation
/// rings. Binding constraints on a delta region d come from families whose
/// parent is no larger than d (coarser demands are satisfied by the
/// level >= level(d) invariant of delta regions), and a level-l constraint
/// octant lies within the geometric sum of its cascade steps — under
/// 4 * size of its originating family — so every family whose closure can
/// bind inside or cascade out of the delta overlaps this many rings, and
/// seeding exactly the families the closure selects is sound. The
/// bit-identity battery (test_incremental.cc) pins the sufficiency.
constexpr int kBalanceSeedRings = 6;

/// Largest global delta, as a fraction of the mesh's octants, that
/// balance_incremental handles incrementally; a larger one runs the full
/// pass and marks the delta overflowed so the downstream caches rebuild.
constexpr double kDeltaThreshold = 0.10;

}  // namespace

template <int Dim>
void Forest<Dim>::balance_single_pass_impl(const std::vector<std::vector<Oct>>* seed_filter) {
  const int p = comm_->size();
  const int me = comm_->rank();
  OpStats& ops = op_stats();
  const std::int64_t n_before = num_local();
  const int nt = num_trees();
  // Level buckets: bucket[t][l] holds the keys of constraint octants of
  // tree t at level l, each demanding that every overlapping leaf end at
  // level >= l. All are inside the root at one level, so a key names its
  // octant and key order is SFC order.
  std::vector<std::vector<std::vector<std::uint64_t>>> bucket(
      static_cast<std::size_t>(nt),
      std::vector<std::vector<std::uint64_t>>(static_cast<std::size_t>(Oct::max_level) + 1));
  int top = 0;  // highest nonempty bucket level

  // Insert the insulation layer of `par` (level par.level members, including
  // par itself) into the buckets, mapping exterior members into their
  // neighbor trees.
  const auto insert_layer = [&](int t, const Oct& par) {
    const auto l = static_cast<std::size_t>(par.level);
    top = std::max(top, static_cast<int>(par.level));
    for (int code = 0; code < Oct::num_insulation; ++code) {
      const Oct n = par.insulation_neighbor(code);
      if (n.inside_root()) {
        bucket[static_cast<std::size_t>(t)][l].push_back(n.key());
        ops.balance_seed_octants++;
      } else {
        for (const auto& [t2, img] : conn_->exterior_images(t, n)) {
          bucket[static_cast<std::size_t>(t2)][l].push_back(img.key());
          ops.balance_seed_octants++;
        }
      }
    }
  };

  // Seed: one parent insulation layer per sibling family (siblings are
  // adjacent in the sorted leaf array, so a one-deep memo deduplicates).
  // Under a seed filter only families whose parent overlaps the filter
  // region are seeded: distant families' constraints were satisfied by the
  // pre-adapt (balanced) forest and bind nowhere in the unchanged leaves;
  // the cascade in the propagation loop below is seed-independent.
  if (seed_filter == nullptr) {
    for (int t = 0; t < nt; ++t) {
      Oct last_par;
      bool have_par = false;
      for (const Oct& o : trees_[static_cast<std::size_t>(t)]) {
        if (o.level < 2) continue;  // the layer would demand level >= 0: vacuous
        const Oct par = o.parent();
        if (have_par && par == last_par) continue;
        last_par = par;
        have_par = true;
        insert_layer(t, par);
      }
    }
  } else {
    // Delta-driven seeding: instead of scanning every leaf against the
    // filter, enumerate exactly the families whose parent overlaps a filter
    // region — O(|filter| log n) lookups instead of O(n) scans. A parent P
    // overlaps region w iff (octant nesting) P <= w, caught by the leaf
    // ranges overlapping w, or P strictly contains w, caught by probing for
    // leaf children of each ancestor of w.
    for (int t = 0; t < nt; ++t) {
      const std::vector<Oct>& filter = (*seed_filter)[static_cast<std::size_t>(t)];
      const auto& leaves = trees_[static_cast<std::size_t>(t)];
      std::vector<Oct> parents;
      for (const Oct& w : filter) {
        const auto [lo, hi] = overlapping_range<Dim>(leaves, w);
        for (std::size_t i = lo; i < hi; ++i) {
          if (leaves[i].level < 2) continue;
          const Oct par = leaves[i].parent();
          if (parents.empty() || !(parents.back() == par)) parents.push_back(par);
        }
        for (Oct anc = w; anc.level >= 2;) {
          anc = anc.parent();
          for (int ci = 0; ci < Topo<Dim>::num_children; ++ci) {
            const Oct c = anc.child(ci);
            const auto it = std::lower_bound(leaves.begin(), leaves.end(), c);
            if (it != leaves.end() && *it == c) {
              parents.push_back(anc);
              break;
            }
          }
        }
      }
      std::sort(parents.begin(), parents.end());
      parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
      for (const Oct& par : parents) insert_layer(t, par);
    }
  }

  // Propagate finest to coarsest. Every bucket is deduplicated by one
  // sort+unique merge pass over its keys; surviving constraints are kept for
  // the local completion, shipped to foreign owners, and cascade their
  // parent's insulation layer one level down.
  std::vector<std::vector<Oct>> cons(static_cast<std::size_t>(nt));
  std::vector<std::vector<OctMsg>> send(static_cast<std::size_t>(p));
  for (int l = top; l >= 1; --l) {
    for (int t = 0; t < nt; ++t) {
      auto& keys = bucket[static_cast<std::size_t>(t)][static_cast<std::size_t>(l)];
      if (keys.empty()) continue;
      ops.balance_merge_passes++;
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      const auto& leaves = trees_[static_cast<std::size_t>(t)];
      Oct last_par;
      bool have_par = false;
      for (const std::uint64_t k : keys) {
        const Oct b = Oct::from_key(k, l);
        const auto [r0, r1] = owner_range(t, b);
        bool pruned = false;
        if (r0 == me && r1 == me) {
          // Fully local: the constraint binds iff a strictly coarser leaf
          // contains b. Otherwise b's region is tiled by equal-or-finer
          // leaves whose own seeds subsume its cascade — prune it outright.
          const auto [lo, hi] = overlapping_range<Dim>(leaves, b);
          if (hi - lo == 1 && leaves[lo].level < b.level && leaves[lo].contains(b)) {
            cons[static_cast<std::size_t>(t)].push_back(b);
            ops.balance_closure_kept++;
          } else {
            pruned = true;
          }
        } else {
          for (int r = r0; r <= r1; ++r) {
            if (r == me) continue;
            send[static_cast<std::size_t>(r)].push_back(OctMsg::of(t, b));
          }
          if (r0 <= me && me <= r1) {
            cons[static_cast<std::size_t>(t)].push_back(b);
            ops.balance_closure_kept++;
          }
        }
        if (!pruned && b.level >= 2) {
          const Oct par = b.parent();
          if (!(have_par && par == last_par)) {
            insert_layer(t, par);
            last_par = par;
            have_par = true;
          }
        }
      }
      keys.clear();
      keys.shrink_to_fit();
    }
  }

  // The one and only exchange: each rank's closure is transitively complete,
  // so received constraints need no further propagation.
  ops.balance_exchange_rounds++;
  for (const auto& buf : send) {
    ops.balance_octants_sent += static_cast<std::int64_t>(buf.size());
  }
  const auto recv = comm_->alltoallv(send);
  for (const auto& from : recv) {
    for (const OctMsg& m : from) {
      cons[static_cast<std::size_t>(m.tree)].push_back(m.octant<Dim>());
    }
  }

  // Completion: walk leaves and merged constraints in lockstep; every leaf
  // with strict-descendant constraints is recursively completed against
  // them, emitting its refined subtree directly in Morton order.
  for (int t = 0; t < nt; ++t) {
    auto& cs = cons[static_cast<std::size_t>(t)];
    if (cs.empty()) continue;
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
    ops.balance_merge_passes++;
    auto& leaves = trees_[static_cast<std::size_t>(t)];
    std::vector<Oct> out;
    out.reserve(leaves.size());
    std::size_t j = 0;
    const std::size_t nc = cs.size();
    for (const Oct& L : leaves) {
      while (j < nc && !(L < cs[j])) ++j;  // ancestors-of/equal-to L: satisfied
      const Oct last = L.last_descendant(Oct::max_level);
      std::size_t je = j;
      while (je < nc && !(last < cs[je])) ++je;  // strict descendants of L
      if (je == j) {
        out.push_back(L);
      } else {
        complete_against<Dim>(L, cs.data(), j, je, out);
      }
      j = je;
    }
    leaves = std::move(out);
  }
  ops.balance_leaves_created += num_local() - n_before;
  update_partition_meta();
}

template <int Dim>
bool Forest<Dim>::balance_incremental(DeltaSet<Dim>& delta) {
  OpStats& ops = op_stats();
  const std::int64_t local_cnt = delta.count();
  // Global go/no-go: every rank must take the same path. A poisoned delta
  // on any rank and the size threshold force the full rebuild.
  const bool full_local = delta.overflow;
  // One fused allreduce: [any-rank-wants-full, global delta, global octants].
  std::array<std::int64_t, 3> tot{static_cast<std::int64_t>(full_local), local_cnt, num_local()};
  comm_->allreduce_bytes(tot.data(), sizeof(tot), [](void* acc_p, const void* in_p) {
    auto* acc = static_cast<std::int64_t*>(acc_p);
    const auto* in = static_cast<const std::int64_t*>(in_p);
    for (int i = 0; i < 3; ++i) acc[i] += in[i];
  });
  const std::int64_t want_full = tot[0];
  const std::int64_t gd = tot[1];
  const std::int64_t gn = tot[2];
  if (want_full != 0 || static_cast<double>(gd) > kDeltaThreshold * static_cast<double>(gn)) {
    delta.overflow = true;
    balance();
    return false;
  }
  ops.delta_octants += local_cnt;
  if (gd == 0) return true;  // balanced before the markers and nothing changed

  // Snapshot the pre-balance leaves so completion-induced refinements can be
  // recorded; then run the single pass seeded only near the replicated delta
  // (changes on any rank can force refinement across its partition boundary).
  const std::vector<std::vector<Oct>> before = trees_;
  const auto filter = delta.replicated(*comm_).closure(*conn_, kBalanceSeedRings);
  balance_single_pass_impl(&filter);

  // Balance only refines: every pre-balance leaf is either kept or replaced
  // by its complete refined subtree (contiguous in SFC order).
  for (int t = 0; t < num_trees(); ++t) {
    const auto& olds = before[static_cast<std::size_t>(t)];
    const auto& news = trees_[static_cast<std::size_t>(t)];
    std::size_t j = 0;
    for (const Oct& o : olds) {
      if (j < news.size() && news[j] == o) {
        ++j;
        continue;
      }
      delta.record(t, o);
      while (j < news.size() && o.contains(news[j])) ++j;
    }
  }
  return true;
}

template <int Dim>
bool check_balanced(const Forest<Dim>& forest) {
  using Oct = Octant<Dim>;
  using T = Topo<Dim>;
  const auto ghost = GhostLayer<Dim>::build(forest);
  const auto dir = build_leaf_directory(forest, ghost);
  const auto& conn = forest.conn();
  bool ok = true;

  // A leaf strictly containing the same-level neighbor `n` of a level-`lvl`
  // leaf is adjacent to that leaf, so it must be at most one level coarser.
  // Every known leaf overlapping n either contains it (the predecessor in
  // SFC order, or an equal/descendant entry at the lower_bound itself) or
  // lies inside it, in which case the symmetric visit from that finer leaf's
  // rank performs the check.
  const auto check_at = [&](int t2, const Oct& n, int lvl) {
    const auto& list = dir[static_cast<std::size_t>(t2)];
    auto it = std::lower_bound(list.begin(), list.end(), n,
                               [](const LeafRef<Dim>& a, const Oct& b) { return a.oct < b; });
    if (it != list.begin()) {
      const auto& prev = *std::prev(it);
      if (prev.oct.contains(n) && prev.oct.level < lvl - 1) ok = false;
    }
    if (it != list.end() && it->oct.contains(n) && it->oct.level < lvl - 1) ok = false;
  };

  forest.for_each_local([&](int t, const Oct& o) {
    const auto place = [&](const Oct& n) {
      if (n.inside_root()) {
        check_at(t, n, o.level);
      } else {
        for (const auto& [t2, img] : conn.exterior_images(t, n)) check_at(t2, img, o.level);
      }
    };
    for (int f = 0; f < T::num_faces; ++f) place(o.face_neighbor(f));
    if constexpr (Dim == 3) {
      for (int e = 0; e < T::num_edges; ++e) place(o.edge_neighbor(e));
    }
    for (int c = 0; c < T::num_corners; ++c) place(o.corner_neighbor(c));
  });
  return forest.comm().allreduce(static_cast<int>(ok), par::ReduceOp::logical_and) != 0;
}

template void Forest<2>::balance();
template void Forest<3>::balance();
template void Forest<2>::balance_single_pass_impl(const std::vector<std::vector<Octant<2>>>*);
template void Forest<3>::balance_single_pass_impl(const std::vector<std::vector<Octant<3>>>*);
template bool Forest<2>::balance_incremental(DeltaSet<2>&);
template bool Forest<3>::balance_incremental(DeltaSet<3>&);
template bool check_balanced<2>(const Forest<2>&);
template bool check_balanced<3>(const Forest<3>&);

}  // namespace esamr::forest
