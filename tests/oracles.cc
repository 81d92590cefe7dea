#include "oracles.h"

#include <array>
#include <deque>
#include <set>

namespace esamr::oracles {

using forest::Forest;
using forest::Octant;
using forest::OctMsg;

namespace {

/// A shadow constraint tagged with its tree.
template <int Dim>
struct Shadow {
  int tree;
  Octant<Dim> oct;
  friend bool operator<(const Shadow& a, const Shadow& b) {
    if (a.tree != b.tree) return a.tree < b.tree;
    if (a.oct.key() != b.oct.key()) return a.oct.key() < b.oct.key();
    return a.oct.level < b.oct.level;
  }
};

}  // namespace

template <int Dim>
void balance_ripple(Forest<Dim>& f) {
  using Oct = Octant<Dim>;
  using T = forest::Topo<Dim>;
  par::Comm& comm = f.comm();
  const auto& conn = f.conn();
  const int p = comm.size();
  const int me = comm.rank();

  std::deque<Shadow<Dim>> queue;        // constraints to enforce locally
  std::set<Shadow<Dim>> outgoing_seen;  // shadows already sent
  std::set<Shadow<Dim>> foreign_seen;   // shadows already received
  std::vector<std::vector<OctMsg>> send(static_cast<std::size_t>(p));

  // Emit the shadow constraints of octant o in tree t into the local queue
  // and/or the per-rank send buffers, depending on who owns the region.
  const auto emit = [&](int t, const Oct& o) {
    const auto handle = [&](int t2, const Oct& n) {
      if (n.level <= 1) return;  // constraint "level >= n.level - 1" is vacuous
      const int r0 = f.find_owner(t2, n);
      const int r1 = f.find_owner(t2, n.last_descendant(Oct::max_level));
      for (int r = r0; r <= r1; ++r) {
        if (r == me) {
          queue.push_back(Shadow<Dim>{t2, n});
        } else {
          const Shadow<Dim> s{t2, n};
          if (outgoing_seen.insert(s).second) {
            send[static_cast<std::size_t>(r)].push_back(
                OctMsg{t2, n.x, n.y, Dim == 3 ? n.z : 0, n.level});
          }
        }
      }
    };
    const auto place = [&](const Oct& n) {
      if (n.inside_root()) {
        handle(t, n);
      } else {
        for (const auto& [t2, img] : conn.exterior_images(t, n)) handle(t2, img);
      }
    };
    for (int fc = 0; fc < T::num_faces; ++fc) place(o.face_neighbor(fc));
    if constexpr (Dim == 3) {
      for (int e = 0; e < T::num_edges; ++e) place(o.edge_neighbor(e));
    }
    for (int c = 0; c < T::num_corners; ++c) place(o.corner_neighbor(c));
  };

  // Drain the local constraint queue, refining too-coarse leaves; newly
  // created children emit their own shadows. Returns whether anything
  // was refined.
  const auto drain = [&]() {
    bool changed = false;
    while (!queue.empty()) {
      const Shadow<Dim> s = queue.front();
      queue.pop_front();
      auto& leaves = f.mutable_tree(s.tree);
      const auto [lo, hi] = forest::overlapping_range<Dim>(leaves, s.oct);
      if (hi - lo == 1 && leaves[lo].level < s.oct.level - 1 && leaves[lo].contains(s.oct)) {
        // Too-coarse ancestor: split once and re-examine the same shadow.
        const Oct parent = leaves[lo];
        std::array<Oct, T::num_children> kids{};
        for (int c = 0; c < T::num_children; ++c) kids[static_cast<std::size_t>(c)] = parent.child(c);
        leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(lo));
        leaves.insert(leaves.begin() + static_cast<std::ptrdiff_t>(lo), kids.begin(), kids.end());
        changed = true;
        for (const Oct& k : kids) emit(s.tree, k);
        queue.push_back(s);
      }
    }
    return changed;
  };

  // Seed with every local leaf, then alternate local drain and boundary
  // exchange until no rank refines and no new shadows arrive anywhere.
  f.for_each_local(emit);
  for (;;) {
    const bool refined = drain();
    bool got_new = false;
    const auto recv = comm.alltoallv(send);
    for (auto& buf : send) buf.clear();
    for (const auto& from : recv) {
      for (const OctMsg& m : from) {
        Oct o;
        o.x = m.x;
        o.y = m.y;
        if constexpr (Dim == 3) o.z = m.z;
        o.level = static_cast<std::int8_t>(m.level);
        const Shadow<Dim> s{m.tree, o};
        if (foreign_seen.insert(s).second) {
          queue.push_back(s);
          got_new = true;
        }
      }
    }
    const int any = comm.allreduce(static_cast<int>(refined || got_new), par::ReduceOp::logical_or);
    if (!any) break;
  }
  f.update_partition_meta();
}

template void balance_ripple<2>(Forest<2>&);
template void balance_ripple<3>(Forest<3>&);

}  // namespace esamr::oracles
