#include "forest/forest.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "forest/delta.h"

namespace esamr::forest {

namespace {

/// Sentinel position past the end of the global SFC order.
SfcPosition end_sentinel(int num_trees) {
  return SfcPosition{num_trees, 0};
}

/// The equal split of `total` octants over `p` ranks: rank r holds global
/// SFC indices [cut[r], cut[r+1]); ranks [0, total % p) hold one extra.
std::vector<std::int64_t> uniform_cuts(std::int64_t total, int p) {
  const std::int64_t base = total / p, rem = total % p;
  std::vector<std::int64_t> cut(static_cast<std::size_t>(p) + 1);
  for (int r = 0; r <= p; ++r) {
    cut[static_cast<std::size_t>(r)] = r * base + std::min<std::int64_t>(r, rem);
  }
  return cut;
}

/// The rank holding each global SFC index in [g0, g1) under monotone `cut`
/// (cut[0] = 0, cut[p] = total).
std::vector<int> ranks_by_cut(const std::vector<std::int64_t>& cut, std::int64_t g0,
                              std::int64_t g1) {
  std::vector<int> dest;
  dest.reserve(static_cast<std::size_t>(g1 - g0));
  for (std::int64_t g = g0; g < g1; ++g) {
    dest.push_back(static_cast<int>(std::upper_bound(cut.begin(), cut.end(), g) - cut.begin()) -
                   1);
  }
  return dest;
}

}  // namespace

template <int Dim>
std::pair<std::size_t, std::size_t> overlapping_range(const std::vector<Octant<Dim>>& leaves,
                                                      const Octant<Dim>& n) {
  const auto first_it = std::lower_bound(leaves.begin(), leaves.end(), n);
  std::size_t first = static_cast<std::size_t>(first_it - leaves.begin());
  if (first > 0 && leaves[first - 1].contains(n)) {
    return {first - 1, first};
  }
  const Octant<Dim> last_pos = n.last_descendant(Octant<Dim>::max_level);
  const auto last_it = std::upper_bound(first_it, leaves.end(), last_pos);
  return {first, static_cast<std::size_t>(last_it - leaves.begin())};
}

template <int Dim>
Forest<Dim> Forest<Dim>::new_uniform(par::Comm& comm, const Conn* conn, int level) {
  if (level < 0 || level > Oct::max_level) throw std::runtime_error("new_uniform: bad level");
  Forest f(comm, conn);
  const std::int64_t per_tree = std::int64_t{1} << (Dim * level);
  const std::int64_t total = per_tree * conn->num_trees();
  const int p = comm.size(), r = comm.rank();
  const std::int64_t base = total / p, rem = total % p;
  const std::int64_t first = r * base + std::min<std::int64_t>(r, rem);
  const std::int64_t count = base + (r < rem ? 1 : 0);
  for (std::int64_t g = first; g < first + count; ++g) {
    const int t = static_cast<int>(g / per_tree);
    const std::int64_t m = g % per_tree;
    Oct o;
    o.level = static_cast<std::int8_t>(level);
    std::int32_t x = 0, y = 0, z = 0;
    for (int b = 0; b < level; ++b) {
      x |= static_cast<std::int32_t>((m >> (Dim * b + 0)) & 1) << b;
      y |= static_cast<std::int32_t>((m >> (Dim * b + 1)) & 1) << b;
      if constexpr (Dim == 3) z |= static_cast<std::int32_t>((m >> (Dim * b + 2)) & 1) << b;
    }
    const int shift = Oct::max_level - level;
    o.x = x << shift;
    o.y = y << shift;
    if constexpr (Dim == 3) o.z = z << shift;
    f.trees_[static_cast<std::size_t>(t)].push_back(o);
  }
  f.update_partition_meta();
  return f;
}

template <int Dim>
Forest<Dim> Forest<Dim>::from_local_leaves(par::Comm& comm, const Conn* conn,
                                           std::vector<std::vector<Oct>> trees) {
  if (static_cast<int>(trees.size()) != conn->num_trees()) {
    throw std::runtime_error("from_local_leaves: tree count does not match connectivity");
  }
  Forest f(comm, conn);
  f.trees_ = std::move(trees);
  if (!f.is_valid_local()) {
    throw std::runtime_error("from_local_leaves: local leaves violate SFC invariants");
  }
  f.update_partition_meta();
  return f;
}

template <int Dim>
std::int64_t Forest<Dim>::num_local() const {
  std::int64_t n = 0;
  for (const auto& t : trees_) n += static_cast<std::int64_t>(t.size());
  return n;
}

template <int Dim>
std::int64_t Forest<Dim>::num_global() const {
  std::int64_t n = 0;
  for (const std::int64_t c : counts_) n += c;
  return n;
}

template <int Dim>
std::int64_t Forest<Dim>::global_offset() const {
  std::int64_t n = 0;
  for (int r = 0; r < comm_->rank(); ++r) n += counts_[static_cast<std::size_t>(r)];
  return n;
}

template <int Dim>
int Forest<Dim>::max_local_level() const {
  int m = 0;
  for (const auto& t : trees_) {
    for (const Oct& o : t) m = std::max(m, static_cast<int>(o.level));
  }
  return m;
}

template <int Dim>
void Forest<Dim>::update_partition_meta() {
  counts_ = comm_->allgather(num_local());
  SfcPosition mine = end_sentinel(num_trees());
  for (int t = 0; t < num_trees(); ++t) {
    if (!trees_[static_cast<std::size_t>(t)].empty()) {
      mine = SfcPosition{t, trees_[static_cast<std::size_t>(t)].front().key()};
      break;
    }
  }
  markers_ = comm_->allgather(mine);
  // Empty ranks take the next rank's marker so the marker array stays
  // non-decreasing and owner search stays a single upper_bound.
  for (int r = comm_->size() - 2; r >= 0; --r) {
    if (counts_[static_cast<std::size_t>(r)] == 0) {
      markers_[static_cast<std::size_t>(r)] = markers_[static_cast<std::size_t>(r + 1)];
    }
  }
}

template <int Dim>
int Forest<Dim>::owner_of(const SfcPosition& pos) const {
  const auto it = std::upper_bound(markers_.begin(), markers_.end(), pos);
  const auto idx = it - markers_.begin();
  return idx > 0 ? static_cast<int>(idx - 1) : 0;
}

template <int Dim>
int Forest<Dim>::find_owner(int tree_id, const Oct& o) const {
  return owner_of(SfcPosition{tree_id, o.key()});
}

template <int Dim>
std::pair<int, int> Forest<Dim>::owner_range(int tree_id, const Oct& o) const {
  const std::uint64_t first = o.key();
  const std::uint64_t below = (std::uint64_t{1} << (Dim * (Oct::max_level - o.level))) - 1;
  return {owner_of(SfcPosition{tree_id, first}), owner_of(SfcPosition{tree_id, first | below})};
}

template <int Dim>
bool Forest<Dim>::owns_insulation(int tree_id, const Oct& o) const {
  const std::int32_t h = o.size();
  bool interior = o.x >= h && o.x + 2 * h <= Oct::root_len &&
                  o.y >= h && o.y + 2 * h <= Oct::root_len;
  if constexpr (Dim == 3) interior = interior && o.z >= h && o.z + 2 * h <= Oct::root_len;
  if (!interior) return false;
  // The Morton key is monotone per coordinate, so the 3^Dim same-size block
  // around `o` spans the SFC range [key(lo corner cell), key(hi corner
  // cell's last descendant)]: two owner lookups bound every candidate owner.
  Oct lo = o, hi = o;
  lo.x -= h;
  lo.y -= h;
  hi.x += h;
  hi.y += h;
  if constexpr (Dim == 3) {
    lo.z -= h;
    hi.z += h;
  }
  const int me = comm_->rank();
  return find_owner(tree_id, lo) == me &&
         find_owner(tree_id, hi.last_descendant(Oct::max_level)) == me;
}

template <int Dim>
const Octant<Dim>* Forest<Dim>::find_local_leaf_containing(int tree_id, const Oct& o) const {
  const auto& leaves = trees_[static_cast<std::size_t>(tree_id)];
  const auto it = std::upper_bound(leaves.begin(), leaves.end(), o);
  if (it == leaves.begin()) return nullptr;
  const Oct& cand = *(it - 1);
  return cand.contains(o) ? &cand : nullptr;
}

template <int Dim>
void Forest<Dim>::refine(int max_level, bool recursive,
                         const std::function<bool(int, const Oct&)>& marker,
                         DeltaSet<Dim>* delta) {
  for (int t = 0; t < num_trees(); ++t) {
    auto& leaves = trees_[static_cast<std::size_t>(t)];
    if (leaves.empty()) continue;
    std::vector<Oct> out;
    out.reserve(leaves.size());
    // Depth-first emission preserves SFC order; `allow` limits non-recursive
    // refinement to the original leaves. Only the original leaf is recorded
    // as a change region — recursive refinement stays inside it.
    const std::function<void(const Oct&, bool, bool)> emit = [&](const Oct& o, bool allow,
                                                                 bool original) {
      if (allow && o.level < max_level && marker(t, o)) {
        if (original && delta != nullptr) delta->record(t, o);
        for (int c = 0; c < T::num_children; ++c) emit(o.child(c), recursive, false);
      } else {
        out.push_back(o);
      }
    };
    for (const Oct& o : leaves) emit(o, true, true);
    leaves = std::move(out);
  }
  update_partition_meta();
}

template <int Dim>
void Forest<Dim>::coarsen(bool recursive, const std::function<bool(int, const Oct&)>& marker,
                          DeltaSet<Dim>* delta) {
  bool changed_any = true;
  while (changed_any) {
    changed_any = false;
    for (int t = 0; t < num_trees(); ++t) {
      auto& leaves = trees_[static_cast<std::size_t>(t)];
      if (leaves.empty()) continue;
      std::vector<Oct> out;
      out.reserve(leaves.size());
      std::size_t i = 0;
      while (i < leaves.size()) {
        const Oct& o = leaves[i];
        bool family = o.level > 0 && o.child_id() == 0 &&
                      i + T::num_children <= leaves.size();
        Oct parent;
        if (family) {
          parent = o.parent();
          for (int c = 0; family && c < T::num_children; ++c) {
            family = leaves[i + static_cast<std::size_t>(c)] == parent.child(c);
          }
        }
        if (family && marker(t, parent)) {
          if (delta != nullptr) delta->record(t, parent);
          out.push_back(parent);
          i += static_cast<std::size_t>(T::num_children);
          changed_any = true;
        } else {
          out.push_back(o);
          ++i;
        }
      }
      leaves = std::move(out);
    }
    if (!recursive) break;
  }
  update_partition_meta();
}

template <int Dim>
void Forest<Dim>::partition() {
  std::vector<double> none;
  partition_payload(nullptr, 0, none);
}

template <int Dim>
void Forest<Dim>::partition(const std::function<double(int, const Oct&)>& weight) {
  std::vector<double> none;
  partition_payload(&weight, 0, none);
}

template <int Dim>
void Forest<Dim>::partition_payload(const std::function<double(int, const Oct&)>* weight,
                                    int per_oct, std::vector<double>& data) {
  const int p = comm_->size();
  // Per-octant destination rank, non-decreasing along the SFC so that
  // contiguous runs move and the receive order (by source rank) preserves
  // the SFC order.
  std::vector<int> dest;
  bool weighted = weight != nullptr;
  if (weighted) {
    dest.reserve(static_cast<std::size_t>(num_local()));
    std::vector<double> w;
    w.reserve(static_cast<std::size_t>(num_local()));
    double local_sum = 0.0;
    for (int t = 0; t < num_trees(); ++t) {
      for (const Oct& o : trees_[static_cast<std::size_t>(t)]) {
        const double wi = (*weight)(t, o);
        if (wi < 0.0) throw std::runtime_error("partition: negative weight");
        w.push_back(wi);
        local_sum += wi;
      }
    }
    const auto sums = comm_->allgather(local_sum);
    double offset = 0.0, total = 0.0;
    for (int r = 0; r < p; ++r) {
      if (r < comm_->rank()) offset += sums[static_cast<std::size_t>(r)];
      total += sums[static_cast<std::size_t>(r)];
    }
    if (total <= 0.0) {
      weighted = false;  // fall through to the uniform split below
    } else {
      double prefix = offset;
      for (const double wi : w) {
        const double mid = prefix + 0.5 * wi;
        prefix += wi;
        dest.push_back(std::min(p - 1, static_cast<int>(mid * p / total)));
      }
    }
  }
  if (!weighted) {
    const std::int64_t g0 = global_offset();
    dest = ranks_by_cut(uniform_cuts(num_global(), p), g0, g0 + num_local());
  }
  redistribute(dest, per_oct, data);
}

template <int Dim>
void Forest<Dim>::redistribute(const std::vector<int>& dest, int per_oct,
                               std::vector<double>& data) {
  const int p = comm_->size();
  std::vector<std::vector<OctMsg>> send(static_cast<std::size_t>(p));
  std::vector<std::vector<double>> send_data(static_cast<std::size_t>(p));
  std::size_t i = 0;
  for (int t = 0; t < num_trees(); ++t) {
    for (const Oct& o : trees_[static_cast<std::size_t>(t)]) {
      const auto d = static_cast<std::size_t>(dest[i]);
      send[d].push_back(OctMsg::of(t, o));
      if (per_oct > 0) {
        const double* block = data.data() + i * static_cast<std::size_t>(per_oct);
        send_data[d].insert(send_data[d].end(), block, block + per_oct);
      }
      ++i;
    }
  }
  std::vector<std::vector<OctMsg>> recv;
  {
    // Leaves and payload stay rank-owned across the exchange; the guards
    // end before the rebuild below (which may reallocate the arrays).
    const auto leaf_guards = check_guard_leaves("partition leaves");
    const par::check::RegionGuard payload_guard(*comm_, data.data(),
                                                data.size() * sizeof(double),
                                                "partition payload");
    recv = comm_->alltoallv(send);
  }
  for (auto& tr : trees_) tr.clear();
  for (const auto& from : recv) {
    for (const OctMsg& m : from) {
      trees_[static_cast<std::size_t>(m.tree)].push_back(m.octant<Dim>());
    }
  }
  if (per_oct > 0) {
    const auto recv_data = comm_->alltoallv(send_data);
    data.clear();
    for (const auto& from : recv_data) data.insert(data.end(), from.begin(), from.end());
  }
  update_partition_meta();
}

template <int Dim>
void Forest<Dim>::partition_for_coarsening() {
  constexpr int nc = T::num_children;
  const int p = comm_->size();
  const int me = comm_->rank();
  std::vector<std::int64_t> bound = uniform_cuts(num_global(), p);

  // Flat local view in wire form, so octants borrowed from the neighbours
  // splice in directly.
  std::vector<OctMsg> flat;
  flat.reserve(static_cast<std::size_t>(num_local()));
  for_each_local([&](int t, const Oct& o) { flat.push_back(OctMsg::of(t, o)); });
  const std::int64_t g0 = global_offset();
  const std::int64_t g1 = g0 + num_local();

  // Borrow up to nc-1 octants from each neighboring rank so a family window
  // around a prospective boundary can be inspected even when it crosses the
  // current rank boundary. A rank sends only its head down and its tail up,
  // so one reserved tag leaves every pair a single message.
  const std::size_t nb = std::min<std::size_t>(nc - 1, flat.size());
  if (me > 0) comm_->send(me - 1, tag_partition_borrow, std::span<const OctMsg>(flat.data(), nb));
  if (me < p - 1) {
    comm_->send(me + 1, tag_partition_borrow,
                std::span<const OctMsg>(flat.data() + flat.size() - nb, nb));
  }
  std::vector<OctMsg> prev_tail, next_head;
  if (me > 0) prev_tail = comm_->recv(me - 1, tag_partition_borrow).as<OctMsg>();
  if (me < p - 1) next_head = comm_->recv(me + 1, tag_partition_borrow).as<OctMsg>();
  flat.insert(flat.begin(), prev_tail.begin(), prev_tail.end());
  flat.insert(flat.end(), next_head.begin(), next_head.end());
  // flat now covers global indices [e0, e0 + flat.size()).
  const std::int64_t e0 = g0 - static_cast<std::int64_t>(prev_tail.size());

  // A boundary falling into the middle of a complete family is shifted
  // back to the family start; incomplete windows are left alone.
  struct Adj {
    std::int64_t rank;
    std::int64_t value;
  };
  std::vector<Adj> adjustments;
  for (int r = 1; r < p; ++r) {
    const std::int64_t g = bound[static_cast<std::size_t>(r)];
    if (g < g0 || g >= g1) continue;  // the current owner adjusts it
    const OctMsg& m = flat[static_cast<std::size_t>(g - e0)];
    const Oct q = m.octant<Dim>();
    const int cid = q.child_id();
    if (q.level == 0 || cid == 0) continue;
    const std::int64_t s = g - cid;
    if (s < e0 || s + nc > e0 + static_cast<std::int64_t>(flat.size())) continue;
    bool family = true;
    const Oct parent = q.parent();
    for (int c = 0; c < nc; ++c) {
      if (flat[static_cast<std::size_t>(s + c - e0)] != OctMsg::of(m.tree, parent.child(c))) {
        family = false;
      }
    }
    if (family) adjustments.push_back(Adj{r, s});
  }
  for (const auto& from : comm_->allgatherv(adjustments)) {
    for (const Adj& a : from) bound[static_cast<std::size_t>(a.rank)] = a.value;
  }
  for (int r = 1; r <= p; ++r) {  // keep the cuts monotone
    bound[static_cast<std::size_t>(r)] =
        std::max(bound[static_cast<std::size_t>(r)], bound[static_cast<std::size_t>(r - 1)]);
  }

  std::vector<double> none;
  redistribute(ranks_by_cut(bound, g0, g1), 0, none);
}

template <int Dim>
void Forest<Dim>::search(const std::function<bool(int, const Oct&, bool)>& visit) const {
  for (int t = 0; t < num_trees(); ++t) {
    const auto& leaves = trees_[static_cast<std::size_t>(t)];
    if (leaves.empty()) continue;
    const std::function<void(const Oct&)> descend = [&](const Oct& node) {
      const auto [lo, hi] = overlapping_range<Dim>(leaves, node);
      if (lo >= hi) return;
      if (hi - lo == 1 && leaves[lo].level <= node.level) {
        // Reached a leaf (the node is the leaf or inside it).
        visit(t, leaves[lo], true);
        return;
      }
      if (!visit(t, node, false)) return;
      for (int c = 0; c < T::num_children; ++c) descend(node.child(c));
    };
    descend(Oct::root());
  }
}

template <int Dim>
bool Forest<Dim>::is_valid_local() const {
  for (const auto& leaves : trees_) {
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (!leaves[i].inside_root()) return false;
      if (i > 0) {
        if (!(leaves[i - 1] < leaves[i])) return false;
        if (leaves[i - 1].overlaps(leaves[i])) return false;
      }
    }
  }
  return true;
}

template <int Dim>
std::uint64_t Forest<Dim>::checksum() const {
  // Order-independent per-octant hash so the checksum is invariant under
  // repartitioning.
  std::uint64_t local = 0;
  for (int t = 0; t < num_trees(); ++t) {
    for (const Oct& o : trees_[static_cast<std::size_t>(t)]) {
      std::uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      mix(static_cast<std::uint64_t>(t));
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.x)));
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.y)));
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.z)));
      mix(static_cast<std::uint64_t>(o.level));
      local += h;
    }
  }
  return comm_->allreduce(local, par::ReduceOp::sum);
}

template class Forest<2>;
template class Forest<3>;
template std::pair<std::size_t, std::size_t> overlapping_range<2>(const std::vector<Octant<2>>&,
                                                                  const Octant<2>&);
template std::pair<std::size_t, std::size_t> overlapping_range<3>(const std::vector<Octant<3>>&,
                                                                  const Octant<3>&);

}  // namespace esamr::forest
