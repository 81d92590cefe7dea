#include "forest/delta.h"

#include <algorithm>

#include "forest/forest.h"

namespace esamr::forest {

namespace {

/// Sort + dedup + keep-outermost on one tree's region list. Sorted SFC order
/// puts an ancestor immediately before its descendants, so one backward memo
/// suffices to drop contained octants; the survivors are mutually disjoint
/// (two octants of one tree overlap only by containment).
template <int Dim>
void normalize_tree(std::vector<Octant<Dim>>& v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  std::vector<Octant<Dim>> out;
  out.reserve(v.size());
  for (const auto& o : v) {
    if (!out.empty() && out.back().contains(o)) continue;
    out.push_back(o);
  }
  v = std::move(out);
}

}  // namespace

template <int Dim>
void DeltaSet<Dim>::normalize() {
  if (normalized_) return;
  for (auto& v : regions) normalize_tree<Dim>(v);
  normalized_ = true;
}

template <int Dim>
std::int64_t DeltaSet<Dim>::count() {
  normalize();
  std::int64_t n = 0;
  for (const auto& v : regions) n += static_cast<std::int64_t>(v.size());
  return n;
}

template <int Dim>
DeltaSet<Dim> DeltaSet<Dim>::replicated(par::Comm& comm) const {
  std::vector<OctMsg> flat;
  for (std::size_t t = 0; t < regions.size(); ++t) {
    for (const Oct& o : regions[t]) flat.push_back(OctMsg::of(static_cast<int>(t), o));
  }
  DeltaSet out(static_cast<int>(regions.size()));
  for (const auto& from : comm.allgatherv(flat)) {
    for (const OctMsg& m : from) {
      out.regions[static_cast<std::size_t>(m.tree)].push_back(m.octant<Dim>());
    }
  }
  out.normalized_ = false;
  out.normalize();
  out.overflow = comm.allreduce(static_cast<int>(overflow), par::ReduceOp::logical_or) != 0;
  return out;
}

template <int Dim>
std::vector<std::vector<Octant<Dim>>> DeltaSet<Dim>::closure(const Connectivity<Dim>& conn,
                                                             int rings) {
  normalize();
  // O(1)-octants-per-region cover: the r-ring ball of an octant d (side
  // (2r+1)*s) is covered by the grid-aligned cells of side S = 2^j * s,
  // j = ceil(log2(r+1)) - 1, that its bounding box intersects — at most 4
  // per axis, so <= 4^Dim octants per region and a linear inflation of at
  // most ~(4S)/((2r+1)s) < 1.3. The cover is a SUPERSET of the true ball,
  // which is all the seed filter needs. Cells outside the root are mapped by
  // conn.exterior_images, which is exact for a single-axis (macro-face)
  // exit at any distance but pins multi-axis (edge/corner) exits to the
  // touching cell — only position-correct one cell out. A cover cell that
  // exits diagonally is therefore first promoted to its size-2S ancestor,
  // which is guaranteed at most one cell out per axis (2S >= (r+1)*s bounds
  // the exit distance). A region too coarse for that ancestor to exist
  // (level < k, so r * s >= one tree) has a ball reaching past its neighbor
  // trees anyway: its closure is the whole forest.
  int k = 0;
  while ((1 << k) < rings + 1) ++k;
  const int j = k > 0 ? k - 1 : 0;
  std::vector<std::vector<Oct>> out(regions.size());
  for (std::size_t t = 0; t < regions.size(); ++t) {
    for (const Oct& o : regions[t]) {
      if (o.level < k) return std::vector<std::vector<Oct>>(regions.size(), {Oct::root()});
      const std::int32_t s = o.size();
      const std::int32_t S = s << j;
      std::array<std::int32_t, 3> lo{0, 0, 0};
      std::array<std::int32_t, 3> hi{0, 0, 0};
      for (int a = 0; a < Dim; ++a) {
        lo[static_cast<std::size_t>(a)] = (o.coord(a) - rings * s) & ~(S - 1);
        hi[static_cast<std::size_t>(a)] = o.coord(a) + (rings + 1) * s;
      }
      for (std::int32_t cz = lo[2]; cz <= (Dim == 3 ? hi[2] - 1 : 0); cz += S) {
        for (std::int32_t cy = lo[1]; cy < hi[1]; cy += S) {
          for (std::int32_t cx = lo[0]; cx < hi[0]; cx += S) {
            Oct n;
            n.level = static_cast<std::int8_t>(o.level - j);
            n.x = cx;
            n.y = cy;
            if constexpr (Dim == 3) n.z = cz;
            if (n.inside_root()) {
              out[t].push_back(n);
              continue;
            }
            int out_axes = 0;
            bool deep = false;
            for (int a = 0; a < Dim; ++a) {
              if (n.coord(a) < 0 || n.coord(a) + S > Oct::root_len) {
                ++out_axes;
                if (n.coord(a) < -S || n.coord(a) > Oct::root_len) deep = true;
              }
            }
            if (out_axes >= 2 && deep) {
              // Diagonal exit: promote to the one-cell-out coarse ancestor.
              const std::int32_t S2 = s << k;
              n.level = static_cast<std::int8_t>(o.level - k);
              for (int a = 0; a < Dim; ++a) n.set_coord(a, n.coord(a) & ~(S2 - 1));
            }
            for (const auto& [t2, img] : conn.exterior_images(static_cast<int>(t), n)) {
              out[static_cast<std::size_t>(t2)].push_back(img);
            }
          }
        }
      }
    }
  }
  for (auto& v : out) normalize_tree<Dim>(v);
  return out;
}

template <int Dim>
bool DeltaSet<Dim>::contains_point(int tree, const std::array<std::int32_t, 3>& pt) const {
  // pt lies in the closed region of octant d iff one of the up-to-2^Dim
  // finest-level cells adjacent to pt is contained in d; each cell's
  // containing octant in a sorted disjoint list, if any, is its predecessor
  // in SFC order.
  const auto& v = regions[static_cast<std::size_t>(tree)];
  if (v.empty()) return false;
  for (int q = 0; q < Topo<Dim>::num_corners; ++q) {
    Oct cell;
    cell.level = Oct::max_level;
    bool ok = true;
    for (int a = 0; a < Dim; ++a) {
      const std::int32_t c = pt[static_cast<std::size_t>(a)] - (((q >> a) & 1) ? 1 : 0);
      if (c < 0 || c >= Oct::root_len) ok = false;
      cell.set_coord(a, c);
    }
    if (!ok) continue;
    const auto it = std::upper_bound(v.begin(), v.end(), cell);
    if (it != v.begin() && std::prev(it)->contains(cell)) return true;
  }
  return false;
}

template struct DeltaSet<2>;
template struct DeltaSet<3>;

}  // namespace esamr::forest
