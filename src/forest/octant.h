// Octant primitives for the forest-of-octrees core (p4est reproduction).
//
// An Octant<Dim> is a node of a quadtree (Dim == 2) or octree (Dim == 3),
// identified by the integer coordinates of its lower corner — in units where
// the root octant has side length 2^max_level — and its refinement level.
// All topology here is integer-only; no floating-point arithmetic is used
// anywhere in the connectivity or neighbor logic (paper §II-D).
//
// Conventions (z-order / Morton, matching p4est):
//  * child id bits: bit 0 = x, bit 1 = y, bit 2 = z
//  * faces: 0 = -x, 1 = +x, 2 = -y, 3 = +y, 4 = -z, 5 = +z
//  * 3D edges: 0..3 along x, 4..7 along y, 8..11 along z, indexed by the
//    z-order of the two transverse coordinates (lower axis varies fastest)
//  * corners: z-order bits as for children
#pragma once

#include <array>
#include <cstdint>
#include <functional>

namespace esamr::forest {

/// Static topology tables for dimension Dim (2 or 3).
template <int Dim>
struct Topo;

template <>
struct Topo<2> {
  static constexpr int dim = 2;
  static constexpr int num_children = 4;
  static constexpr int num_faces = 4;
  static constexpr int num_edges = 0;  // no codimension-2 edges in 2D
  static constexpr int num_corners = 4;
  static constexpr int corners_per_face = 2;

  /// Corners of each face, in z-order of the tangential axis.
  static constexpr int face_corners[4][2] = {{0, 2}, {1, 3}, {0, 1}, {2, 3}};
  /// Faces touching each corner (one per axis).
  static constexpr int corner_faces[4][2] = {{0, 2}, {1, 2}, {0, 3}, {1, 3}};
};

template <>
struct Topo<3> {
  static constexpr int dim = 3;
  static constexpr int num_children = 8;
  static constexpr int num_faces = 6;
  static constexpr int num_edges = 12;
  static constexpr int num_corners = 8;
  static constexpr int corners_per_face = 4;

  /// Corners of each face, in z-order of the two tangential axes
  /// (lower-numbered axis varies fastest).
  static constexpr int face_corners[6][4] = {
      {0, 2, 4, 6}, {1, 3, 5, 7}, {0, 1, 4, 5}, {2, 3, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}};
  /// Endpoint corners of each edge (lower z-order first).
  static constexpr int edge_corners[12][2] = {
      {0, 1}, {2, 3}, {4, 5}, {6, 7},   // along x
      {0, 2}, {1, 3}, {4, 6}, {5, 7},   // along y
      {0, 4}, {1, 5}, {2, 6}, {3, 7}};  // along z
  /// Axis each edge runs along.
  static constexpr int edge_axis[12] = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  /// The four edges bounding each face.
  static constexpr int face_edges[6][4] = {
      {4, 6, 8, 10},   // f0: x = 0 -> y-edges at x=0 (4,6), z-edges at x=0 (8,10)
      {5, 7, 9, 11},   // f1: x = 1
      {0, 2, 8, 9},    // f2: y = 0
      {1, 3, 10, 11},  // f3: y = 1
      {0, 1, 4, 5},    // f4: z = 0
      {2, 3, 6, 7}};   // f5: z = 1
};

/// A (possibly exterior) octant: lower-corner coordinates plus level.
/// Coordinates are multiples of the octant size 2^(max_level - level) and may
/// lie outside [0, root_len) for exterior octants used in inter-tree logic.
template <int Dim>
struct Octant {
  static_assert(Dim == 2 || Dim == 3, "Octant supports 2D and 3D only");
  using T = Topo<Dim>;

  /// Maximum refinement depth; chosen so a full Morton key fits in 64 bits.
  static constexpr int max_level = (Dim == 2) ? 29 : 19;
  static constexpr std::int32_t root_len = std::int32_t{1} << max_level;

  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int32_t z = 0;  // unused (always 0) when Dim == 2
  std::int8_t level = 0;

  static constexpr Octant root() { return Octant{}; }

  /// Side length in coordinate units.
  constexpr std::int32_t size() const { return root_len >> level; }

  constexpr std::int32_t coord(int axis) const { return axis == 0 ? x : (axis == 1 ? y : z); }
  constexpr void set_coord(int axis, std::int32_t v) {
    (axis == 0 ? x : (axis == 1 ? y : z)) = v;
  }

  friend constexpr bool operator==(const Octant&, const Octant&) = default;

  /// True if the octant lies inside the root domain of its tree.
  constexpr bool inside_root() const {
    const std::int32_t h = size();
    bool ok = x >= 0 && x + h <= root_len && y >= 0 && y + h <= root_len;
    if constexpr (Dim == 3) ok = ok && z >= 0 && z + h <= root_len;
    return ok;
  }

  /// Morton index of the lower corner, interleaved over all max_level bits.
  /// Requires in-root coordinates. Equal keys imply ancestor/descendant
  /// (first-descendant) relation; combined with the level this yields the
  /// space-filling-curve total order. On any input, each coordinate
  /// contributes exactly its low max_level bits, spread apart by five
  /// shift-and-mask steps.
  constexpr std::uint64_t key() const {
    std::uint64_t k = spread(x) | spread(y) << 1;
    if constexpr (Dim == 3) k |= spread(z) << 2;
    return k;
  }

  /// The in-root octant at `lvl` whose key() is `k` (the inverse of key();
  /// `k` must be a key of a level-`lvl` octant).
  static constexpr Octant from_key(std::uint64_t k, int lvl) {
    Octant o;
    o.x = compact(k);
    o.y = compact(k >> 1);
    if constexpr (Dim == 3) o.z = compact(k >> 2);
    o.level = static_cast<std::int8_t>(lvl);
    return o;
  }

  /// True iff the most significant set bit of `b` is strictly above that of
  /// `a` (Chan's exclusive-or trick; no clz, no branches on bit positions).
  static constexpr bool less_msb(std::uint32_t a, std::uint32_t b) {
    return a < b && a < (a ^ b);
  }

  /// Space-filling-curve order: Morton key first, then level (an ancestor
  /// precedes all of its descendants). Branchless formulation: instead of
  /// materializing both interleaved 64-bit keys (five shift-and-mask steps
  /// per coordinate each), find the axis holding the highest differing
  /// interleaved bit — the coordinate pair with the greatest XOR msb, ties
  /// going to the higher axis index whose bit is more significant in the
  /// key — and compare that coordinate directly. Identical order to
  /// comparing key().
  friend constexpr bool operator<(const Octant& a, const Octant& b) {
    const auto xd = static_cast<std::uint32_t>(a.x) ^ static_cast<std::uint32_t>(b.x);
    const auto yd = static_cast<std::uint32_t>(a.y) ^ static_cast<std::uint32_t>(b.y);
    const auto zd = Dim == 3
                        ? static_cast<std::uint32_t>(a.z) ^ static_cast<std::uint32_t>(b.z)
                        : 0u;
    if ((xd | yd | zd) == 0) return a.level < b.level;
    int axis = 0;
    std::uint32_t w = xd;
    if (!less_msb(yd, w)) {
      w = yd;
      axis = 1;
    }
    if constexpr (Dim == 3) {
      if (!less_msb(zd, w)) axis = 2;
    }
    return a.coord(axis) < b.coord(axis);
  }

  constexpr int child_id() const {
    const std::int32_t h = size();
    int id = ((x & h) ? 1 : 0) | ((y & h) ? 2 : 0);
    if constexpr (Dim == 3) id |= (z & h) ? 4 : 0;
    return id;
  }

  constexpr Octant child(int i) const {
    Octant c = *this;
    c.level = static_cast<std::int8_t>(level + 1);
    const std::int32_t h = c.size();
    c.x += (i & 1) ? h : 0;
    c.y += (i & 2) ? h : 0;
    if constexpr (Dim == 3) c.z += (i & 4) ? h : 0;
    return c;
  }

  constexpr Octant parent() const { return ancestor(level - 1); }

  /// Ancestor at the given (shallower or equal) level.
  constexpr Octant ancestor(int lvl) const {
    Octant a = *this;
    a.level = static_cast<std::int8_t>(lvl);
    const std::int32_t mask = ~(a.size() - 1);
    a.x &= mask;
    a.y &= mask;
    if constexpr (Dim == 3) a.z &= mask;
    return a;
  }

  /// True if this octant equals `o` or is a (strict or non-strict) ancestor.
  constexpr bool contains(const Octant& o) const {
    return o.level >= level && o.ancestor(level) == *this;
  }

  /// First (lowest-key) descendant at the given level: same lower corner.
  constexpr Octant first_descendant(int lvl) const {
    Octant d = *this;
    d.level = static_cast<std::int8_t>(lvl);
    return d;
  }

  /// Last (highest-key) descendant at the given level.
  constexpr Octant last_descendant(int lvl) const {
    Octant d = *this;
    d.level = static_cast<std::int8_t>(lvl);
    const std::int32_t off = size() - d.size();
    d.x += off;
    d.y += off;
    if constexpr (Dim == 3) d.z += off;
    return d;
  }

  /// Same-level neighbor across face f (may be exterior).
  constexpr Octant face_neighbor(int f) const {
    Octant n = *this;
    const std::int32_t h = size();
    const int axis = f / 2;
    n.set_coord(axis, n.coord(axis) + ((f % 2) ? h : -h));
    return n;
  }

  /// Same-level diagonal neighbor across edge e (3D only; may be exterior).
  constexpr Octant edge_neighbor(int e) const
    requires(Dim == 3)
  {
    Octant n = *this;
    const std::int32_t h = size();
    const int axis = Topo<3>::edge_axis[e];
    const int i = e & 3;  // transverse z-order index
    int t = 0;
    for (int a = 0; a < 3; ++a) {
      if (a == axis) continue;
      n.set_coord(a, n.coord(a) + ((i >> t) & 1 ? h : -h));
      ++t;
    }
    return n;
  }

  /// Same-level diagonal neighbor across corner c (may be exterior).
  constexpr Octant corner_neighbor(int c) const {
    Octant n = *this;
    const std::int32_t h = size();
    n.x += (c & 1) ? h : -h;
    n.y += (c & 2) ? h : -h;
    if constexpr (Dim == 3) n.z += (c & 4) ? h : -h;
    return n;
  }

  /// Number of octants in the same-level insulation neighborhood (the 3^Dim
  /// block of equal-size octants centered on this one, itself included).
  static constexpr int num_insulation = Dim == 2 ? 9 : 27;
  /// Center code: insulation_neighbor(center_code()) == *this.
  static constexpr int center_code = Dim == 2 ? 4 : 13;

  /// The `code`-th member of the insulation neighborhood. `code` is a base-3
  /// number with one digit per axis (x least significant); digit 0 / 1 / 2
  /// offsets that axis by -size / 0 / +size. Results may be exterior.
  constexpr Octant insulation_neighbor(int code) const {
    Octant n = *this;
    const std::int32_t h = size();
    n.x += (code % 3 - 1) * h;
    n.y += (code / 3 % 3 - 1) * h;
    if constexpr (Dim == 3) n.z += (code / 9 - 1) * h;
    return n;
  }

  /// Coordinates of corner c of this octant (a lattice point).
  constexpr std::array<std::int32_t, 3> corner_point(int c) const {
    const std::int32_t h = size();
    return {x + ((c & 1) ? h : 0), y + ((c & 2) ? h : 0),
            Dim == 3 ? z + ((c & 4) ? h : 0) : 0};
  }

  /// True if this octant touches face f of its tree's root.
  constexpr bool touches_root_face(int f) const {
    const int axis = f / 2;
    return (f % 2) ? coord(axis) + size() == root_len : coord(axis) == 0;
  }

  /// Overlap test for two octants of the same tree (one contains the other,
  /// or they are equal, iff their regions intersect).
  constexpr bool overlaps(const Octant& o) const { return contains(o) || o.contains(*this); }

 private:
  /// The low max_level bits of `v`, bit b moved to bit Dim * b.
  static constexpr std::uint64_t spread(std::int32_t v) {
    auto b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(v) & (root_len - 1u));
    if constexpr (Dim == 2) {
      b = (b | b << 16) & 0x0000ffff0000ffffull;
      b = (b | b << 8) & 0x00ff00ff00ff00ffull;
      b = (b | b << 4) & 0x0f0f0f0f0f0f0f0full;
      b = (b | b << 2) & 0x3333333333333333ull;
      b = (b | b << 1) & 0x5555555555555555ull;
    } else {
      b = (b | b << 32) & 0x001f00000000ffffull;
      b = (b | b << 16) & 0x001f0000ff0000ffull;
      b = (b | b << 8) & 0x100f00f00f00f00full;
      b = (b | b << 4) & 0x10c30c30c30c30c3ull;
      b = (b | b << 2) & 0x1249249249249249ull;
    }
    return b;
  }

  /// Inverse of spread(): gathers bits 0, Dim, 2 Dim, ... of `k`.
  static constexpr std::int32_t compact(std::uint64_t k) {
    std::uint64_t b = k;
    if constexpr (Dim == 2) {
      b &= 0x5555555555555555ull;
      b = (b | b >> 1) & 0x3333333333333333ull;
      b = (b | b >> 2) & 0x0f0f0f0f0f0f0f0full;
      b = (b | b >> 4) & 0x00ff00ff00ff00ffull;
      b = (b | b >> 8) & 0x0000ffff0000ffffull;
      b = (b | b >> 16) & 0x00000000ffffffffull;
    } else {
      b &= 0x1249249249249249ull;
      b = (b | b >> 2) & 0x10c30c30c30c30c3ull;
      b = (b | b >> 4) & 0x100f00f00f00f00full;
      b = (b | b >> 8) & 0x001f0000ff0000ffull;
      b = (b | b >> 16) & 0x001f00000000ffffull;
      b = (b | b >> 32) & 0x00000000001fffffull;
    }
    return static_cast<std::int32_t>(b & (root_len - 1u));
  }
};

/// Hash for octants (e.g. dedup sets). Coordinates must be in-root.
template <int Dim>
struct OctantHash {
  std::size_t operator()(const Octant<Dim>& o) const {
    std::uint64_t k = o.key() * 0x9e3779b97f4a7c15ull;
    k ^= static_cast<std::uint64_t>(o.level) << 58;
    return std::hash<std::uint64_t>{}(k ^ (k >> 29));
  }
};

}  // namespace esamr::forest
