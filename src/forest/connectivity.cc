#include "forest/connectivity.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

namespace esamr::forest {

namespace {

/// Derive the lattice isometry for a face connection: my face `f` meets the
/// neighbor's face `f2`, with my face corner i coinciding with the
/// neighbor's face corner m[i] (indices into Topo::face_corners rows).
template <int Dim>
CoordXform make_face_xform(int f, int f2, std::span<const int> m) {
  constexpr std::int64_t r = Octant<Dim>::root_len;
  CoordXform x;
  const int a = f / 2, s = f % 2;
  const int a2 = f2 / 2, s2 = f2 % 2;

  // Tangential axes of each face, in increasing axis order (this matches the
  // z-order bit layout of face corner indices).
  std::array<int, 2> t{}, t2{};
  int k = 0;
  for (int ax = 0; ax < Dim; ++ax)
    if (ax != a) t[static_cast<std::size_t>(k++)] = ax;
  k = 0;
  for (int ax = 0; ax < Dim; ++ax)
    if (ax != a2) t2[static_cast<std::size_t>(k++)] = ax;

  // Normal: moving outward from my face corresponds to moving inward from
  // the neighbor's face.
  const int d_out = s ? 1 : -1;
  const int d_in = s2 ? -1 : 1;
  const int sgn = d_out * d_in;
  x.perm[static_cast<std::size_t>(a2)] = static_cast<std::int8_t>(a);
  x.sign[static_cast<std::size_t>(a2)] = static_cast<std::int8_t>(sgn);
  x.off[static_cast<std::size_t>(a2)] =
      static_cast<std::int64_t>(s2) * r - static_cast<std::int64_t>(sgn) * s * r;

  // Tangential: read off the affine bit map from the corner correspondence.
  const int nbits = Dim - 1;
  for (int u = 0; u < nbits; ++u) {
    const int j0 = m[0];
    const int ju = m[static_cast<std::size_t>(1 << u)];
    const int diff = j0 ^ ju;
    if (diff == 0 || (diff & (diff - 1)) != 0) {
      throw std::runtime_error("connectivity: face corner map is not a square symmetry");
    }
    const int w = (diff == 1) ? 0 : 1;
    const int b0 = (j0 >> w) & 1;
    x.perm[static_cast<std::size_t>(t2[static_cast<std::size_t>(w)])] =
        static_cast<std::int8_t>(t[static_cast<std::size_t>(u)]);
    x.sign[static_cast<std::size_t>(t2[static_cast<std::size_t>(w)])] =
        static_cast<std::int8_t>(b0 ? -1 : 1);
    x.off[static_cast<std::size_t>(t2[static_cast<std::size_t>(w)])] =
        static_cast<std::int64_t>(b0) * r;
  }
  if constexpr (Dim == 3) {
    if ((m[0] ^ m[1] ^ m[2]) != m[3]) {
      throw std::runtime_error("connectivity: inconsistent 4-corner face map");
    }
  } else {
    x.perm[2] = 2;
    x.sign[2] = 1;
    x.off[2] = 0;
  }
  // The axis images must form a permutation.
  std::array<bool, 3> seen{false, false, false};
  for (int j = 0; j < 3; ++j) {
    const auto i = static_cast<std::size_t>(x.perm[static_cast<std::size_t>(j)]);
    if (seen[i]) throw std::runtime_error("connectivity: face map does not induce a permutation");
    seen[i] = true;
  }
  return x;
}

/// Transverse axes of a 3D edge, in increasing axis order.
std::array<int, 2> edge_transverse(int axis) {
  switch (axis) {
    case 0: return {1, 2};
    case 1: return {0, 2};
    default: return {0, 1};
  }
}

}  // namespace

template <int Dim>
Connectivity<Dim> Connectivity<Dim>::build(const MacroMesh<Dim>& mesh) {
  constexpr int nfaces = Topo<Dim>::num_faces;
  constexpr int ncorners = Topo<Dim>::num_corners;
  constexpr int fsize = Topo<Dim>::corners_per_face;
  const int ntrees = static_cast<int>(mesh.tree_to_vertex.size());
  const int nverts = static_cast<int>(mesh.vertex_coords.size());

  Connectivity<Dim> conn;
  conn.vertex_coords_ = mesh.vertex_coords;
  conn.tree_to_vertex_ = mesh.tree_to_vertex;
  conn.face_conn_.resize(static_cast<std::size_t>(ntrees));
  conn.edge_conn_.resize(static_cast<std::size_t>(ntrees));
  conn.corner_conn_.resize(static_cast<std::size_t>(ntrees));

  const auto vtx = [&](int t, int c) -> int {
    return mesh.tree_to_vertex[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)];
  };

  // Union-find over vertices; explicit identifications (periodicity) unify
  // the corner vertices of the identified faces.
  std::vector<int> uf(static_cast<std::size_t>(nverts));
  std::iota(uf.begin(), uf.end(), 0);
  const auto find = [&](int v) {
    while (uf[static_cast<std::size_t>(v)] != v) {
      uf[static_cast<std::size_t>(v)] = uf[static_cast<std::size_t>(uf[static_cast<std::size_t>(v)])];
      v = uf[static_cast<std::size_t>(v)];
    }
    return v;
  };
  const auto unite = [&](int a, int b) { uf[static_cast<std::size_t>(find(a))] = find(b); };
  for (const auto& id : mesh.identifications) {
    for (int i = 0; i < fsize; ++i) {
      unite(vtx(id.tree0, Topo<Dim>::face_corners[id.face0][i]),
            vtx(id.tree1, Topo<Dim>::face_corners[id.face1][id.corner_map[static_cast<std::size_t>(i)]]));
    }
  }
  const auto canon = [&](int t, int c) { return find(vtx(t, c)); };

  // --- Face connections ----------------------------------------------------
  // Explicit identifications (periodicity) connect their faces directly;
  // vertex-tuple matching would alias distinct faces once periodic vertices
  // are unified, so identified faces are excluded from it and the remaining
  // matching uses raw (un-unified) vertex ids.
  const auto connect_faces = [&](int t0, int f0, int t1, int f1,
                                 const std::array<int, fsize>& m) {
    std::array<int, fsize> minv{};
    for (int i = 0; i < fsize; ++i) minv[static_cast<std::size_t>(m[static_cast<std::size_t>(i)])] = i;
    conn.face_conn_[static_cast<std::size_t>(t0)][static_cast<std::size_t>(f0)] =
        FaceConn{t1, f1, make_face_xform<Dim>(f0, f1, m)};
    conn.face_conn_[static_cast<std::size_t>(t1)][static_cast<std::size_t>(f1)] =
        FaceConn{t0, f0, make_face_xform<Dim>(f1, f0, minv)};
  };
  std::set<std::pair<int, int>> identified;
  for (const auto& id : mesh.identifications) {
    connect_faces(id.tree0, id.face0, id.tree1, id.face1, id.corner_map);
    if (!identified.insert({id.tree0, id.face0}).second ||
        !identified.insert({id.tree1, id.face1}).second) {
      throw std::runtime_error("connectivity: face identified twice");
    }
  }
  std::map<std::array<int, fsize>, std::vector<std::pair<int, int>>> face_groups;
  for (int t = 0; t < ntrees; ++t) {
    for (int f = 0; f < nfaces; ++f) {
      if (identified.contains({t, f})) continue;
      std::array<int, fsize> ids{};
      for (int i = 0; i < fsize; ++i) {
        ids[static_cast<std::size_t>(i)] = vtx(t, Topo<Dim>::face_corners[f][i]);
      }
      std::array<int, fsize> key = ids;
      std::sort(key.begin(), key.end());
      if (std::adjacent_find(key.begin(), key.end()) != key.end()) {
        throw std::runtime_error("connectivity: degenerate face (repeated vertex)");
      }
      face_groups[key].emplace_back(t, f);
    }
  }
  for (const auto& [key, inc] : face_groups) {
    if (inc.size() == 1) continue;  // physical boundary
    if (inc.size() > 2) throw std::runtime_error("connectivity: non-manifold face");
    const auto [t0, f0] = inc[0];
    const auto [t1, f1] = inc[1];
    std::array<int, fsize> m{};  // my face corner i -> neighbor face corner
    for (int i = 0; i < fsize; ++i) {
      const int ci = vtx(t0, Topo<Dim>::face_corners[f0][i]);
      int j = -1;
      for (int jj = 0; jj < fsize; ++jj) {
        if (vtx(t1, Topo<Dim>::face_corners[f1][jj]) == ci) {
          j = jj;
          break;
        }
      }
      if (j < 0) throw std::runtime_error("connectivity: face corner mismatch");
      m[static_cast<std::size_t>(i)] = j;
    }
    connect_faces(t0, f0, t1, f1, m);
  }

  // --- Edge connections (3D) -----------------------------------------------
  if constexpr (Dim == 3) {
    // (lo, hi) canonical endpoints -> incidences (tree, edge, canonical corner-0).
    std::map<std::pair<int, int>, std::vector<std::tuple<int, int, int>>> edge_groups;
    for (int t = 0; t < ntrees; ++t) {
      for (int e = 0; e < 12; ++e) {
        const int a = canon(t, Topo<3>::edge_corners[e][0]);
        const int b = canon(t, Topo<3>::edge_corners[e][1]);
        if (a == b) continue;  // degenerate periodic edge: unsupported
        edge_groups[{std::min(a, b), std::max(a, b)}].emplace_back(t, e, a);
      }
    }
    for (const auto& [key, inc] : edge_groups) {
      if (inc.size() < 2) continue;
      for (const auto& [t, e, a] : inc) {
        for (const auto& [t2, e2, a2] : inc) {
          if (t == t2 && e == e2) continue;
          conn.edge_conn_[static_cast<std::size_t>(t)][static_cast<std::size_t>(e)].push_back(
              EdgeConn{t2, e2, a != a2});
        }
      }
    }
  }

  // --- Corner connections --------------------------------------------------
  std::map<int, std::vector<std::pair<int, int>>> corner_groups;
  for (int t = 0; t < ntrees; ++t) {
    for (int c = 0; c < ncorners; ++c) corner_groups[canon(t, c)].emplace_back(t, c);
  }
  for (const auto& [key, inc] : corner_groups) {
    if (inc.size() < 2) continue;
    for (const auto& [t, c] : inc) {
      for (const auto& [t2, c2] : inc) {
        if (t == t2 && c == c2) continue;
        conn.corner_conn_[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)].push_back(
            CornerConn{t2, c2});
      }
    }
  }
  return conn;
}

namespace {

/// The one body of exterior_images and exterior_images_entity: calls
/// emit(tree', octant', pins') for every image of the exterior position `n`
/// of `tree`, carrying the boundary entity `pins` of `n` into each target
/// tree's frame. A single-axis exit crosses a macro face through its
/// transform; a multi-axis exit lands on the touching cell of every tree
/// sharing the macro corner (all axes) or edge (two axes, 3D).
template <int Dim, typename Emit>
void for_each_exterior_image(const Connectivity<Dim>& conn, int tree, const Octant<Dim>& n,
                             const typename Connectivity<Dim>::EntityPins& pins, Emit&& emit) {
  using Oct = Octant<Dim>;
  using Pins = typename Connectivity<Dim>::EntityPins;
  constexpr std::int32_t r = Oct::root_len;
  const std::int32_t h = n.size();
  std::array<int, 3> out{0, 0, 0};
  int nout = 0;
  for (int a = 0; a < Dim; ++a) {
    const std::int32_t c = n.coord(a);
    if (c < 0) {
      out[static_cast<std::size_t>(a)] = -1;
      ++nout;
    } else if (c + h > r) {
      out[static_cast<std::size_t>(a)] = 1;
      ++nout;
    }
  }
  if (nout == 0) {
    emit(tree, n, pins);
    return;
  }
  if (nout == 1) {
    int axis = 0;
    for (int a = 0; a < Dim; ++a)
      if (out[static_cast<std::size_t>(a)] != 0) axis = a;
    const int f = 2 * axis + (out[static_cast<std::size_t>(axis)] > 0 ? 1 : 0);
    const auto& fc = conn.face_connection(tree, f);
    if (fc.tree < 0) return;
    Pins p2;
    for (int j = 0; j < 3; ++j) {
      const auto i = static_cast<std::size_t>(fc.xform.perm[static_cast<std::size_t>(j)]);
      const std::int8_t v = pins.pin[i];
      p2.pin[static_cast<std::size_t>(j)] =
          (v < 0) ? std::int8_t{-1}
                  : (fc.xform.sign[static_cast<std::size_t>(j)] > 0 ? v
                                                                    : static_cast<std::int8_t>(1 - v));
    }
    emit(fc.tree, fc.xform.template apply_octant<Dim>(n), p2);
    return;
  }
  if (nout == Dim) {  // across a macro corner: the interface is the corner
    int c = 0;
    for (int a = 0; a < Dim; ++a)
      if (out[static_cast<std::size_t>(a)] > 0) c |= 1 << a;
    for (const auto& cc : conn.corner_connections(tree, c)) {
      Oct img;
      img.level = n.level;
      Pins p2;
      for (int a = 0; a < Dim; ++a) {
        const bool hi = ((cc.corner >> a) & 1) != 0;
        img.set_coord(a, hi ? r - h : 0);
        p2.pin[static_cast<std::size_t>(a)] = hi ? 1 : 0;
      }
      emit(cc.tree, img, p2);
    }
    return;
  }
  if constexpr (Dim == 3) {  // nout == 2: across a macro edge
    int a3 = 0;
    for (int a = 0; a < 3; ++a)
      if (out[static_cast<std::size_t>(a)] == 0) a3 = a;
    const auto tr = edge_transverse(a3);
    const int idx = (out[static_cast<std::size_t>(tr[0])] > 0 ? 1 : 0) |
                    (out[static_cast<std::size_t>(tr[1])] > 0 ? 2 : 0);
    const int e = 4 * a3 + idx;
    const std::int32_t t = n.coord(a3);
    const std::int8_t along_pin = pins.pin[static_cast<std::size_t>(a3)];
    for (const auto& ec : conn.edge_connections(tree, e)) {
      const int axis2 = Topo<3>::edge_axis[ec.edge];
      const auto tr2 = edge_transverse(axis2);
      const int idx2 = ec.edge & 3;
      Oct img;
      img.level = n.level;
      img.set_coord(axis2, ec.flip ? r - h - t : t);
      img.set_coord(tr2[0], (idx2 & 1) ? r - h : 0);
      img.set_coord(tr2[1], (idx2 & 2) ? r - h : 0);
      Pins p2;
      p2.pin[static_cast<std::size_t>(tr2[0])] = (idx2 & 1) ? 1 : 0;
      p2.pin[static_cast<std::size_t>(tr2[1])] = (idx2 & 2) ? 1 : 0;
      p2.pin[static_cast<std::size_t>(axis2)] =
          (along_pin < 0) ? std::int8_t{-1}
                          : (ec.flip ? static_cast<std::int8_t>(1 - along_pin) : along_pin);
      emit(ec.tree, img, p2);
    }
  }
}

}  // namespace

template <int Dim>
auto Connectivity<Dim>::exterior_images(int tree, const Oct& n) const
    -> std::vector<std::pair<int, Oct>> {
  std::vector<std::pair<int, Oct>> images;
  for_each_exterior_image(*this, tree, n, EntityPins{},
                          [&](int t2, const Oct& img, const EntityPins&) {
                            images.emplace_back(t2, img);
                          });
  return images;
}

template <int Dim>
auto Connectivity<Dim>::exterior_images_entity(int tree, const Oct& n, EntityPins pins) const
    -> std::vector<std::tuple<int, Oct, EntityPins>> {
  std::vector<std::tuple<int, Oct, EntityPins>> images;
  for_each_exterior_image(*this, tree, n, pins,
                          [&](int t2, const Oct& img, const EntityPins& p2) {
                            images.emplace_back(t2, img, p2);
                          });
  return images;
}

template <int Dim>
void Connectivity<Dim>::point_images(int tree, std::array<std::int32_t, 3> p,
                                     std::vector<PointImage>& images) const {
  constexpr std::int64_t r = Oct::root_len;
  images.clear();
  const std::array<std::int64_t, 3> p64{p[0], p[1], p[2]};

  // Images across each macro face the point lies on.
  for (int f = 0; f < Topo<Dim>::num_faces; ++f) {
    const int a = f / 2;
    const std::int64_t want = (f % 2) ? r : 0;
    if (p64[static_cast<std::size_t>(a)] != want) continue;
    const FaceConn& fc = face_connection(tree, f);
    if (fc.tree < 0) continue;
    const auto q = fc.xform.apply_point(p64);
    images.emplace_back(fc.tree, std::array<std::int32_t, 3>{static_cast<std::int32_t>(q[0]),
                                                             static_cast<std::int32_t>(q[1]),
                                                             static_cast<std::int32_t>(q[2])});
  }

  // Images across each macro edge the point lies on (3D).
  if constexpr (Dim == 3) {
    for (int e = 0; e < 12; ++e) {
      const int axis = Topo<3>::edge_axis[e];
      const auto tr = edge_transverse(axis);
      const int idx = e & 3;
      if (p64[static_cast<std::size_t>(tr[0])] != ((idx & 1) ? r : 0)) continue;
      if (p64[static_cast<std::size_t>(tr[1])] != ((idx & 2) ? r : 0)) continue;
      const std::int64_t t = p64[static_cast<std::size_t>(axis)];
      for (const EdgeConn& ec : edge_connections(tree, e)) {
        const int axis2 = Topo<3>::edge_axis[ec.edge];
        const auto tr2 = edge_transverse(axis2);
        const int idx2 = ec.edge & 3;
        std::array<std::int32_t, 3> q{};
        q[static_cast<std::size_t>(axis2)] = static_cast<std::int32_t>(ec.flip ? r - t : t);
        q[static_cast<std::size_t>(tr2[0])] = static_cast<std::int32_t>((idx2 & 1) ? r : 0);
        q[static_cast<std::size_t>(tr2[1])] = static_cast<std::int32_t>((idx2 & 2) ? r : 0);
        images.emplace_back(ec.tree, q);
      }
    }
  }

  // Images at a macro corner.
  bool is_corner = true;
  int c = 0;
  for (int a = 0; a < Dim; ++a) {
    if (p64[static_cast<std::size_t>(a)] == r) {
      c |= 1 << a;
    } else if (p64[static_cast<std::size_t>(a)] != 0) {
      is_corner = false;
    }
  }
  if (is_corner) {
    for (const CornerConn& cc : corner_connections(tree, c)) {
      std::array<std::int32_t, 3> q{0, 0, 0};
      for (int a = 0; a < Dim; ++a) {
        q[static_cast<std::size_t>(a)] = ((cc.corner >> a) & 1) ? static_cast<std::int32_t>(r) : 0;
      }
      images.emplace_back(cc.tree, q);
    }
  }

  // Deduplicate and drop the identity image.
  std::sort(images.begin(), images.end());
  images.erase(std::unique(images.begin(), images.end()), images.end());
  std::erase(images, std::make_pair(tree, p));
}

template <int Dim>
void Connectivity<Dim>::validate() const {
  constexpr std::int64_t r = Oct::root_len;
  for (int t = 0; t < num_trees(); ++t) {
    for (int f = 0; f < Topo<Dim>::num_faces; ++f) {
      const FaceConn& fc = face_connection(t, f);
      if (fc.tree < 0) continue;
      const FaceConn& back = face_connection(fc.tree, fc.face);
      if (back.tree != t || back.face != f) {
        throw std::runtime_error("connectivity: face connection not mutual");
      }
      if (!(back.xform == fc.xform.inverse())) {
        throw std::runtime_error("connectivity: face transform not involutive");
      }
      // The exterior root across f must map exactly onto the neighbor root.
      Oct ext = Oct::root().face_neighbor(f);
      const Oct img = fc.xform.template apply_octant<Dim>(ext);
      if (!(img == Oct::root())) {
        throw std::runtime_error("connectivity: face transform does not map onto neighbor root");
      }
      // Face plane maps onto the neighbor's face plane.
      const int a2 = fc.face / 2;
      const std::int64_t want = (fc.face % 2) ? r : 0;
      for (int i = 0; i < Topo<Dim>::corners_per_face; ++i) {
        const int c = Topo<Dim>::face_corners[f][i];
        std::array<std::int64_t, 3> p{};
        for (int a = 0; a < Dim; ++a) p[static_cast<std::size_t>(a)] = ((c >> a) & 1) ? r : 0;
        const auto q = fc.xform.apply_point(p);
        if (q[static_cast<std::size_t>(a2)] != want) {
          throw std::runtime_error("connectivity: face transform does not map face to face");
        }
      }
    }
    if constexpr (Dim == 3) {
      for (int e = 0; e < 12; ++e) {
        for (const EdgeConn& ec : edge_connections(t, e)) {
          bool found = false;
          for (const EdgeConn& back : edge_connections(ec.tree, ec.edge)) {
            if (back.tree == t && back.edge == e && back.flip == ec.flip) found = true;
          }
          if (!found) throw std::runtime_error("connectivity: edge connection not mutual");
        }
      }
    }
    for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
      for (const CornerConn& cc : corner_connections(t, c)) {
        bool found = false;
        for (const CornerConn& back : corner_connections(cc.tree, cc.corner)) {
          if (back.tree == t && back.corner == c) found = true;
        }
        if (!found) throw std::runtime_error("connectivity: corner connection not mutual");
      }
    }
  }
}

// --- Standard builders -------------------------------------------------------

template <int Dim>
Connectivity<Dim> Connectivity<Dim>::unit() {
  MacroMesh<Dim> mesh;
  constexpr int nc = Topo<Dim>::num_corners;
  std::array<int, nc> tv{};
  for (int c = 0; c < nc; ++c) {
    mesh.vertex_coords.push_back({static_cast<double>(c & 1), static_cast<double>((c >> 1) & 1),
                                  Dim == 3 ? static_cast<double>((c >> 2) & 1) : 0.0});
    tv[static_cast<std::size_t>(c)] = c;
  }
  mesh.tree_to_vertex.push_back(tv);
  return build(mesh);
}

template <int Dim>
Connectivity<Dim> Connectivity<Dim>::brick(std::array<int, Dim> n, std::array<bool, Dim> periodic) {
  for (int a = 0; a < Dim; ++a) {
    if (n[static_cast<std::size_t>(a)] < 1) throw std::runtime_error("brick: sizes must be >= 1");
    if (periodic[static_cast<std::size_t>(a)] && n[static_cast<std::size_t>(a)] < 2) {
      throw std::runtime_error("brick: periodic axes need at least two trees");
    }
  }
  MacroMesh<Dim> mesh;
  std::array<int, 3> nv{n[0] + 1, n[1] + 1, Dim == 3 ? n[2] + 1 : 1};
  const auto vid = [&](int i, int j, int k) { return (k * nv[1] + j) * nv[0] + i; };
  for (int k = 0; k < nv[2]; ++k) {
    for (int j = 0; j < nv[1]; ++j) {
      for (int i = 0; i < nv[0]; ++i) {
        mesh.vertex_coords.push_back(
            {static_cast<double>(i), static_cast<double>(j), static_cast<double>(k)});
      }
    }
  }
  std::array<int, 3> nt{n[0], n[1], Dim == 3 ? n[2] : 1};
  const auto tid = [&](int i, int j, int k) { return (k * nt[1] + j) * nt[0] + i; };
  for (int k = 0; k < nt[2]; ++k) {
    for (int j = 0; j < nt[1]; ++j) {
      for (int i = 0; i < nt[0]; ++i) {
        std::array<int, Topo<Dim>::num_corners> tv{};
        for (int c = 0; c < Topo<Dim>::num_corners; ++c) {
          tv[static_cast<std::size_t>(c)] =
              vid(i + (c & 1), j + ((c >> 1) & 1), k + (Dim == 3 ? ((c >> 2) & 1) : 0));
        }
        mesh.tree_to_vertex.push_back(tv);
      }
    }
  }
  // Periodic identifications: high-boundary face (2a+1) with the matching
  // low-boundary face (2a), identity corner map.
  typename MacroMesh<Dim>::FaceIdent ident{};
  for (int i = 0; i < Topo<Dim>::corners_per_face; ++i) ident.corner_map[static_cast<std::size_t>(i)] = i;
  for (int a = 0; a < Dim; ++a) {
    if (!periodic[static_cast<std::size_t>(a)]) continue;
    for (int k = 0; k < (a == 2 ? 1 : nt[2]); ++k) {
      for (int j = 0; j < (a == 1 ? 1 : nt[1]); ++j) {
        for (int i = 0; i < (a == 0 ? 1 : nt[0]); ++i) {
          std::array<int, 3> hi{i, j, k}, lo{i, j, k};
          hi[static_cast<std::size_t>(a)] = nt[static_cast<std::size_t>(a)] - 1;
          lo[static_cast<std::size_t>(a)] = 0;
          ident.tree0 = tid(hi[0], hi[1], hi[2]);
          ident.face0 = 2 * a + 1;
          ident.tree1 = tid(lo[0], lo[1], lo[2]);
          ident.face1 = 2 * a;
          mesh.identifications.push_back(ident);
        }
      }
    }
  }
  return build(mesh);
}

template <int Dim>
Connectivity<Dim> Connectivity<Dim>::moebius(int ntrees)
  requires(Dim == 2)
{
  if (ntrees < 2) throw std::runtime_error("moebius: need at least two trees");
  MacroMesh<2> mesh;
  // Columns of two vertices each; embed on a twisted band for visualization.
  for (int i = 0; i <= ntrees; ++i) {
    const double theta = 2.0 * M_PI * i / ntrees;
    const double half = theta / 2.0;
    for (int j = 0; j < 2; ++j) {
      const double w = (j == 0 ? -0.3 : 0.3);
      const double rad = 1.0 + w * std::cos(half);
      mesh.vertex_coords.push_back({rad * std::cos(theta), rad * std::sin(theta),
                                    w * std::sin(half)});
    }
  }
  for (int i = 0; i < ntrees; ++i) {
    mesh.tree_to_vertex.push_back({2 * i, 2 * (i + 1), 2 * i + 1, 2 * (i + 1) + 1});
  }
  // Close the ring with a half twist: (x = ntrees, y) ~ (x = 0, 1 - y).
  mesh.identifications.push_back({ntrees - 1, 1, 0, 0, {1, 0}});
  return build(mesh);
}

template <int Dim>
Connectivity<Dim> Connectivity<Dim>::ring(int ntrees)
  requires(Dim == 2)
{
  if (ntrees < 2) throw std::runtime_error("ring: need at least two trees");
  MacroMesh<2> mesh;
  for (int i = 0; i <= ntrees; ++i) {
    // Clockwise so that (angular, radial) is a right-handed in-plane frame.
    const double theta = -2.0 * M_PI * i / ntrees;
    mesh.vertex_coords.push_back({0.55 * std::cos(theta), 0.55 * std::sin(theta), 0.0});
    mesh.vertex_coords.push_back({std::cos(theta), std::sin(theta), 0.0});
  }
  for (int i = 0; i < ntrees; ++i) {
    mesh.tree_to_vertex.push_back({2 * i, 2 * (i + 1), 2 * i + 1, 2 * (i + 1) + 1});
  }
  mesh.identifications.push_back({ntrees - 1, 1, 0, 0, {0, 1}});
  return build(mesh);
}

template <int Dim>
Connectivity<Dim> Connectivity<Dim>::rotcubes()
  requires(Dim == 3)
{
  // Six unit cells: a 2x2 ring sharing the central axis (1,1,z), plus two
  // diagonal cells on top that meet in the corner (1,1,1). Each tree's
  // coordinate system is rotated by a distinct element of the rotation
  // group, so face/edge/corner connections exercise nontrivial transforms.
  const std::array<std::array<int, 3>, 6> origin{
      {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}, {1, 1, 1}}};
  // Right-handed rotation matrices (rows are the images of x, y, z).
  using Mat = std::array<std::array<int, 3>, 3>;
  const Mat id{{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}};
  const Mat rz{{{0, -1, 0}, {1, 0, 0}, {0, 0, 1}}};     // 90 about z
  const Mat rx{{{1, 0, 0}, {0, 0, -1}, {0, 1, 0}}};     // 90 about x
  const Mat ry{{{0, 0, 1}, {0, 1, 0}, {-1, 0, 0}}};     // 90 about y
  const Mat rz2{{{-1, 0, 0}, {0, -1, 0}, {0, 0, 1}}};   // 180 about z
  const Mat rxz{{{0, -1, 0}, {0, 0, -1}, {1, 0, 0}}};   // compound rotation
  const std::array<Mat, 6> rot{id, rz, rx, ry, rz2, rxz};

  MacroMesh<3> mesh;
  std::map<std::array<int, 3>, int> vids;
  const auto vid = [&](std::array<int, 3> p) {
    auto it = vids.find(p);
    if (it != vids.end()) return it->second;
    const int id2 = static_cast<int>(mesh.vertex_coords.size());
    mesh.vertex_coords.push_back({static_cast<double>(p[0]), static_cast<double>(p[1]),
                                  static_cast<double>(p[2])});
    vids.emplace(p, id2);
    return id2;
  };
  for (int t = 0; t < 6; ++t) {
    std::array<int, 8> tv{};
    for (int c = 0; c < 8; ++c) {
      // Local corner bits -> rotated offset in {-1,1}^3 -> physical corner.
      const std::array<int, 3> s{(c & 1) ? 1 : -1, (c & 2) ? 1 : -1, (c & 4) ? 1 : -1};
      std::array<int, 3> w{};
      for (int r = 0; r < 3; ++r) {
        w[static_cast<std::size_t>(r)] = rot[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)][0] * s[0] +
                                         rot[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)][1] * s[1] +
                                         rot[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)][2] * s[2];
      }
      const std::array<int, 3> p{origin[static_cast<std::size_t>(t)][0] + (w[0] + 1) / 2,
                                 origin[static_cast<std::size_t>(t)][1] + (w[1] + 1) / 2,
                                 origin[static_cast<std::size_t>(t)][2] + (w[2] + 1) / 2};
      tv[static_cast<std::size_t>(c)] = vid(p);
    }
    mesh.tree_to_vertex.push_back(tv);
  }
  return build(mesh);
}

template <int Dim>
Connectivity<Dim> Connectivity<Dim>::shell()
  requires(Dim == 3)
{
  // Cubed-sphere shell: 6 caps x 4 patches = 24 octrees. Surface lattice
  // points live on the boundary of the cube [0,2]^3; each tree's local axes
  // are (u, v, radial) with u x v = outward normal, so every tree is
  // right-handed. Two radial layers: inner (0) and outer (1).
  struct Face {
    std::array<int, 3> normal, du, dv;
  };
  const std::array<Face, 6> faces{{
      {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},    // +x: u = y, v = z
      {{-1, 0, 0}, {0, 0, 1}, {0, 1, 0}},   // -x: u = z, v = y
      {{0, 1, 0}, {0, 0, 1}, {1, 0, 0}},    // +y: u = z, v = x
      {{0, -1, 0}, {1, 0, 0}, {0, 0, 1}},   // -y: u = x, v = z
      {{0, 0, 1}, {1, 0, 0}, {0, 1, 0}},    // +z: u = x, v = y
      {{0, 0, -1}, {0, 1, 0}, {1, 0, 0}},   // -z: u = y, v = x
  }};
  MacroMesh<3> mesh;
  std::map<std::array<int, 4>, int> vids;  // (surface point, layer) -> id
  const auto vid = [&](std::array<int, 3> p, int layer) {
    const std::array<int, 4> key{p[0], p[1], p[2], layer};
    auto it = vids.find(key);
    if (it != vids.end()) return it->second;
    const int id = static_cast<int>(mesh.vertex_coords.size());
    // Geometry: project the surface lattice point radially to the layer radius.
    const double cx = p[0] - 1.0, cy = p[1] - 1.0, cz = p[2] - 1.0;
    const double len = std::sqrt(cx * cx + cy * cy + cz * cz);
    const double rad = layer ? 1.0 : 0.55;
    mesh.vertex_coords.push_back({rad * cx / len, rad * cy / len, rad * cz / len});
    vids.emplace(key, id);
    return id;
  };
  for (const Face& f : faces) {
    // Origin corner of the face: the surface point at (u, v) = (0, 0).
    std::array<int, 3> base{};
    for (int a = 0; a < 3; ++a) {
      const std::size_t ai = static_cast<std::size_t>(a);
      base[ai] = 1 + f.normal[ai];  // face center
      base[ai] -= f.du[ai] + f.dv[ai];  // back to the (0,0) corner
    }
    for (int pv = 0; pv < 2; ++pv) {
      for (int pu = 0; pu < 2; ++pu) {
        std::array<int, 8> tv{};
        for (int c = 0; c < 8; ++c) {
          const int u = pu + ((c & 1) ? 1 : 0);
          const int v = pv + ((c & 2) ? 1 : 0);
          const int layer = (c & 4) ? 1 : 0;
          std::array<int, 3> p{};
          for (int a = 0; a < 3; ++a) {
            const std::size_t ai = static_cast<std::size_t>(a);
            p[ai] = base[ai] + u * f.du[ai] + v * f.dv[ai];
          }
          tv[static_cast<std::size_t>(c)] = vid(p, layer);
        }
        mesh.tree_to_vertex.push_back(tv);
      }
    }
  }
  return build(mesh);
}

template class Connectivity<2>;
template class Connectivity<3>;

}  // namespace esamr::forest
