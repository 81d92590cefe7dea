#include "sfem/dg_mesh.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esamr::sfem {

namespace {

using forest::CoordXform;
using forest::LeafRef;
using forest::Topo;

/// Append the face-node alignment row of a face connection to `rows`: my
/// face node q corresponds to the neighbor's face node row[q]. X is the
/// transform from my tree frame to the neighbor's. Valid for any pair of
/// equal-resolution face grids covering the same region.
template <int Dim>
void append_node_map(std::vector<std::int32_t>& rows, int np, int myf, const CoordXform& x,
                     int nbrf) {
  const auto t = face_tangents(Dim, myf);
  const auto u = face_tangents(Dim, nbrf);
  const int nf = ipow(np, Dim - 1);
  // For each of my tangential axes: target position among the neighbor's
  // tangential axes and index direction.
  std::array<int, 2> pos{0, 0};
  std::array<bool, 2> rev{false, false};
  for (int k = 0; k < Dim - 1; ++k) {
    int j = -1;
    for (int jj = 0; jj < 3; ++jj) {
      if (x.perm[static_cast<std::size_t>(jj)] == t[static_cast<std::size_t>(k)]) j = jj;
    }
    const bool r = x.sign[static_cast<std::size_t>(j)] < 0;
    int p = -1;
    for (int q = 0; q < Dim - 1; ++q) {
      if (u[static_cast<std::size_t>(q)] == j) p = q;
    }
    if (p < 0) throw std::runtime_error("dg_mesh: face transform does not map tangents");
    pos[static_cast<std::size_t>(k)] = p;
    rev[static_cast<std::size_t>(k)] = r;
  }
  for (int q = 0; q < nf; ++q) {
    std::array<int, 2> mi{q % np, Dim == 3 ? q / np : 0};
    std::array<int, 2> ni{0, 0};
    for (int k = 0; k < Dim - 1; ++k) {
      const int i = rev[static_cast<std::size_t>(k)] ? np - 1 - mi[static_cast<std::size_t>(k)]
                                                     : mi[static_cast<std::size_t>(k)];
      ni[static_cast<std::size_t>(pos[static_cast<std::size_t>(k)])] = i;
    }
    rows.push_back(static_cast<std::int32_t>(ni[0] + (Dim == 3 ? np * ni[1] : 0)));
  }
}

template <int Dim>
const LeafRef<Dim>* find_exact(const std::vector<std::vector<LeafRef<Dim>>>& dir, int t,
                               const forest::Octant<Dim>& o) {
  const auto& v = dir[static_cast<std::size_t>(t)];
  const auto it = std::lower_bound(
      v.begin(), v.end(), o, [](const LeafRef<Dim>& a, const forest::Octant<Dim>& b) {
        return a.oct < b;
      });
  if (it != v.end() && it->oct == o) return &*it;
  return nullptr;
}

}  // namespace

template <int Dim>
DgMesh<Dim> DgMesh<Dim>::build(const forest::Forest<Dim>& f, const forest::GhostLayer<Dim>& g,
                               int degree, const GeomFn<Dim>& geom) {
  using Oct = forest::Octant<Dim>;
  DgMesh mesh;
  mesh.degree = degree;
  mesh.np = degree + 1;
  mesh.npf = ipow(mesh.np, Dim - 1);
  mesh.nv = ipow(mesh.np, Dim);
  mesh.n_local = f.num_local();
  mesh.basis = Basis1d::make(degree);
  mesh.forest = &f;
  mesh.ghost = &g;

  const int np = mesh.np, nv = mesh.nv, npf = mesh.npf;
  const auto n = static_cast<std::size_t>(mesh.n_local);
  mesh.faces.resize(n * nfaces);
  mesh.coords.resize(n * static_cast<std::size_t>(nv) * 3);
  mesh.jdet.resize(n * static_cast<std::size_t>(nv));
  mesh.jinv.resize(n * static_cast<std::size_t>(nv) * Dim * Dim);
  mesh.mass.resize(n * static_cast<std::size_t>(nv));
  mesh.fnormal.resize(n * nfaces * static_cast<std::size_t>(npf) * 3);
  mesh.fsj.resize(n * nfaces * static_cast<std::size_t>(npf));
  mesh.hmin.resize(n);

  const auto dir = forest::build_leaf_directory(f, g);
  const auto& conn = f.conn();
  constexpr double root_len = static_cast<double>(Oct::root_len);

  for (int fc = 0; fc < nfaces; ++fc) {
    mesh.face_nodes[static_cast<std::size_t>(fc)] = face_node_indices(Dim, np, fc);
  }
  mesh.face_weights.resize(static_cast<std::size_t>(npf));
  for (int q = 0; q < npf; ++q) {
    double w = mesh.basis.weights[static_cast<std::size_t>(q % np)];
    if (Dim == 3) w *= mesh.basis.weights[static_cast<std::size_t>(q / np)];
    mesh.face_weights[static_cast<std::size_t>(q)] = w;
  }
  // Row 0 is the identity; row_of[t * nfaces + f] is the row of tree t's
  // connection through face f once a face uses it (0 before).
  for (int q = 0; q < npf; ++q) mesh.node_maps.push_back(q);
  std::vector<std::int32_t> row_of(static_cast<std::size_t>(f.num_trees()) * nfaces, 0);
  std::int32_t nfine = 0;

  std::vector<double> jmat(static_cast<std::size_t>(nv) * Dim * Dim);
  std::vector<double> comp(static_cast<std::size_t>(nv)), dcomp(static_cast<std::size_t>(nv));
  std::size_t e = 0;
  f.for_each_local([&](int t, const Oct& o) {
    // --- Node coordinates ---------------------------------------------------
    double* xyz = mesh.coords.data() + e * static_cast<std::size_t>(nv) * 3;
    const double h = static_cast<double>(o.size());
    for (int node = 0; node < nv; ++node) {
      std::array<int, 3> idx{node % np, (node / np) % np, Dim == 3 ? node / (np * np) : 0};
      std::array<double, Dim> ref{};
      for (int a = 0; a < Dim; ++a) {
        const double xi = mesh.basis.nodes[static_cast<std::size_t>(idx[static_cast<std::size_t>(a)])];
        ref[static_cast<std::size_t>(a)] = (o.coord(a) + 0.5 * (xi + 1.0) * h) / root_len;
      }
      const auto p = geom(t, ref);
      for (int d = 0; d < 3; ++d) xyz[node * 3 + d] = p[static_cast<std::size_t>(d)];
    }

    // --- Metric terms: J[d][a] = dx_d/dref_a by spectral differentiation ----
    for (int d = 0; d < Dim; ++d) {
      for (int node = 0; node < nv; ++node) comp[static_cast<std::size_t>(node)] = xyz[node * 3 + d];
      for (int a = 0; a < Dim; ++a) {
        apply_axis(Dim, np, a, mesh.basis.diff.data(), comp.data(), dcomp.data());
        for (int node = 0; node < nv; ++node) {
          jmat[static_cast<std::size_t>((node * Dim + d) * Dim + a)] =
              dcomp[static_cast<std::size_t>(node)];
        }
      }
    }
    double hm = 1e300;
    for (int node = 0; node < nv; ++node) {
      const double* jm = jmat.data() + static_cast<std::size_t>(node) * Dim * Dim;
      double det;
      double inv[9];
      if constexpr (Dim == 2) {
        det = jm[0] * jm[3] - jm[1] * jm[2];
        inv[0] = jm[3] / det;   // dref0/dx
        inv[1] = -jm[1] / det;  // dref0/dy
        inv[2] = -jm[2] / det;  // dref1/dx
        inv[3] = jm[0] / det;   // dref1/dy
      } else {
        const double a00 = jm[0], a01 = jm[1], a02 = jm[2];
        const double a10 = jm[3], a11 = jm[4], a12 = jm[5];
        const double a20 = jm[6], a21 = jm[7], a22 = jm[8];
        det = a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) +
              a02 * (a10 * a21 - a11 * a20);
        inv[0] = (a11 * a22 - a12 * a21) / det;
        inv[1] = (a02 * a21 - a01 * a22) / det;
        inv[2] = (a01 * a12 - a02 * a11) / det;
        inv[3] = (a12 * a20 - a10 * a22) / det;
        inv[4] = (a00 * a22 - a02 * a20) / det;
        inv[5] = (a02 * a10 - a00 * a12) / det;
        inv[6] = (a10 * a21 - a11 * a20) / det;
        inv[7] = (a01 * a20 - a00 * a21) / det;
        inv[8] = (a00 * a11 - a01 * a10) / det;
      }
      if (det <= 0.0) throw std::runtime_error("dg_mesh: non-positive Jacobian");
      mesh.jdet[e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node)] = det;
      double wt = 1.0;
      std::array<int, 3> idx{node % np, (node / np) % np, Dim == 3 ? node / (np * np) : 0};
      for (int a = 0; a < Dim; ++a) {
        wt *= mesh.basis.weights[static_cast<std::size_t>(idx[static_cast<std::size_t>(a)])];
      }
      mesh.mass[e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node)] = det * wt;
      for (int a = 0; a < Dim; ++a) {
        double col = 0.0;
        for (int d = 0; d < Dim; ++d) {
          const double v = jm[d * Dim + a];
          col += v * v;
          mesh.jinv[((e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node)) * Dim +
                     static_cast<std::size_t>(a)) *
                        Dim +
                    static_cast<std::size_t>(d)] = inv[a * Dim + d];
        }
        hm = std::min(hm, 2.0 * std::sqrt(col));
      }
    }
    mesh.hmin[e] = hm;

    // --- Face geometry at my face nodes -------------------------------------
    for (int fc = 0; fc < nfaces; ++fc) {
      const int axis = fc / 2;
      const double sgn = (fc % 2) ? 1.0 : -1.0;
      const auto& fni = mesh.face_nodes[static_cast<std::size_t>(fc)];
      for (int q = 0; q < npf; ++q) {
        const int node = fni[static_cast<std::size_t>(q)];
        const std::size_t nb = e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node);
        double nvec[3] = {0.0, 0.0, 0.0};
        for (int d = 0; d < Dim; ++d) {
          nvec[d] = sgn * mesh.jdet[nb] *
                    mesh.jinv[(nb * Dim + static_cast<std::size_t>(axis)) * Dim +
                              static_cast<std::size_t>(d)];
        }
        double len = 0.0;
        for (int d = 0; d < Dim; ++d) len += nvec[d] * nvec[d];
        len = std::sqrt(len);
        const std::size_t fb = (e * nfaces + static_cast<std::size_t>(fc)) *
                               static_cast<std::size_t>(npf) +
                               static_cast<std::size_t>(q);
        mesh.fsj[fb] = len;
        for (int d = 0; d < 3; ++d) {
          mesh.fnormal[fb * 3 + static_cast<std::size_t>(d)] = d < Dim ? nvec[d] / len : 0.0;
        }
      }
    }

    // --- Face neighbor classification ---------------------------------------
    for (int fc = 0; fc < nfaces; ++fc) {
      FaceSide& side = mesh.faces[e * nfaces + static_cast<std::size_t>(fc)];
      const Oct nb = o.face_neighbor(fc);
      int t2 = t;
      Oct nb2 = nb;
      const CoordXform* x = nullptr;
      int nbrface = fc ^ 1;
      if (!nb.inside_root()) {
        const auto& fconn = conn.face_connection(t, fc);
        if (fconn.tree < 0) {
          side.kind = FaceKind::boundary;
          continue;
        }
        t2 = fconn.tree;
        x = &fconn.xform;
        nb2 = x->template apply_octant<Dim>(nb);
        nbrface = fconn.face;
        auto& row = row_of[static_cast<std::size_t>(t) * nfaces + static_cast<std::size_t>(fc)];
        if (row == 0) {
          row = static_cast<std::int32_t>(mesh.node_maps.size() / static_cast<std::size_t>(npf));
          append_node_map<Dim>(mesh.node_maps, np, fc, *x, nbrface);
        }
        side.node_map = row;
      }
      side.nbr_face = static_cast<std::int8_t>(nbrface);
      if (const LeafRef<Dim>* same = find_exact<Dim>(dir, t2, nb2)) {
        side.kind = FaceKind::same;
        side.nbr[0] = same->index;
        side.nbr_ghost[0] = same->owner != f.comm().rank();
        continue;
      }
      if (nb2.level > 0) {
        if (const LeafRef<Dim>* big = find_exact<Dim>(dir, t2, nb2.parent())) {
          side.kind = FaceKind::coarse;
          side.nbr[0] = big->index;
          side.nbr_ghost[0] = big->owner != f.comm().rank();
          // My quadrant within the coarse face, in my own frame.
          const Oct par = nb.parent();
          const auto tang = face_tangents(Dim, fc);
          std::uint8_t bits = 0;
          for (int k = 0; k < Dim - 1; ++k) {
            if (nb.coord(tang[static_cast<std::size_t>(k)]) !=
                par.coord(tang[static_cast<std::size_t>(k)])) {
              bits |= static_cast<std::uint8_t>(1 << k);
            }
          }
          side.half_bits = bits;
          continue;
        }
      }
      // Finer neighbors: the children of nb touching my face.
      side.kind = FaceKind::fine;
      side.fine = nfine++;
      const auto tang = face_tangents(Dim, fc);
      for (int s = 0; s < nsub; ++s) {
        int cid = 0;
        if ((fc % 2) == 0) cid |= 1 << (fc / 2);  // toward me: high bit if I am on the low side
        for (int k = 0; k < Dim - 1; ++k) {
          if (s & (1 << k)) cid |= 1 << tang[static_cast<std::size_t>(k)];
        }
        Oct child = nb.child(cid);
        const Oct child2 = (x != nullptr) ? x->template apply_octant<Dim>(child) : child;
        const LeafRef<Dim>* fine = find_exact<Dim>(dir, t2, child2);
        if (fine == nullptr) {
          throw std::runtime_error("dg_mesh: missing fine neighbor (forest not 2:1 balanced?)");
        }
        side.nbr[static_cast<std::size_t>(s)] = fine->index;
        side.nbr_ghost[static_cast<std::size_t>(s)] = fine->owner != f.comm().rank();
      }
    }
    const FaceSide* sides = mesh.faces.data() + e * nfaces;
    if (std::any_of(sides, sides + nfaces, [](const FaceSide& sd) {
          return std::any_of(sd.nbr_ghost.begin(), sd.nbr_ghost.end(),
                             [](std::uint8_t ghost) { return ghost != 0; });
        })) {
      mesh.ghost_adjacent.push_back(static_cast<std::int32_t>(e));
    }
    ++e;
  });
  return mesh;
}

template struct DgMesh<2>;
template struct DgMesh<3>;

}  // namespace esamr::sfem
