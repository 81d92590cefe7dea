// DgMesh: the element/face view of a 2:1-balanced forest used by the
// discontinuous Galerkin solvers (mangll reproduction, paper §II-E), and the
// scaffold both dG operators share, so that Advection and ElasticWave keep
// only their fluxes.
//
// For every local element face it records the neighbor configuration:
//   * boundary — physical domain boundary,
//   * same     — one equal-size neighbor,
//   * coarse   — the neighbor is one level coarser (this face is one of the
//                2^(Dim-1) subfaces of the neighbor's face),
//   * fine     — 2^(Dim-1) half-size neighbors across this face,
// together with a face-node alignment row that absorbs the relative
// rotation of inter-tree connections (paper Fig. 3), so the flux kernels are
// orientation-agnostic. Geometry (coordinates, metric terms, face normals)
// is sampled at the tensor LGL nodes of each element and differentiated
// spectrally. The shared scaffold: the face-node and face-weight tables,
// the mortar layout of fine faces (on_subfaces), the overlapped halo
// exchange of one element loop (overlapped), and the low-storage
// Runge-Kutta step (lsrk54_step).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "forest/ghost.h"
#include "sfem/geometry.h"
#include "sfem/lgl.h"
#include "sfem/tensor.h"

namespace esamr::sfem {

template <int Dim>
struct DgMesh {
  static constexpr int nfaces = 2 * Dim;
  static constexpr int nsub = 1 << (Dim - 1);  ///< subfaces per face

  enum class FaceKind : std::uint8_t { boundary, same, coarse, fine };

  struct FaceSide {
    FaceKind kind = FaceKind::boundary;
    /// Neighbor element indices: slot 0 for same/coarse; all nsub slots for
    /// fine (indexed by subface bits over my ascending tangential axes).
    std::array<std::int32_t, nsub> nbr{};
    std::array<std::uint8_t, nsub> nbr_ghost{};
    std::int8_t nbr_face = -1;  ///< the neighbor's face id in its own frame
    /// coarse only: my position within the neighbor's face, as bits over my
    /// ascending tangential axes.
    std::uint8_t half_bits = 0;
    /// Alignment: the row of node_maps pairing my face node q with the
    /// neighbor's face node node_map(side)[q] (grids of equal resolution:
    /// full faces for same, the subface pairing for coarse/fine). Row 0, the
    /// identity, within a tree.
    std::int32_t node_map = 0;
    /// fine only: this face's index among the local fine faces in face
    /// order, which places its subfaces in on_subfaces() tables.
    std::int32_t fine = -1;
  };

  int degree = 0;
  int np = 0;   ///< nodes per direction
  int npf = 0;  ///< nodes per face, np^(Dim-1)
  int nv = 0;   ///< nodes per element, np^Dim
  std::int64_t n_local = 0;
  Basis1d basis;

  std::vector<FaceSide> faces;  ///< n_local * nfaces
  /// face_nodes[f][q]: volume index of face f's node q (tangential axes
  /// ascending, lower axis fastest).
  std::array<std::vector<int>, nfaces> face_nodes;
  /// npf tensor LGL quadrature weights over a face's tangential axes.
  std::vector<double> face_weights;
  /// Face-node alignment rows of npf entries (FaceSide::node_map): row 0 is
  /// the identity; each inter-tree (tree, face) connection in use has one.
  std::vector<std::int32_t> node_maps;

  // Per-element geometry at the tensor nodes.
  std::vector<double> coords;   ///< n_local*nv*3 physical positions
  std::vector<double> jdet;     ///< n_local*nv det(dx/dref)
  std::vector<double> jinv;     ///< n_local*nv*Dim*Dim, (a,d) entry = d ref_a / d x_d
  std::vector<double> mass;     ///< n_local*nv diagonal mass: detJ * tensor weight
  // Per-face geometry at my face nodes.
  std::vector<double> fnormal;  ///< n_local*nfaces*npf*3 outward unit normals
  std::vector<double> fsj;      ///< n_local*nfaces*npf surface Jacobians
  std::vector<double> hmin;     ///< n_local: shortest physical edge (dt estimates)
  /// Local elements with a ghost face neighbor (some nbr_ghost slot set),
  /// ascending: the only elements whose dG terms read the halo.
  std::vector<std::int32_t> ghost_adjacent;

  const forest::Forest<Dim>* forest = nullptr;
  const forest::GhostLayer<Dim>* ghost = nullptr;

  static DgMesh build(const forest::Forest<Dim>& f, const forest::GhostLayer<Dim>& g, int degree,
                      const GeomFn<Dim>& geom);

  const FaceSide& face(std::int64_t elem, int f) const {
    return faces[static_cast<std::size_t>(elem * nfaces + f)];
  }

  const std::int32_t* node_map(const FaceSide& side) const {
    return node_maps.data() +
           static_cast<std::size_t>(side.node_map) * static_cast<std::size_t>(npf);
  }

  /// Per-face-node values (n_local * nfaces * npf, e.g. fsj) interpolated
  /// onto the subfaces of every fine face: subface s of the face with
  /// FaceSide::fine == i holds npf values from (i * nsub + s) * npf. `half`
  /// is Basis1d::interp_half in the precision T.
  template <typename T>
  std::vector<T> on_subfaces(std::span<const std::type_identity_t<T>> values,
                             const T* const half[2]) const {
    const auto per = static_cast<std::size_t>(npf);
    std::vector<T> out, tmp(per);
    for (std::size_t ef = 0; ef < faces.size(); ++ef) {
      if (faces[ef].kind != FaceKind::fine) continue;
      for (int s = 0; s < nsub; ++s) {
        const std::size_t off = out.size();
        out.insert(out.end(), values.begin() + static_cast<std::ptrdiff_t>(ef * per),
                   values.begin() + static_cast<std::ptrdiff_t>((ef + 1) * per));
        face_sweep(Dim, np, half, s, out.data() + off, tmp.data());
      }
    }
    return out;
  }

  /// One element loop with the halo exchange of `fields` (`per_elem` values
  /// per local element, SFC order) in flight: element(e) runs for every
  /// element outside ghost_adjacent first; then the exchange finishes into
  /// `halo` (one block per ghost) and the ghost-adjacent elements run.
  template <typename T, typename Element>
  void overlapped(std::span<const std::type_identity_t<T>> fields, int per_elem,
                  std::vector<T>& halo, Element&& element) const {
    auto x = ghost->exchange_begin(forest->comm(), std::span<const T>(fields), per_elem);
    auto next = ghost_adjacent.begin();
    for (std::size_t e = 0; e < static_cast<std::size_t>(n_local); ++e) {
      if (next != ghost_adjacent.end() && static_cast<std::size_t>(*next) == e) {
        ++next;
        continue;
      }
      element(e);
    }
    halo = ghost->exchange_finish(std::move(x));
    for (const std::int32_t e : ghost_adjacent) element(static_cast<std::size_t>(e));
  }
};

/// One step of the five-stage fourth-order 2N-storage Runge-Kutta scheme of
/// Carpenter & Kennedy (1994) for dq/dt = rhs(q), where rhs(q, k) writes the
/// derivative into k. Coefficients and dt are cast to Real (exact for
/// double).
template <typename Real, typename Rhs>
void lsrk54_step(std::vector<Real>& q, double dt, const Rhs& rhs) {
  static constexpr double a[5] = {0.0, -567301805773.0 / 1357537059087.0,
                                  -2404267990393.0 / 2016746695238.0,
                                  -3550918686646.0 / 2091501179385.0,
                                  -1275806237668.0 / 842570457699.0};
  static constexpr double b[5] = {
      1432997174477.0 / 9575080441755.0, 5161836677717.0 / 13612068292357.0,
      1720146321549.0 / 2090206949498.0, 3134564353537.0 / 4481467310338.0,
      2277821191437.0 / 14882151754819.0};
  std::vector<Real> res(q.size(), Real(0)), k(q.size());
  const Real rdt = static_cast<Real>(dt);
  for (int stage = 0; stage < 5; ++stage) {
    rhs(std::span<const Real>(q), std::span<Real>(k));
    const Real as = static_cast<Real>(a[stage]), bs = static_cast<Real>(b[stage]);
    for (std::size_t i = 0; i < q.size(); ++i) {
      res[i] = as * res[i] + rdt * k[i];
      q[i] += bs * res[i];
    }
  }
}

extern template struct DgMesh<2>;
extern template struct DgMesh<3>;

}  // namespace esamr::sfem
