// DgMesh: the element/face view of a 2:1-balanced forest used by the
// discontinuous Galerkin solvers (mangll reproduction, paper §II-E).
//
// For every local element face it records the neighbor configuration:
//   * boundary — physical domain boundary,
//   * same     — one equal-size neighbor,
//   * coarse   — the neighbor is one level coarser (this face is one of the
//                2^(Dim-1) subfaces of the neighbor's face),
//   * fine     — 2^(Dim-1) half-size neighbors across this face,
// together with a face-node alignment map that absorbs the relative rotation
// of inter-tree connections (paper Fig. 3), so the flux kernels are
// orientation-agnostic. Geometry (coordinates, metric terms, face normals)
// is sampled at the tensor LGL nodes of each element and differentiated
// spectrally.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

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
    /// Alignment: my face node q corresponds to the neighbor's face node
    /// node_map[q] (grids of equal resolution: full faces for same, the
    /// subface pairing for coarse/fine). Identity within a tree.
    std::vector<std::int32_t> node_map;
    /// coarse only: my position within the neighbor's face, as bits over my
    /// ascending tangential axes.
    std::uint8_t half_bits = 0;
  };

  int degree = 0;
  int np = 0;   ///< nodes per direction
  int npf = 0;  ///< nodes per face, np^(Dim-1)
  int nv = 0;   ///< nodes per element, np^Dim
  std::int64_t n_local = 0;
  Basis1d basis;

  std::vector<FaceSide> faces;  ///< n_local * nfaces

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

  /// Exchange per-element nodal fields (`per_elem` values each, n_local
  /// blocks in SFC order) into the ghost halo (one block per ghost element).
  template <typename T = double>
  std::vector<T> exchange(std::span<const std::type_identity_t<T>> fields, int per_elem) const {
    return ghost->exchange_finish(exchange_begin<T>(fields, per_elem));
  }

  /// First half of exchange(): post and send the mirror blocks. The caller
  /// may compute the elements outside `ghost_adjacent` before passing the
  /// result to ghost->exchange_finish.
  template <typename T = double>
  forest::GhostExchange<T> exchange_begin(
      std::span<const std::type_identity_t<T>> fields, int per_elem) const {
    const auto per = static_cast<std::size_t>(per_elem);
    std::vector<T> mirror(ghost->mirrors.size() * per);
    for (std::size_t m = 0; m < ghost->mirrors.size(); ++m) {
      const auto src = static_cast<std::size_t>(ghost->mirrors[m].local_index) * per;
      std::copy_n(fields.data() + src, per, mirror.data() + m * per);
    }
    return ghost->exchange_begin(forest->comm(), std::span<const T>(mirror), per_elem);
  }
};

extern template struct DgMesh<2>;
extern template struct DgMesh<3>;

}  // namespace esamr::sfem
