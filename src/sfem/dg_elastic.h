// Discontinuous Galerkin solver for elastic/acoustic wave propagation in
// velocity–strain form (paper §IV-B, Eq. (3); the dGea substitute):
//   rho dv/dt = div( 2 mu E + lambda tr(E) I ) + f
//   dE/dt     = (grad v + grad v^T) / 2
// Upwind (Godunov) fluxes from the exact interface Riemann solution with
// per-side impedances — heterogeneous and coupled acoustic-elastic media
// (mu = 0 in fluid layers) are handled by the same formulas. Face tables,
// 2:1 mortar layout, the overlapped halo exchange and the five-stage
// low-storage RK step are DgMesh's, shared with the advection solver; this
// class keeps the fluxes.
//
// The class is templated on the scalar type: `double` is the reference CPU
// path; `float` is the "accelerated" path that substitutes for the paper's
// single-precision GPU kernel (paper Fig. 10; see DESIGN.md). The
// construction from a double-precision mesh measures the host-to-device
// style transfer explicitly.
#pragma once

#include <functional>

#include "sfem/dg_mesh.h"

namespace esamr::sfem {

/// Isotropic material sample.
struct Material {
  double rho;
  double lambda;
  double mu;
};

template <int Dim, typename Real = double>
class ElasticWave {
 public:
  /// Components: Dim velocities followed by the symmetric strain in Voigt
  /// order (2D: Exx, Eyy, Exy; 3D: Exx, Eyy, Ezz, Eyz, Exz, Exy).
  static constexpr int nstrain = Dim * (Dim + 1) / 2;
  static constexpr int ncomp = Dim + nstrain;

  enum class Boundary { free_surface, rigid };

  ElasticWave(const DgMesh<Dim>* mesh,
              const std::function<Material(const std::array<double, 3>&)>& material,
              Boundary boundary = Boundary::free_surface);

  /// State layout: per element, per component, per node:
  /// q[(e * ncomp + c) * nv + node].
  std::vector<Real> zero_state() const {
    return std::vector<Real>(static_cast<std::size_t>(mesh_->n_local) * ncomp * mesh_->nv,
                             Real(0));
  }

  void rhs(std::span<const Real> q, std::span<Real> out) const;
  void step(std::vector<Real>& q, double dt) const;
  double stable_dt(double cfl = 0.4) const;

  /// Physical energy: integral of rho |v|^2 / 2 + (2 mu E:E + lambda tr(E)^2)/2.
  double energy(std::span<const Real> q) const;

  /// Seconds of "device transfer" spent converting mesh/material data into
  /// the Real-precision kernel tables at construction.
  double transfer_seconds() const { return transfer_seconds_; }

  const DgMesh<Dim>& mesh() const { return *mesh_; }

 private:
  const DgMesh<Dim>* mesh_;
  Boundary boundary_;
  double transfer_seconds_ = 0.0;

  // Precision-converted kernel tables.
  std::vector<Real> jinv_, jdet_, mass_, fsj_, fnormal_;
  std::vector<Real> rho_, lambda_, mu_;        // per node, local then ghost
  std::vector<Real> zp_, zs_;                  // P and S impedances per node
  std::vector<Real> diff_;                     // 1D differentiation matrix
  std::vector<Real> wf_;                       // DgMesh::face_weights
  std::vector<Real> interp_half_[2], interp_half_t_[2];
  // Fine faces: my impedances, sJ and unit normal (3 per point) on their
  // subfaces (DgMesh::on_subfaces layout, fixed for the mesh).
  std::vector<Real> sub_zp_, sub_zs_, sub_sj_, sub_nrm_;
  double max_speed_ = 0.0;  // global P-wave speed bound
};

extern template class ElasticWave<2, double>;
extern template class ElasticWave<3, double>;
extern template class ElasticWave<2, float>;
extern template class ElasticWave<3, float>;

}  // namespace esamr::sfem
