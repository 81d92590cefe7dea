// Nodal discontinuous Galerkin discretization of the advection equation
//   dC/dt + u . grad C = 0   (paper §III-B, Eq. (1))
// with upwind numerical fluxes, tensor LGL collocation (diagonal mass), and
// the five-stage fourth-order low-storage Runge-Kutta scheme of Carpenter &
// Kennedy (lsrk54_step). Non-conforming (2:1) faces integrate from the fine
// side; the coarse side lifts subface contributions through the transposed
// half-interval interpolation (mortar consistency), so the scheme is
// conservative on affine meshes. Face tables, mortar layout, halo overlap
// and the RK step are DgMesh's; this class keeps the upwind flux.
//
// AmrAdvectionDriver wraps the full dynamically adaptive loop of §III-B:
// advect — mark — Refine/Coarsen — Balance — transfer — Partition — rebuild,
// with separate busy-time accounting for AMR and time integration (the
// quantities reported in paper Fig. 5).
#pragma once

#include <functional>
#include <memory>

#include "sfem/dg_mesh.h"
#include "sfem/transfer.h"

namespace esamr::sfem {

template <int Dim>
class Advection {
 public:
  using Velocity = std::function<std::array<double, 3>(const std::array<double, 3>&)>;

  Advection(const DgMesh<Dim>* mesh, Velocity velocity);

  /// dC/dt for the nodal field c (n_local * np^Dim values, SFC order).
  /// Performs one ghost exchange, overlapped with the elements that have no
  /// ghost face neighbor.
  void rhs(std::span<const double> c, std::span<double> out) const;

  /// One low-storage RK(5,4) step.
  void step(std::vector<double>& c, double dt) const;

  /// Largest stable step from the CFL condition (global allreduce).
  double stable_dt(double cfl = 0.5) const;

  /// Global integral of c (conservation checks).
  double integral(std::span<const double> c) const;

  /// Global L2 error against an exact solution given in physical space.
  double l2_error(std::span<const double> c,
                  const std::function<double(const std::array<double, 3>&)>& exact) const;

  const DgMesh<Dim>& mesh() const { return *mesh_; }

 private:
  const DgMesh<Dim>* mesh_;
  Velocity velocity_;
  std::vector<double> fcoef_;     ///< (n_local*Dim)*nv: detJ * (dref_a/dx) . u per (element, a)
  std::vector<double> un_;        ///< n_local*nfaces*npf: u . n at my face nodes
  /// Fine faces: u . n and sJ on their subfaces (DgMesh::on_subfaces layout,
  /// fixed between adapts).
  std::vector<double> sub_un_, sub_sj_;
  std::vector<double> max_speed_; ///< per element |u| bound
};

/// Dynamically adaptive advection run (paper §III-B): owns the forest, mesh,
/// and solution, and re-adapts every `adapt_every` steps.
template <int Dim>
class AmrAdvectionDriver {
 public:
  AmrAdvectionDriver(par::Comm& comm, const forest::Connectivity<Dim>* conn, GeomFn<Dim> geom,
                     typename Advection<Dim>::Velocity velocity, int degree, int initial_level,
                     int max_level);

  /// Set the initial condition and adapt the initial mesh to it.
  void initialize(const std::function<double(const std::array<double, 3>&)>& c0,
                  int initial_adapt_rounds, double refine_tol, double coarsen_tol);

  /// Advance `nsteps` steps, re-adapting every `adapt_every` steps.
  void run(int nsteps, int adapt_every, double cfl, double refine_tol, double coarsen_tol);

  /// One adaptation: mark by the elementwise range of c, Refine + Coarsen +
  /// Balance + transfer + Partition + rebuild.
  void adapt(double refine_tol, double coarsen_tol);

  const std::vector<double>& solution() const { return c_; }
  const Advection<Dim>& advection() const { return *adv_; }
  const forest::Forest<Dim>& forest() const { return forest_; }

  /// Busy-time (thread CPU) accounting, for the Fig. 5 style breakdown.
  double amr_seconds() const { return t_amr_; }
  double solve_seconds() const { return t_solve_; }
  std::int64_t elements_adapted_away() const { return adapted_away_; }

 private:
  void rebuild();

  par::Comm* comm_;
  const forest::Connectivity<Dim>* conn_;
  GeomFn<Dim> geom_;
  typename Advection<Dim>::Velocity velocity_;
  int degree_;
  int min_level_;
  int max_level_;

  forest::Forest<Dim> forest_;
  std::unique_ptr<forest::GhostLayer<Dim>> ghost_;
  std::unique_ptr<DgMesh<Dim>> mesh_;
  std::unique_ptr<Advection<Dim>> adv_;
  std::vector<double> c_;

  double t_amr_ = 0.0;
  double t_solve_ = 0.0;
  std::int64_t adapted_away_ = 0;
};

extern template class Advection<2>;
extern template class Advection<3>;
extern template class AmrAdvectionDriver<2>;
extern template class AmrAdvectionDriver<3>;

}  // namespace esamr::sfem
