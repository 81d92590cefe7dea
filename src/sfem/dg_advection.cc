#include "sfem/dg_advection.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace esamr::sfem {

template <int Dim>
Advection<Dim>::Advection(const DgMesh<Dim>* mesh, Velocity velocity)
    : mesh_(mesh), velocity_(std::move(velocity)) {
  constexpr int nfaces = DgMesh<Dim>::nfaces;
  const int nv = mesh_->nv, npf = mesh_->npf;
  const auto n = static_cast<std::size_t>(mesh_->n_local);
  const Basis1d& b = mesh_->basis;
  fcoef_.resize(n * static_cast<std::size_t>(nv) * Dim);
  un_.resize(n * nfaces * static_cast<std::size_t>(npf));
  max_speed_.assign(n, 0.0);

  // Contravariant flux coefficients and face normal velocities.
  for (std::size_t e = 0; e < n; ++e) {
    for (int node = 0; node < nv; ++node) {
      const std::size_t nb = e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node);
      const std::array<double, 3> x{mesh_->coords[nb * 3], mesh_->coords[nb * 3 + 1],
                                    mesh_->coords[nb * 3 + 2]};
      const auto u = velocity_(x);
      double speed = 0.0;
      for (int d = 0; d < Dim; ++d) speed += u[static_cast<std::size_t>(d)] * u[static_cast<std::size_t>(d)];
      max_speed_[e] = std::max(max_speed_[e], std::sqrt(speed));
      for (int a = 0; a < Dim; ++a) {
        double ua = 0.0;
        for (int d = 0; d < Dim; ++d) {
          ua += mesh_->jinv[(nb * Dim + static_cast<std::size_t>(a)) * Dim +
                            static_cast<std::size_t>(d)] *
                u[static_cast<std::size_t>(d)];
        }
        fcoef_[(e * Dim + static_cast<std::size_t>(a)) * static_cast<std::size_t>(nv) +
               static_cast<std::size_t>(node)] = mesh_->jdet[nb] * ua;
      }
    }
    for (int f = 0; f < nfaces; ++f) {
      const auto& fni = mesh_->face_nodes[static_cast<std::size_t>(f)];
      for (int q = 0; q < npf; ++q) {
        const std::size_t nb =
            e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(fni[static_cast<std::size_t>(q)]);
        const std::array<double, 3> x{mesh_->coords[nb * 3], mesh_->coords[nb * 3 + 1],
                                      mesh_->coords[nb * 3 + 2]};
        const auto u = velocity_(x);
        const std::size_t fb = (e * nfaces + static_cast<std::size_t>(f)) *
                                   static_cast<std::size_t>(npf) +
                               static_cast<std::size_t>(q);
        double un = 0.0;
        for (int d = 0; d < Dim; ++d) {
          un += u[static_cast<std::size_t>(d)] * mesh_->fnormal[fb * 3 + static_cast<std::size_t>(d)];
        }
        un_[fb] = un;
      }
    }
  }

  // Mortar geometry: u . n and sJ on the subfaces of every fine face.
  const double* const half[2] = {b.interp_half[0].data(), b.interp_half[1].data()};
  sub_un_ = mesh_->on_subfaces(un_, half);
  sub_sj_ = mesh_->on_subfaces(mesh_->fsj, half);
}

template <int Dim>
void Advection<Dim>::rhs(std::span<const double> c, std::span<double> out) const {
  using FaceKind = typename DgMesh<Dim>::FaceKind;
  constexpr int nfaces = DgMesh<Dim>::nfaces, nsub = DgMesh<Dim>::nsub;
  const int np = mesh_->np, nv = mesh_->nv, npf = mesh_->npf;
  const Basis1d& b = mesh_->basis;
  const double* const half[2] = {b.interp_half[0].data(), b.interp_half[1].data()};
  const double* const half_t[2] = {b.interp_half_t[0].data(), b.interp_half_t[1].data()};
  const double* wf = mesh_->face_weights.data();

  // Scratch shared by every element; the element loop does not allocate.
  std::vector<double> flux(static_cast<std::size_t>(nv)), dflux(static_cast<std::size_t>(nv));
  std::vector<double> cm(static_cast<std::size_t>(npf)), cp(static_cast<std::size_t>(npf));
  std::vector<double> csub(static_cast<std::size_t>(npf)), lift(static_cast<std::size_t>(npf));
  std::vector<double> tmp(static_cast<std::size_t>(npf));
  std::vector<double> ghost_c;  // the halo, once the exchange has finished

  const auto element = [&](std::size_t e) {
    const double* ce = c.data() + e * static_cast<std::size_t>(nv);
    double* oe = out.data() + e * static_cast<std::size_t>(nv);
    const double* jdet = mesh_->jdet.data() + e * static_cast<std::size_t>(nv);
    const double* mass = mesh_->mass.data() + e * static_cast<std::size_t>(nv);
    std::fill(oe, oe + nv, 0.0);

    // Volume term: -(1/detJ) sum_a D_a (fcoef_a * C).
    for (int a = 0; a < Dim; ++a) {
      const double* fa =
          fcoef_.data() + (e * Dim + static_cast<std::size_t>(a)) * static_cast<std::size_t>(nv);
      for (int node = 0; node < nv; ++node) {
        flux[static_cast<std::size_t>(node)] = fa[node] * ce[node];
      }
      apply_axis(Dim, np, a, b.diff.data(), flux.data(), dflux.data());
      for (int node = 0; node < nv; ++node) {
        oe[node] -= dflux[static_cast<std::size_t>(node)] / jdet[node];
      }
    }

    // Face terms.
    for (int f = 0; f < nfaces; ++f) {
      const auto& side = mesh_->face(static_cast<std::int64_t>(e), f);
      if (side.kind == FaceKind::boundary) continue;
      const int* fni = mesh_->face_nodes[static_cast<std::size_t>(f)].data();
      for (int q = 0; q < npf; ++q) cm[static_cast<std::size_t>(q)] = ce[fni[q]];
      const std::size_t fb0 =
          (e * nfaces + static_cast<std::size_t>(f)) * static_cast<std::size_t>(npf);

      const auto nbr_values = [&](int slot, double* dst) {
        const auto nbr = static_cast<std::size_t>(side.nbr[static_cast<std::size_t>(slot)]);
        const double* src = (side.nbr_ghost[static_cast<std::size_t>(slot)] ? ghost_c.data()
                                                                            : c.data()) +
                            nbr * static_cast<std::size_t>(nv);
        const int* nfni = mesh_->face_nodes[static_cast<std::size_t>(side.nbr_face)].data();
        const std::int32_t* map = mesh_->node_map(side);
        for (int q = 0; q < npf; ++q) dst[q] = src[nfni[map[q]]];
      };

      if (side.kind != FaceKind::fine) {
        nbr_values(0, cp.data());
        if (side.kind == FaceKind::coarse) {
          // Interpolate the (orientation-aligned) coarse face to my quadrant.
          face_sweep(Dim, np, half, side.half_bits, cp.data(), tmp.data());
        }
        for (int q = 0; q < npf; ++q) {
          const double un = un_[fb0 + static_cast<std::size_t>(q)];
          const double a = cm[static_cast<std::size_t>(q)], p = cp[static_cast<std::size_t>(q)];
          const double fstar = 0.5 * un * (a + p) - 0.5 * std::abs(un) * (p - a);
          // Strong form: u_t = -div F + M^{-1} \oint phi (F.n - F*) ds.
          const double df = un * a - fstar;
          const int node = fni[q];
          oe[node] += df * mesh_->fsj[fb0 + static_cast<std::size_t>(q)] * wf[q] / mass[node];
        }
      } else {  // fine: integrate each subface at the fine resolution
        const double scale = Dim == 3 ? 0.25 : 0.5;  // d(coarse ref)/d(fine ref) per axis
        const std::size_t off =
            static_cast<std::size_t>(side.fine) * nsub * static_cast<std::size_t>(npf);
        for (int s = 0; s < nsub; ++s) {
          // My values on the subface points; u.n and sJ there are precomputed.
          const double* unsub = sub_un_.data() + off + static_cast<std::size_t>(s) * npf;
          const double* sjsub = sub_sj_.data() + off + static_cast<std::size_t>(s) * npf;
          std::copy(cm.begin(), cm.end(), csub.begin());
          face_sweep(Dim, np, half, s, csub.data(), tmp.data());
          nbr_values(s, cp.data());
          for (int q = 0; q < npf; ++q) {
            const double un = unsub[q];
            const double a = csub[static_cast<std::size_t>(q)], p = cp[static_cast<std::size_t>(q)];
            const double fstar = 0.5 * un * (a + p) - 0.5 * std::abs(un) * (p - a);
            lift[static_cast<std::size_t>(q)] = (un * a - fstar) * sjsub[q] * wf[q] * scale;
          }
          // Lift through the transposed interpolation onto my face nodes.
          face_sweep(Dim, np, half_t, s, lift.data(), tmp.data());
          for (int q = 0; q < npf; ++q) {
            const int node = fni[q];
            oe[node] += lift[static_cast<std::size_t>(q)] / mass[node];
          }
        }
      }
    }
  };

  mesh_->overlapped(c, nv, ghost_c, element);
}

template <int Dim>
void Advection<Dim>::step(std::vector<double>& c, double dt) const {
  lsrk54_step(c, dt, [this](std::span<const double> in, std::span<double> k) { rhs(in, k); });
}

template <int Dim>
double Advection<Dim>::stable_dt(double cfl) const {
  double dt = 1e300;
  for (std::size_t e = 0; e < static_cast<std::size_t>(mesh_->n_local); ++e) {
    const double s = std::max(max_speed_[e], 1e-14);
    const double nn = std::max(1, mesh_->degree * mesh_->degree);
    dt = std::min(dt, cfl * mesh_->hmin[e] / (s * nn));
  }
  return mesh_->forest->comm().allreduce(dt, par::ReduceOp::min);
}

template <int Dim>
double Advection<Dim>::integral(std::span<const double> c) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) acc += mesh_->mass[i] * c[i];
  return mesh_->forest->comm().allreduce(acc, par::ReduceOp::sum);
}

template <int Dim>
double Advection<Dim>::l2_error(
    std::span<const double> c,
    const std::function<double(const std::array<double, 3>&)>& exact) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const std::array<double, 3> x{mesh_->coords[i * 3], mesh_->coords[i * 3 + 1],
                                  mesh_->coords[i * 3 + 2]};
    const double d = c[i] - exact(x);
    acc += mesh_->mass[i] * d * d;
  }
  return std::sqrt(mesh_->forest->comm().allreduce(acc, par::ReduceOp::sum));
}

// --- AmrAdvectionDriver -------------------------------------------------------

template <int Dim>
AmrAdvectionDriver<Dim>::AmrAdvectionDriver(par::Comm& comm,
                                            const forest::Connectivity<Dim>* conn,
                                            GeomFn<Dim> geom,
                                            typename Advection<Dim>::Velocity velocity, int degree,
                                            int initial_level, int max_level)
    : comm_(&comm), conn_(conn), geom_(std::move(geom)), velocity_(std::move(velocity)),
      degree_(degree), min_level_(initial_level), max_level_(max_level),
      forest_(forest::Forest<Dim>::new_uniform(comm, conn, initial_level)) {
  rebuild();
}

template <int Dim>
void AmrAdvectionDriver<Dim>::rebuild() {
  ghost_ = std::make_unique<forest::GhostLayer<Dim>>(forest::GhostLayer<Dim>::build(forest_));
  mesh_ = std::make_unique<DgMesh<Dim>>(DgMesh<Dim>::build(forest_, *ghost_, degree_, geom_));
  adv_ = std::make_unique<Advection<Dim>>(mesh_.get(), velocity_);
}

template <int Dim>
void AmrAdvectionDriver<Dim>::initialize(
    const std::function<double(const std::array<double, 3>&)>& c0, int initial_adapt_rounds,
    double refine_tol, double coarsen_tol) {
  const auto sample = [&]() {
    c_.resize(static_cast<std::size_t>(mesh_->n_local) * mesh_->nv);
    for (std::size_t i = 0; i < c_.size(); ++i) {
      c_[i] = c0({mesh_->coords[i * 3], mesh_->coords[i * 3 + 1], mesh_->coords[i * 3 + 2]});
    }
  };
  sample();
  for (int r = 0; r < initial_adapt_rounds; ++r) {
    adapt(refine_tol, coarsen_tol);
    sample();  // resample rather than interpolate while setting up
  }
}

template <int Dim>
void AmrAdvectionDriver<Dim>::adapt(double refine_tol, double coarsen_tol) {
  using Oct = forest::Octant<Dim>;
  const double t0 = par::thread_cpu_seconds();
  const int nv = mesh_->nv;

  // Elementwise indicator: nodal range of c.
  std::map<std::pair<int, std::uint64_t>, double> range;
  {
    std::size_t e = 0;
    forest_.for_each_local([&](int t, const Oct& o) {
      double lo = 1e300, hi = -1e300;
      for (int node = 0; node < nv; ++node) {
        const double v = c_[e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node)];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      range[{t, o.key() ^ static_cast<std::uint64_t>(o.level) << 58}] = hi - lo;
      ++e;
    });
  }
  const auto key_of = [](const Oct& o) {
    return o.key() ^ static_cast<std::uint64_t>(o.level) << 58;
  };

  const auto old_count = forest_.num_global();
  std::vector<std::vector<Oct>> old_trees;
  old_trees.reserve(static_cast<std::size_t>(forest_.num_trees()));
  for (int t = 0; t < forest_.num_trees(); ++t) old_trees.push_back(forest_.tree(t));

  forest_.refine(max_level_, false, [&](int t, const Oct& o) {
    const auto it = range.find({t, key_of(o)});
    return it != range.end() && it->second > refine_tol;
  });
  forest_.coarsen(false, [&](int t, const Oct& parent) {
    if (parent.level < min_level_) return false;
    for (int ch = 0; ch < forest::Topo<Dim>::num_children; ++ch) {
      const auto it = range.find({t, key_of(parent.child(ch))});
      if (it == range.end() || it->second > coarsen_tol) return false;
    }
    return true;
  });
  forest_.balance();
  c_ = transfer_fields<Dim>(old_trees, forest_, c_, 1, mesh_->basis);
  forest_.partition_payload(nullptr, nv, c_);
  adapted_away_ += std::llabs(forest_.num_global() - old_count);
  rebuild();
  t_amr_ += par::thread_cpu_seconds() - t0;
}

template <int Dim>
void AmrAdvectionDriver<Dim>::run(int nsteps, int adapt_every, double cfl, double refine_tol,
                                  double coarsen_tol) {
  for (int s = 0; s < nsteps; ++s) {
    if (adapt_every > 0 && s > 0 && s % adapt_every == 0) adapt(refine_tol, coarsen_tol);
    const double t0 = par::thread_cpu_seconds();
    const double dt = adv_->stable_dt(cfl);
    adv_->step(c_, dt);
    t_solve_ += par::thread_cpu_seconds() - t0;
  }
}

template class Advection<2>;
template class Advection<3>;
template class AmrAdvectionDriver<2>;
template class AmrAdvectionDriver<3>;

}  // namespace esamr::sfem
