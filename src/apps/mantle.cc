#include "apps/mantle.h"

#include <cmath>
#include <map>

#include "sfem/transfer.h"
#include "solver/amg.h"
#include "solver/krylov.h"

namespace esamr::apps {

namespace {

double theta_of(const std::array<double, 3>& x) { return std::atan2(x[1], x[0]); }
double radius_of(const std::array<double, 3>& x) { return std::hypot(x[0], x[1]); }

/// Whether the (theta, r) point lies inside a plate-boundary weak zone.
bool in_plate_zone(const geo::Rheology& rh, double theta, double r) {
  if (r <= 0.85) return false;
  for (const double pb : rh.plate_boundaries) {
    double d = std::fmod(std::abs(theta - pb), 2.0 * M_PI);
    d = std::min(d, 2.0 * M_PI - d);
    if (d < 2.0 * rh.plate_halfwidth) return true;
  }
  return false;
}

}  // namespace

MantleSimulation::MantleSimulation(par::Comm& comm, MantleOptions opt)
    : comm_(&comm), opt_(opt), conn_(forest::Connectivity<2>::ring(opt.ntrees)) {
  forest_ = std::make_unique<forest::Forest<2>>(
      forest::Forest<2>::new_uniform(comm, &conn_, opt_.base_level));
}

void MantleSimulation::rebuild_space() {
  ghost_ = std::make_unique<forest::GhostLayer<2>>(forest::GhostLayer<2>::build(*forest_));
  nodes_ = std::make_unique<forest::NodeNumbering<2>>(
      forest::NodeNumbering<2>::build(*forest_, *ghost_));
  space_ = std::make_unique<sfem::CgSpace<2>>(
      sfem::CgSpace<2>::build(*forest_, *nodes_, sfem::annulus_map(opt_.ntrees)));
}

void MantleSimulation::static_adapt() {
  const double t0 = par::thread_cpu_seconds();
  const auto geom = sfem::annulus_map(opt_.ntrees);
  constexpr double root = static_cast<double>(forest::Octant<2>::root_len);
  const auto elem_info = [&](int t, const forest::Octant<2>& o, double& trange, bool& plate) {
    double tmin = 1e300, tmax = -1e300;
    plate = false;
    for (int c = 0; c < 4; ++c) {
      const auto cp = o.corner_point(c);
      const auto x = geom(t, {cp[0] / root, cp[1] / root});
      const double temp = opt_.temperature.at(theta_of(x), radius_of(x));
      tmin = std::min(tmin, temp);
      tmax = std::max(tmax, temp);
      if (in_plate_zone(opt_.rheology, theta_of(x), radius_of(x))) plate = true;
    }
    trange = tmax - tmin;
  };
  for (int round = 0; round < opt_.static_adapt_rounds; ++round) {
    // Temperature-driven refinement, then plate zones to the finest level.
    forest_->refine(opt_.max_level, false, [&](int t, const forest::Octant<2>& o) {
      double trange;
      bool plate;
      elem_info(t, o, trange, plate);
      if (plate) return true;
      return o.level < opt_.temperature_max_level && trange > 0.1;
    });
    forest_->balance();
    forest_->partition();
  }
  t_amr_ += par::thread_cpu_seconds() - t0;

  const double t1 = par::thread_cpu_seconds();
  rebuild_space();
  t_amr_ += par::thread_cpu_seconds() - t1;
  corner_vel_.assign(static_cast<std::size_t>(forest_->num_local()) * 2 * 4, 0.0);
}

double MantleSimulation::element_strain_rate_ii(std::size_t e) const {
  // Q1 velocity gradient at the element center from the corner values;
  // second invariant of the symmetric part.
  const auto& xc = space_->corners[e];
  // Center-point reference gradients of the Q1 shape functions are
  // +-1/2 patterns; build the Jacobian from them.
  const double dn[4][2] = {{-0.5, -0.5}, {0.5, -0.5}, {-0.5, 0.5}, {0.5, 0.5}};
  double jm[2][2] = {};
  for (int c = 0; c < 4; ++c) {
    for (int d = 0; d < 2; ++d) {
      for (int a = 0; a < 2; ++a) jm[d][a] += dn[c][a] * xc[static_cast<std::size_t>(c)][static_cast<std::size_t>(d)];
    }
  }
  const double det = jm[0][0] * jm[1][1] - jm[0][1] * jm[1][0];
  const double inv[2][2] = {{jm[1][1] / det, -jm[0][1] / det},
                            {-jm[1][0] / det, jm[0][0] / det}};
  double grad[2][2] = {};
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 2; ++i) {
      const double u = corner_vel_[(e * 2 + static_cast<std::size_t>(i)) * 4 +
                                   static_cast<std::size_t>(c)];
      for (int d = 0; d < 2; ++d) {
        double g = 0.0;
        for (int a = 0; a < 2; ++a) g += inv[a][d] * dn[c][a];
        grad[i][d] += u * g;
      }
    }
  }
  double eps2 = 0.0;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      const double eij = 0.5 * (grad[i][j] + grad[j][i]);
      eps2 += eij * eij;
    }
  }
  return std::sqrt(0.5 * eps2) + 1e-12;
}

void MantleSimulation::extract_corner_velocities(const std::vector<double>& x,
                                                 const std::vector<std::int64_t>& dof_offsets) {
  // Collect the dof gids referenced by the velocity slots, fetch their
  // values, and evaluate the (possibly hanging) corner velocities.
  std::vector<std::int64_t> gids;
  const auto n_local = static_cast<std::size_t>(forest_->num_local());
  for (std::size_t e = 0; e < n_local; ++e) {
    for (int c = 0; c < 4; ++c) {
      for (const auto& contrib : nodes_->slot(e, c)) {
        for (int i = 0; i < 2; ++i) gids.push_back(contrib.gid * 3 + i);
      }
    }
  }
  std::sort(gids.begin(), gids.end());
  gids.erase(std::unique(gids.begin(), gids.end()), gids.end());
  const auto vals = sfem::fetch_gid_values(*comm_, dof_offsets, x, gids);
  const auto value_of = [&](std::int64_t gid) {
    const auto it = std::lower_bound(gids.begin(), gids.end(), gid);
    return vals[static_cast<std::size_t>(it - gids.begin())];
  };
  corner_vel_.assign(n_local * 2 * 4, 0.0);
  max_velocity_ = 0.0;
  for (std::size_t e = 0; e < n_local; ++e) {
    for (int c = 0; c < 4; ++c) {
      double u[2] = {0.0, 0.0};
      for (const auto& contrib : nodes_->slot(e, c)) {
        for (int i = 0; i < 2; ++i) u[i] += contrib.weight * value_of(contrib.gid * 3 + i);
      }
      for (int i = 0; i < 2; ++i) {
        corner_vel_[(e * 2 + static_cast<std::size_t>(i)) * 4 + static_cast<std::size_t>(c)] = u[i];
      }
      max_velocity_ = std::max(max_velocity_, std::hypot(u[0], u[1]));
    }
  }
  max_velocity_ = comm_->allreduce(max_velocity_, par::ReduceOp::max);
}

void MantleSimulation::picard_iteration(int /*k*/) {
  const double t0 = par::thread_cpu_seconds();
  const auto n_local = static_cast<std::size_t>(forest_->num_local());

  // Lagged viscosity: per-element strain rate from the previous velocity.
  elem_eps_.resize(n_local);
  elem_eta_.resize(n_local);
  elem_temp_.resize(n_local);
  for (std::size_t e = 0; e < n_local; ++e) elem_eps_[e] = element_strain_rate_ii(e);

  const auto viscosity = [&](std::int64_t e, const std::array<double, 3>& x) {
    const double th = theta_of(x), r = radius_of(x);
    const double temp = opt_.temperature.at(th, r);
    elem_temp_[static_cast<std::size_t>(e)] = temp;
    const double eta =
        opt_.rheology.viscosity(temp, elem_eps_[static_cast<std::size_t>(e)], th, r);
    elem_eta_[static_cast<std::size_t>(e)] = eta;
    return eta;
  };
  const auto buoyancy = [&](const std::array<double, 3>& x) {
    const double th = theta_of(x), r = radius_of(x);
    const double temp = opt_.temperature.at(th, r);
    // Boussinesq: rho g ~ -Ra (T - T_ref) e_r (hot rises).
    const double f = opt_.rayleigh * (temp - 0.5);
    return std::array<double, 3>{f * x[0] / r, f * x[1] / r, 0.0};
  };

  auto sys = sfem::assemble_stokes<2>(*space_, viscosity, buoyancy);
  solver::AmgPreconditioner::Options aopt;
  aopt.dofs_per_node = 2;
  aopt.presmooth = 2;
  aopt.postsmooth = 2;
  solver::AmgPreconditioner amg(sys.velocity_block, aopt);
  const std::size_t nn = sys.pressure_diag.size();
  const solver::LinearOp precond = [&](std::span<const double> r, std::span<double> z) {
    std::vector<double> rv(nn * 2), zv(nn * 2);
    for (std::size_t i = 0; i < nn; ++i) {
      rv[2 * i] = r[3 * i];
      rv[2 * i + 1] = r[3 * i + 1];
    }
    amg.apply(rv, zv);
    for (std::size_t i = 0; i < nn; ++i) {
      z[3 * i] = zv[2 * i];
      z[3 * i + 1] = zv[2 * i + 1];
      z[3 * i + 2] = r[3 * i + 2] / std::max(sys.pressure_diag[i], 1e-12);
    }
  };
  const solver::LinearOp op = [&](std::span<const double> in, std::span<double> out) {
    sys.matrix.matvec(in, out);
  };
  std::vector<double> x(sys.rhs.size(), 0.0);
  const auto stats =
      solver::minres(*comm_, op, &precond, sys.rhs, x, opt_.minres_max_iter, opt_.minres_rtol);
  minres_iterations_ += stats.iterations;
  t_vcycle_ += stats.seconds_in_precond;
  extract_corner_velocities(x, sys.dof_offsets);
  t_solve_ += par::thread_cpu_seconds() - t0 - stats.seconds_in_precond;
}

void MantleSimulation::dynamic_adapt() {
  const double t0 = par::thread_cpu_seconds();
  using Oct = forest::Octant<2>;
  const auto geom = sfem::annulus_map(opt_.ntrees);
  constexpr double root = static_cast<double>(Oct::root_len);

  // Per-leaf strain-rate indicator keyed by (tree, key, level).
  std::map<std::pair<int, std::uint64_t>, double> eps;
  {
    std::size_t e = 0;
    forest_->for_each_local([&](int t, const Oct& o) {
      eps[{t, o.key() ^ static_cast<std::uint64_t>(o.level) << 58}] = elem_eps_[e];
      ++e;
    });
  }
  const auto key_of = [](const Oct& o) {
    return o.key() ^ static_cast<std::uint64_t>(o.level) << 58;
  };
  const auto plate_elem = [&](int t, const Oct& o) {
    for (int c = 0; c < 4; ++c) {
      const auto cp = o.corner_point(c);
      const auto x = geom(t, {cp[0] / root, cp[1] / root});
      if (in_plate_zone(opt_.rheology, theta_of(x), radius_of(x))) return true;
    }
    return false;
  };

  std::vector<std::vector<Oct>> old_trees;
  for (int t = 0; t < forest_->num_trees(); ++t) old_trees.push_back(forest_->tree(t));

  forest_->refine(opt_.max_level, false, [&](int t, const Oct& o) {
    const auto it = eps.find({t, key_of(o)});
    return it != eps.end() && it->second > opt_.strain_refine_tol;
  });
  forest_->coarsen(false, [&](int t, const Oct& parent) {
    if (parent.level < opt_.base_level || plate_elem(t, parent)) return false;
    for (int c = 0; c < 4; ++c) {
      const auto it = eps.find({t, key_of(parent.child(c))});
      if (it == eps.end() || it->second > opt_.strain_coarsen_tol) return false;
    }
    return true;
  });
  forest_->balance();

  // Transfer the lagged corner velocities (degree-1 nodal blobs) and
  // repartition with them.
  static const sfem::Basis1d q1 = sfem::Basis1d::make(1);
  corner_vel_ = sfem::transfer_fields<2>(old_trees, *forest_, corner_vel_, 2, q1);
  forest_->partition_payload(nullptr, 8, corner_vel_);
  rebuild_space();
  t_amr_ += par::thread_cpu_seconds() - t0;
}

void MantleSimulation::run() {
  std::unique_ptr<resil::CheckpointRing> ring;
  std::uint64_t conn_id = 0;
  int k0 = 0;
  bool restored = false;
  if (opt_.checkpoint_every > 0) {
    conn_id = resil::connectivity_id(conn_);
    ring = std::make_unique<resil::CheckpointRing>(opt_.checkpoint_dir, opt_.checkpoint_keep);
    if (resil::ring_probe(*comm_, *ring)) {
      auto r = resil::restore_latest_chain<2>(*comm_, conn_, conn_id, *ring);
      forest_ = std::make_unique<forest::Forest<2>>(std::move(r.forest));
      // Both the lagged velocity and the stale strain rate must come back:
      // dynamic_adapt at iteration k+1 consumes the elem_eps_ computed at the
      // start of iteration k, not one derived from the updated corner_vel_.
      for (auto& f : r.fields) {
        if (f.name == "corner_vel") corner_vel_ = std::move(f.data);
        if (f.name == "strain_rate") elem_eps_ = std::move(f.data);
      }
      rebuild_space();
      k0 = static_cast<int>(r.step) + 1;
      restored = true;
      if (recovery_ != nullptr && comm_->rank() == 0) recovery_->record_restore(r.bytes_read);
    }
  }
  if (!restored) static_adapt();
  for (int k = k0; k < opt_.picard_iterations; ++k) {
    if (k > 0 && opt_.adapt_every > 0 && k % opt_.adapt_every == 0) dynamic_adapt();
    picard_iteration(k);
    if (recovery_ != nullptr && comm_->rank() == 0) recovery_->note_step();
    if (ring && (k + 1) % opt_.checkpoint_every == 0) {
      std::vector<resil::NamedField> fields(2);
      fields[0] = {"corner_vel", 8, corner_vel_};
      fields[1] = {"strain_rate", 1, elem_eps_};
      resil::write_checkpoint_ring(*forest_, conn_id, static_cast<std::uint64_t>(k), fields,
                                   *ring);
    }
  }
}

}  // namespace esamr::apps
