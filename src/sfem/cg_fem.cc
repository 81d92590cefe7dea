#include "sfem/cg_fem.h"

#include <algorithm>
#include <cmath>

namespace esamr::sfem {

namespace {

using solver::Triple;

/// Q1 shape values and reference gradients at xi in [0,1]^Dim.
template <int Dim>
void q1_shape(const std::array<double, Dim>& xi, double* n, double* dn /* [nc][Dim] */) {
  constexpr int nc = forest::Topo<Dim>::num_corners;
  for (int c = 0; c < nc; ++c) {
    double v = 1.0;
    for (int a = 0; a < Dim; ++a) {
      v *= ((c >> a) & 1) ? xi[static_cast<std::size_t>(a)] : 1.0 - xi[static_cast<std::size_t>(a)];
    }
    n[c] = v;
    for (int a = 0; a < Dim; ++a) {
      double d = ((c >> a) & 1) ? 1.0 : -1.0;
      for (int a2 = 0; a2 < Dim; ++a2) {
        if (a2 == a) continue;
        d *= ((c >> a2) & 1) ? xi[static_cast<std::size_t>(a2)] : 1.0 - xi[static_cast<std::size_t>(a2)];
      }
      dn[c * Dim + a] = d;
    }
  }
}

/// Gauss points/weights on [0,1], two per axis (exact for Q1 stiffness on
/// affine cells, standard for isoparametric Q1).
constexpr double kGp[2] = {0.5 - 0.28867513459481287, 0.5 + 0.28867513459481287};

/// Per-quadrature-point geometry of one element.
template <int Dim>
struct QPoint {
  std::array<double, 3> x;           // physical position
  double detw;                       // det(J) * weight
  double n[forest::Topo<Dim>::num_corners];
  double grad[forest::Topo<Dim>::num_corners][Dim];  // physical gradients
};

template <int Dim>
std::vector<QPoint<Dim>> element_qpoints(
    const std::array<std::array<double, 3>, forest::Topo<Dim>::num_corners>& xc) {
  constexpr int nc = forest::Topo<Dim>::num_corners;
  constexpr int nq = 1 << Dim;
  std::vector<QPoint<Dim>> qps;
  qps.reserve(nq);
  for (int q = 0; q < nq; ++q) {
    std::array<double, Dim> xi{};
    for (int a = 0; a < Dim; ++a) xi[static_cast<std::size_t>(a)] = kGp[(q >> a) & 1];
    QPoint<Dim> qp{};
    double dn[nc * Dim];
    q1_shape<Dim>(xi, qp.n, dn);
    double jm[Dim][Dim] = {};
    for (int c = 0; c < nc; ++c) {
      for (int d = 0; d < 3; ++d) {
        qp.x[static_cast<std::size_t>(d)] += qp.n[c] * xc[static_cast<std::size_t>(c)][static_cast<std::size_t>(d)];
      }
      for (int d = 0; d < Dim; ++d) {
        for (int a = 0; a < Dim; ++a) {
          jm[d][a] += dn[c * Dim + a] * xc[static_cast<std::size_t>(c)][static_cast<std::size_t>(d)];
        }
      }
    }
    double det, inv[Dim][Dim];
    if constexpr (Dim == 2) {
      det = jm[0][0] * jm[1][1] - jm[0][1] * jm[1][0];
      inv[0][0] = jm[1][1] / det;
      inv[0][1] = -jm[0][1] / det;
      inv[1][0] = -jm[1][0] / det;
      inv[1][1] = jm[0][0] / det;
    } else {
      det = jm[0][0] * (jm[1][1] * jm[2][2] - jm[1][2] * jm[2][1]) -
            jm[0][1] * (jm[1][0] * jm[2][2] - jm[1][2] * jm[2][0]) +
            jm[0][2] * (jm[1][0] * jm[2][1] - jm[1][1] * jm[2][0]);
      inv[0][0] = (jm[1][1] * jm[2][2] - jm[1][2] * jm[2][1]) / det;
      inv[0][1] = (jm[0][2] * jm[2][1] - jm[0][1] * jm[2][2]) / det;
      inv[0][2] = (jm[0][1] * jm[1][2] - jm[0][2] * jm[1][1]) / det;
      inv[1][0] = (jm[1][2] * jm[2][0] - jm[1][0] * jm[2][2]) / det;
      inv[1][1] = (jm[0][0] * jm[2][2] - jm[0][2] * jm[2][0]) / det;
      inv[1][2] = (jm[0][2] * jm[1][0] - jm[0][0] * jm[1][2]) / det;
      inv[2][0] = (jm[1][0] * jm[2][1] - jm[1][1] * jm[2][0]) / det;
      inv[2][1] = (jm[0][1] * jm[2][0] - jm[0][0] * jm[2][1]) / det;
      inv[2][2] = (jm[0][0] * jm[1][1] - jm[0][1] * jm[1][0]) / det;
    }
    // Weight: Gauss weights on [0,1] are 1/2 per axis.
    qp.detw = det / (1 << Dim);
    for (int c = 0; c < nc; ++c) {
      for (int d = 0; d < Dim; ++d) {
        double gsum = 0.0;
        for (int a = 0; a < Dim; ++a) gsum += inv[a][d] * dn[c * Dim + a];
        qp.grad[c][d] = gsum;
      }
    }
    qps.push_back(qp);
  }
  return qps;
}

/// Route (gid, value) pairs to the owners and accumulate into an owned
/// vector of size offsets[me+1]-offsets[me].
std::vector<double> assemble_vector(par::Comm& comm, const std::vector<std::int64_t>& offsets,
                                    const std::vector<std::pair<std::int64_t, double>>& pairs) {
  const int p = comm.size();
  const int me = comm.rank();
  struct Entry {
    std::int64_t gid;
    double v;
  };
  std::vector<std::vector<Entry>> send(static_cast<std::size_t>(p));
  const auto owner_of = [&](std::int64_t gid) {
    return static_cast<int>(std::upper_bound(offsets.begin(), offsets.end(), gid) -
                            offsets.begin()) - 1;
  };
  for (const auto& [gid, v] : pairs) {
    send[static_cast<std::size_t>(owner_of(gid))].push_back(Entry{gid, v});
  }
  const auto recv = comm.alltoallv(send);
  std::vector<double> out(
      static_cast<std::size_t>(offsets[static_cast<std::size_t>(me) + 1] -
                               offsets[static_cast<std::size_t>(me)]),
      0.0);
  for (const auto& from : recv) {
    for (const Entry& e : from) {
      out[static_cast<std::size_t>(e.gid - offsets[static_cast<std::size_t>(me)])] += e.v;
    }
  }
  return out;
}

}  // namespace

template <int Dim>
CgSpace<Dim> CgSpace<Dim>::build(const forest::Forest<Dim>& f,
                                 const forest::NodeNumbering<Dim>& n, GeomFn<Dim> geom) {
  CgSpace space;
  space.forest = &f;
  space.nodes = &n;
  space.geom = std::move(geom);
  constexpr double root = static_cast<double>(forest::Octant<Dim>::root_len);

  std::vector<std::int64_t> bdry;
  std::size_t e = 0;
  space.corners.resize(static_cast<std::size_t>(f.num_local()));
  f.for_each_local([&](int t, const forest::Octant<Dim>& o) {
    for (int c = 0; c < nc; ++c) {
      const auto cp = o.corner_point(c);
      std::array<double, Dim> ref{};
      for (int a = 0; a < Dim; ++a) ref[static_cast<std::size_t>(a)] = cp[static_cast<std::size_t>(a)] / root;
      space.corners[e][static_cast<std::size_t>(c)] = space.geom(t, ref);
    }
    // Dirichlet nodes: slots on element faces that lie on the physical
    // domain boundary (a hanging slot expands onto boundary masters).
    for (int fc = 0; fc < forest::Topo<Dim>::num_faces; ++fc) {
      if (!o.touches_root_face(fc)) continue;
      if (f.conn().face_connection(t, fc).tree >= 0) continue;
      for (int i = 0; i < forest::Topo<Dim>::corners_per_face; ++i) {
        const int c = forest::Topo<Dim>::face_corners[fc][i];
        for (const auto& contrib : n.slot(e, c)) {
          bdry.push_back(contrib.gid);
        }
      }
    }
    ++e;
  });
  // Replicate the union so every rank skips the same rows/columns.
  for (const auto& from : f.comm().allgatherv(bdry)) {
    space.boundary_gids.insert(space.boundary_gids.end(), from.begin(), from.end());
  }
  std::sort(space.boundary_gids.begin(), space.boundary_gids.end());
  space.boundary_gids.erase(std::unique(space.boundary_gids.begin(), space.boundary_gids.end()),
                            space.boundary_gids.end());
  return space;
}

template <int Dim>
std::vector<std::array<double, 3>> CgSpace<Dim>::owned_positions() const {
  std::vector<std::array<double, 3>> out;
  out.reserve(nodes->owned_keys.size());
  for (const auto& k : nodes->owned_keys) out.push_back(position(k));
  return out;
}

template <int Dim>
solver::DistCsr assemble_poisson(const CgSpace<Dim>& space,
                                 const std::function<double(const std::array<double, 3>&)>& kappa,
                                 const std::function<double(const std::array<double, 3>&)>& f,
                                 const std::function<double(const std::array<double, 3>&)>& g,
                                 std::vector<double>& b) {
  constexpr int nc = forest::Topo<Dim>::num_corners;
  const auto& nodes = *space.nodes;
  par::Comm& comm = space.forest->comm();

  std::vector<Triple> triples;
  std::vector<std::pair<std::int64_t, double>> rhs;
  const auto n_local = static_cast<std::size_t>(space.forest->num_local());
  for (std::size_t e = 0; e < n_local; ++e) {
    double ke[nc][nc] = {};
    double fe[nc] = {};
    for (const auto& qp : element_qpoints<Dim>(space.corners[e])) {
      const double kq = kappa(qp.x) * qp.detw;
      const double fq = f(qp.x) * qp.detw;
      for (int a = 0; a < nc; ++a) {
        fe[a] += fq * qp.n[a];
        for (int bb = 0; bb < nc; ++bb) {
          double gg = 0.0;
          for (int d = 0; d < Dim; ++d) gg += qp.grad[a][d] * qp.grad[bb][d];
          ke[a][bb] += kq * gg;
        }
      }
    }
    for (int a = 0; a < nc; ++a) {
      for (const auto& ca : nodes.slot(e, a)) {
        if (space.on_boundary(ca.gid)) continue;
        rhs.emplace_back(ca.gid, ca.weight * fe[a]);
        for (int bb = 0; bb < nc; ++bb) {
          for (const auto& cb : nodes.slot(e, bb)) {
            const double v = ca.weight * cb.weight * ke[a][bb];
            if (space.on_boundary(cb.gid)) {
              rhs.emplace_back(ca.gid, -v * g(space.position_of_gid(cb.gid)));
            } else {
              triples.push_back(Triple{ca.gid, cb.gid, v});
            }
          }
        }
      }
    }
  }
  // Identity rows with boundary values, added once by the owner.
  for (std::size_t i = 0; i < nodes.owned_keys.size(); ++i) {
    const std::int64_t gid = nodes.owned_offset + static_cast<std::int64_t>(i);
    if (space.on_boundary(gid)) {
      triples.push_back(Triple{gid, gid, 1.0});
      rhs.emplace_back(gid, g(space.position(nodes.owned_keys[i])));
    }
  }
  b = assemble_vector(comm, nodes.rank_offsets, rhs);
  return solver::DistCsr::assemble(comm, nodes.rank_offsets, std::move(triples));
}

template <int Dim>
StokesSystem<Dim> assemble_stokes(
    const CgSpace<Dim>& space,
    const std::function<double(std::int64_t, const std::array<double, 3>&)>& viscosity,
    const std::function<std::array<double, 3>(const std::array<double, 3>&)>& body_force) {
  constexpr int nc = forest::Topo<Dim>::num_corners;
  constexpr int m = Dim + 1;  // dofs per node: velocities + pressure
  const auto& nodes = *space.nodes;
  par::Comm& comm = space.forest->comm();

  StokesSystem<Dim> sys;
  sys.dof_offsets.resize(nodes.rank_offsets.size());
  std::vector<std::int64_t> vel_offsets(nodes.rank_offsets.size());
  for (std::size_t r = 0; r < nodes.rank_offsets.size(); ++r) {
    sys.dof_offsets[r] = m * nodes.rank_offsets[r];
    vel_offsets[r] = Dim * nodes.rank_offsets[r];
  }
  const auto vdof = [&](std::int64_t node, int comp) { return node * m + comp; };
  const auto pdof = [&](std::int64_t node) { return node * m + Dim; };

  // The pressure constant null space: pin the pressure at global node 0.
  const std::int64_t pinned_p = pdof(0);

  std::vector<Triple> triples, vel_triples;
  std::vector<std::pair<std::int64_t, double>> rhs, pdiag;

  const auto n_local = static_cast<std::size_t>(space.forest->num_local());
  for (std::size_t e = 0; e < n_local; ++e) {
    // Element blocks.
    double a_e[nc * Dim][nc * Dim] = {};  // velocity-velocity
    double b_e[nc][nc * Dim] = {};        // pressure row x velocity col
    double m_e[nc][nc] = {};              // consistent pressure mass
    double mvec[nc] = {};                 // integrals of shape functions
    double f_e[nc * Dim] = {};
    double vol = 0.0, eta_bar = 0.0;
    int nq = 0;
    for (const auto& qp : element_qpoints<Dim>(space.corners[e])) {
      const double eta = viscosity(static_cast<std::int64_t>(e), qp.x);
      eta_bar += eta;
      ++nq;
      vol += qp.detw;
      const auto fb = body_force(qp.x);
      for (int a = 0; a < nc; ++a) {
        mvec[a] += qp.n[a] * qp.detw;
        for (int i = 0; i < Dim; ++i) {
          f_e[a * Dim + i] += fb[static_cast<std::size_t>(i)] * qp.n[a] * qp.detw;
        }
        for (int bb = 0; bb < nc; ++bb) {
          m_e[a][bb] += qp.n[a] * qp.n[bb] * qp.detw;
          double gg = 0.0;
          for (int d = 0; d < Dim; ++d) gg += qp.grad[a][d] * qp.grad[bb][d];
          for (int i = 0; i < Dim; ++i) {
            for (int j = 0; j < Dim; ++j) {
              // 2 eta eps(phi_b e_j) : eps(phi_a e_i)
              double v = eta * qp.grad[bb][i] * qp.grad[a][j];
              if (i == j) v += eta * gg;
              a_e[a * Dim + i][bb * Dim + j] += v * qp.detw;
            }
          }
          for (int j = 0; j < Dim; ++j) {
            b_e[a][bb * Dim + j] -= qp.n[a] * qp.grad[bb][j] * qp.detw;
          }
        }
      }
    }
    eta_bar = std::max(eta_bar / nq, 1e-300);

    // Dohrmann-Bochev stabilization: C = (1/eta)(M - mm^T / V).
    double c_e[nc][nc];
    for (int a = 0; a < nc; ++a) {
      for (int bb = 0; bb < nc; ++bb) {
        c_e[a][bb] = (m_e[a][bb] - mvec[a] * mvec[bb] / vol) / eta_bar;
      }
    }

    // Scatter with hanging expansions. Velocity Dirichlet: skip boundary
    // dofs (no-slip, g = 0, so no RHS correction needed).
    for (int a = 0; a < nc; ++a) {
      for (const auto& ca : nodes.slot(e, a)) {
        const bool abdry = space.on_boundary(ca.gid);
        // Pressure lumped (1/eta) mass for the preconditioner.
        pdiag.emplace_back(ca.gid, ca.weight * mvec[a] / eta_bar);
        for (int i = 0; i < Dim && !abdry; ++i) {
          rhs.emplace_back(vdof(ca.gid, i), ca.weight * f_e[a * Dim + i]);
        }
        for (int bb = 0; bb < nc; ++bb) {
          for (const auto& cb : nodes.slot(e, bb)) {
            const bool bbdry = space.on_boundary(cb.gid);
            const double w = ca.weight * cb.weight;
            // A block and the standalone velocity operator.
            if (!abdry && !bbdry) {
              for (int i = 0; i < Dim; ++i) {
                for (int j = 0; j < Dim; ++j) {
                  const double v = w * a_e[a * Dim + i][bb * Dim + j];
                  if (v != 0.0) {
                    triples.push_back(Triple{vdof(ca.gid, i), vdof(cb.gid, j), v});
                    vel_triples.push_back(Triple{ca.gid * Dim + i, cb.gid * Dim + j, v});
                  }
                }
              }
            }
            // B and B^T (pressure never Dirichlet except the pin).
            if (pdof(ca.gid) != pinned_p && !bbdry) {
              for (int j = 0; j < Dim; ++j) {
                const double v = w * b_e[a][bb * Dim + j];
                if (v != 0.0) {
                  triples.push_back(Triple{pdof(ca.gid), vdof(cb.gid, j), v});
                  triples.push_back(Triple{vdof(cb.gid, j), pdof(ca.gid), v});
                }
              }
            }
            // -C.
            if (pdof(ca.gid) != pinned_p && pdof(cb.gid) != pinned_p) {
              const double v = -w * c_e[a][bb];
              if (v != 0.0) triples.push_back(Triple{pdof(ca.gid), pdof(cb.gid), v});
            }
          }
        }
      }
    }
  }

  // Identity rows: velocity Dirichlet dofs and the pinned pressure.
  for (std::size_t i = 0; i < nodes.owned_keys.size(); ++i) {
    const std::int64_t gid = nodes.owned_offset + static_cast<std::int64_t>(i);
    if (space.on_boundary(gid)) {
      for (int c = 0; c < Dim; ++c) {
        triples.push_back(Triple{vdof(gid, c), vdof(gid, c), 1.0});
        vel_triples.push_back(Triple{gid * Dim + c, gid * Dim + c, 1.0});
      }
    }
    if (pdof(gid) == pinned_p) triples.push_back(Triple{pinned_p, pinned_p, 1.0});
  }

  sys.rhs = assemble_vector(comm, sys.dof_offsets, rhs);
  sys.pressure_diag = assemble_vector(comm, nodes.rank_offsets, pdiag);
  sys.matrix = solver::DistCsr::assemble(comm, sys.dof_offsets, std::move(triples));
  sys.velocity_block = solver::DistCsr::assemble(comm, vel_offsets, std::move(vel_triples));
  return sys;
}

std::vector<double> fetch_gid_values(par::Comm& comm, const std::vector<std::int64_t>& offsets,
                                     std::span<const double> owned,
                                     const std::vector<std::int64_t>& gids) {
  const int p = comm.size();
  const int me = comm.rank();
  const auto owner_of = [&](std::int64_t gid) {
    return static_cast<int>(std::upper_bound(offsets.begin(), offsets.end(), gid) -
                            offsets.begin()) - 1;
  };
  std::vector<std::vector<std::int64_t>> req(static_cast<std::size_t>(p));
  std::vector<std::vector<std::size_t>> slots(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < gids.size(); ++i) {
    const int r = owner_of(gids[i]);
    req[static_cast<std::size_t>(r)].push_back(gids[i]);
    slots[static_cast<std::size_t>(r)].push_back(i);
  }
  const auto wanted = comm.alltoallv(req);
  std::vector<std::vector<double>> reply(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    for (const std::int64_t gid : wanted[static_cast<std::size_t>(r)]) {
      reply[static_cast<std::size_t>(r)].push_back(
          owned[static_cast<std::size_t>(gid - offsets[static_cast<std::size_t>(me)])]);
    }
  }
  const auto got = comm.alltoallv(reply);
  std::vector<double> out(gids.size(), 0.0);
  for (int r = 0; r < p; ++r) {
    for (std::size_t k = 0; k < got[static_cast<std::size_t>(r)].size(); ++k) {
      out[slots[static_cast<std::size_t>(r)][k]] = got[static_cast<std::size_t>(r)][k];
    }
  }
  return out;
}

template struct CgSpace<2>;
template struct CgSpace<3>;
template struct StokesSystem<2>;
template struct StokesSystem<3>;

template solver::DistCsr assemble_poisson<2>(
    const CgSpace<2>&, const std::function<double(const std::array<double, 3>&)>&,
    const std::function<double(const std::array<double, 3>&)>&,
    const std::function<double(const std::array<double, 3>&)>&, std::vector<double>&);
template solver::DistCsr assemble_poisson<3>(
    const CgSpace<3>&, const std::function<double(const std::array<double, 3>&)>&,
    const std::function<double(const std::array<double, 3>&)>&,
    const std::function<double(const std::array<double, 3>&)>&, std::vector<double>&);
template StokesSystem<2> assemble_stokes<2>(
    const CgSpace<2>&, const std::function<double(std::int64_t, const std::array<double, 3>&)>&,
    const std::function<std::array<double, 3>(const std::array<double, 3>&)>&);
template StokesSystem<3> assemble_stokes<3>(
    const CgSpace<3>&, const std::function<double(std::int64_t, const std::array<double, 3>&)>&,
    const std::function<std::array<double, 3>(const std::array<double, 3>&)>&);

}  // namespace esamr::sfem
