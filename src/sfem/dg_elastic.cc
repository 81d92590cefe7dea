#include "sfem/dg_elastic.h"

#include <algorithm>
#include <cmath>

namespace esamr::sfem {

namespace {

/// Voigt index of the symmetric pair (i, j).
template <int Dim>
constexpr int voigt(int i, int j) {
  if constexpr (Dim == 2) {
    if (i == j) return i;
    return 2;
  } else {
    if (i == j) return i;
    const int s = i + j;  // (1,2)->3, (0,2)->4, (0,1)->5
    return s == 3 ? 3 : (s == 2 ? 4 : 5);
  }
}

}  // namespace

template <int Dim, typename Real>
ElasticWave<Dim, Real>::ElasticWave(
    const DgMesh<Dim>* mesh, const std::function<Material(const std::array<double, 3>&)>& material,
    Boundary boundary)
    : mesh_(mesh), boundary_(boundary) {
  constexpr int nfaces = DgMesh<Dim>::nfaces;
  const double t0 = par::thread_cpu_seconds();
  const int nv = mesh_->nv, npf = mesh_->npf;
  const auto n = static_cast<std::size_t>(mesh_->n_local);

  // Precision-converted geometry tables (the "device transfer" of Fig. 10).
  const auto convert = [](const std::vector<double>& src, std::vector<Real>& dst) {
    dst.resize(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = static_cast<Real>(src[i]);
  };
  convert(mesh_->jinv, jinv_);
  convert(mesh_->jdet, jdet_);
  convert(mesh_->mass, mass_);
  convert(mesh_->fsj, fsj_);
  convert(mesh_->fnormal, fnormal_);
  convert(mesh_->basis.diff, diff_);
  convert(mesh_->face_weights, wf_);
  for (int c = 0; c < 2; ++c) {
    convert(mesh_->basis.interp_half[c], interp_half_[c]);
    convert(mesh_->basis.interp_half_t[c], interp_half_t_[c]);
  }

  // Material sampling at the element nodes (double), then exchange the halo
  // and convert. Ghost tables are appended behind the local ones. The wave
  // speed bound is global, so stable_dt does not depend on the partition.
  std::vector<double> mat(n * static_cast<std::size_t>(nv) * 3);
  for (std::size_t i = 0; i < n * static_cast<std::size_t>(nv); ++i) {
    const Material m = material({mesh_->coords[i * 3], mesh_->coords[i * 3 + 1],
                                 mesh_->coords[i * 3 + 2]});
    mat[i * 3] = m.rho;
    mat[i * 3 + 1] = m.lambda;
    mat[i * 3 + 2] = m.mu;
    const double cp = std::sqrt((m.lambda + 2.0 * m.mu) / m.rho);
    max_speed_ = std::max(max_speed_, cp);
  }
  par::Comm& comm = mesh_->forest->comm();
  max_speed_ = comm.allreduce(max_speed_, par::ReduceOp::max);
  const auto ghost_mat = mesh_->ghost->exchange(comm, std::span<const double>(mat), nv * 3);
  const std::size_t ntot = n + ghost_mat.size() / (static_cast<std::size_t>(nv) * 3);
  rho_.resize(ntot * static_cast<std::size_t>(nv));
  lambda_.resize(ntot * static_cast<std::size_t>(nv));
  mu_.resize(ntot * static_cast<std::size_t>(nv));
  zp_.resize(ntot * static_cast<std::size_t>(nv));
  zs_.resize(ntot * static_cast<std::size_t>(nv));
  const auto fill = [&](std::size_t dst, const double* src) {
    const double rho = src[0], lambda = src[1], mu = src[2];
    rho_[dst] = static_cast<Real>(rho);
    lambda_[dst] = static_cast<Real>(lambda);
    mu_[dst] = static_cast<Real>(mu);
    zp_[dst] = static_cast<Real>(std::sqrt((lambda + 2.0 * mu) * rho));
    zs_[dst] = static_cast<Real>(std::sqrt(mu * rho));
  };
  for (std::size_t i = 0; i < n * static_cast<std::size_t>(nv); ++i) fill(i, &mat[i * 3]);
  for (std::size_t i = 0; i < ghost_mat.size() / 3; ++i) {
    fill(n * static_cast<std::size_t>(nv) + i, &ghost_mat[i * 3]);
  }

  // Mortar geometry in the kernel precision: my impedances, sJ and the
  // renormalized normal on the subfaces of every fine face.
  const Real* const half[2] = {interp_half_[0].data(), interp_half_[1].data()};
  const std::size_t nfn = n * nfaces * static_cast<std::size_t>(npf);
  std::vector<Real> zpf(nfn), zsf(nfn);
  std::array<std::vector<Real>, 3> nf;
  for (auto& comp : nf) comp.resize(nfn);
  std::size_t fb = 0;
  for (std::size_t e = 0; e < n; ++e) {
    for (const auto& fni : mesh_->face_nodes) {
      for (const int node : fni) {
        zpf[fb] = zp_[e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node)];
        zsf[fb] = zs_[e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node)];
        for (std::size_t d = 0; d < 3; ++d) nf[d][fb] = fnormal_[fb * 3 + d];
        ++fb;
      }
    }
  }
  sub_zp_ = mesh_->on_subfaces(zpf, half);
  sub_zs_ = mesh_->on_subfaces(zsf, half);
  sub_sj_ = mesh_->on_subfaces(fsj_, half);
  for (auto& comp : nf) comp = mesh_->on_subfaces(comp, half);
  sub_nrm_.resize(sub_sj_.size() * 3);
  for (std::size_t i = 0; i < sub_sj_.size(); ++i) {
    const Real nx = nf[0][i], ny = nf[1][i], nz = nf[2][i];
    const Real len = std::sqrt(nx * nx + ny * ny + nz * nz);
    sub_nrm_[i * 3] = nx / len;
    sub_nrm_[i * 3 + 1] = ny / len;
    sub_nrm_[i * 3 + 2] = nz / len;
  }
  transfer_seconds_ = par::thread_cpu_seconds() - t0;
}

template <int Dim, typename Real>
void ElasticWave<Dim, Real>::rhs(std::span<const Real> q, std::span<Real> out) const {
  constexpr int nfaces = DgMesh<Dim>::nfaces, nsub = DgMesh<Dim>::nsub;
  const int np = mesh_->np, nv = mesh_->nv, npf = mesh_->npf;
  const auto n = static_cast<std::size_t>(mesh_->n_local);
  std::vector<Real> ghost_q;  // the halo, once the exchange has finished

  // Node-wise material of a (local or ghost) element.
  const auto mat_base = [&](std::int32_t elem, bool is_ghost) {
    return (is_ghost ? n + static_cast<std::size_t>(elem) : static_cast<std::size_t>(elem)) *
           static_cast<std::size_t>(nv);
  };
  const auto q_base = [&](std::int32_t elem, bool is_ghost) -> const Real* {
    return is_ghost ? ghost_q.data() + static_cast<std::size_t>(elem) * ncomp * nv
                    : q.data() + static_cast<std::size_t>(elem) * ncomp * nv;
  };

  // Stress components of one element at one node.
  const auto stress_at = [&](const Real* qe, std::size_t matb, int node, Real* sig) {
    Real tr = 0;
    for (int i = 0; i < Dim; ++i) tr += qe[(Dim + voigt<Dim>(i, i)) * nv + node];
    const Real lam = lambda_[matb + static_cast<std::size_t>(node)];
    const Real mu2 = Real(2) * mu_[matb + static_cast<std::size_t>(node)];
    for (int s = 0; s < nstrain; ++s) sig[s] = mu2 * qe[(Dim + s) * nv + node];
    for (int i = 0; i < Dim; ++i) sig[voigt<Dim>(i, i)] += lam * tr;
  };

  // Scratch shared by every element; the element loop does not allocate.
  const auto npf_n = [&](int k) { return std::vector<Real>(static_cast<std::size_t>(k) * npf); };
  std::vector<Real> dref(static_cast<std::size_t>(nv));
  std::vector<Real> sigma(static_cast<std::size_t>(nstrain) * nv);
  std::vector<Real> grads(static_cast<std::size_t>(Dim + nstrain) * Dim * nv);
  // My (m) and the neighbor's (p) face states: velocity, traction, impedances.
  auto vm = npf_n(Dim), tm = npf_n(Dim), vp = npf_n(Dim), tp = npf_n(Dim);
  auto zpm = npf_n(1), zsm = npf_n(1), zpp = npf_n(1), zsp = npf_n(1);
  auto tmp = npf_n(1), tmp2 = npf_n(1), liftv = npf_n(ncomp);
  // Fine faces: my velocity and traction on one subface, the lifted sum.
  auto vs = npf_n(Dim), ts = npf_n(Dim), acc = npf_n(ncomp);
  const Real* const half[2] = {interp_half_[0].data(), interp_half_[1].data()};
  const Real* const half_t[2] = {interp_half_t_[0].data(), interp_half_t_[1].data()};

  const auto element = [&](std::size_t e) {
    const Real* qe = q.data() + e * static_cast<std::size_t>(ncomp) * nv;
    Real* oe = out.data() + e * static_cast<std::size_t>(ncomp) * nv;
    const std::size_t matb = e * static_cast<std::size_t>(nv);
    const std::size_t jb = e * static_cast<std::size_t>(nv);

    // Stress at nodes.
    for (int node = 0; node < nv; ++node) {
      Real sig[nstrain];
      stress_at(qe, matb, node, sig);
      for (int s = 0; s < nstrain; ++s) sigma[static_cast<std::size_t>(s * nv + node)] = sig[s];
    }
    // Physical gradients of v (fields 0..Dim-1) and sigma (Dim..Dim+nstrain-1)
    // via the Real-precision differentiation sweep.
    for (int fidx = 0; fidx < Dim + nstrain; ++fidx) {
      const Real* src = fidx < Dim ? qe + static_cast<std::size_t>(fidx) * nv
                                   : sigma.data() + static_cast<std::size_t>(fidx - Dim) * nv;
      Real* g = grads.data() + static_cast<std::size_t>(fidx) * Dim * nv;
      std::fill(g, g + static_cast<std::size_t>(Dim) * nv, Real(0));
      for (int a = 0; a < Dim; ++a) {
        apply_axis(Dim, np, a, diff_.data(), src, dref.data());  // dref = D_a src
        for (int node = 0; node < nv; ++node) {
          for (int d = 0; d < Dim; ++d) {
            g[d * nv + node] += jinv_[((jb + static_cast<std::size_t>(node)) * Dim +
                                       static_cast<std::size_t>(a)) *
                                          Dim +
                                      static_cast<std::size_t>(d)] *
                                dref[static_cast<std::size_t>(node)];
          }
        }
      }
    }

    // Volume terms.
    for (int node = 0; node < nv; ++node) {
      const Real inv_rho = Real(1) / rho_[matb + static_cast<std::size_t>(node)];
      for (int i = 0; i < Dim; ++i) {
        Real div = 0;
        for (int j = 0; j < Dim; ++j) {
          div += grads[(static_cast<std::size_t>(Dim + voigt<Dim>(i, j)) * Dim +
                        static_cast<std::size_t>(j)) *
                           nv +
                       static_cast<std::size_t>(node)];
        }
        oe[i * nv + node] = inv_rho * div;
      }
      for (int i = 0; i < Dim; ++i) {
        for (int j = i; j < Dim; ++j) {
          const Real gij = grads[(static_cast<std::size_t>(i) * Dim + static_cast<std::size_t>(j)) * nv +
                                 static_cast<std::size_t>(node)];
          const Real gji = grads[(static_cast<std::size_t>(j) * Dim + static_cast<std::size_t>(i)) * nv +
                                 static_cast<std::size_t>(node)];
          oe[(Dim + voigt<Dim>(i, j)) * nv + node] = Real(0.5) * (gij + gji);
        }
      }
    }

    // Face terms.
    for (int f = 0; f < nfaces; ++f) {
      const auto& side = mesh_->face(static_cast<std::int64_t>(e), f);
      const auto& fni = mesh_->face_nodes[static_cast<std::size_t>(f)];
      const std::size_t fb0 =
          (e * nfaces + static_cast<std::size_t>(f)) * static_cast<std::size_t>(npf);
      // My face normal and surface Jacobian.
      const Real* nrm = fnormal_.data() + fb0 * 3;
      const Real* sj = fsj_.data() + fb0;

      // My face data.
      for (int qq = 0; qq < npf; ++qq) {
        const int node = fni[static_cast<std::size_t>(qq)];
        Real sig[nstrain];
        stress_at(qe, matb, node, sig);
        for (int i = 0; i < Dim; ++i) {
          vm[static_cast<std::size_t>(i * npf + qq)] = qe[i * nv + node];
          Real ti = 0;
          for (int j = 0; j < Dim; ++j) ti += sig[voigt<Dim>(i, j)] * nrm[qq * 3 + j];
          tm[static_cast<std::size_t>(i * npf + qq)] = ti;
        }
        zpm[static_cast<std::size_t>(qq)] = zp_[matb + static_cast<std::size_t>(node)];
        zsm[static_cast<std::size_t>(qq)] = zs_[matb + static_cast<std::size_t>(node)];
      }

      // Neighbor face data for a given slot, aligned to my face enumeration
      // (or, for `fine`, to my subface enumeration); tractions along `nq`.
      const auto fetch_plus = [&](int slot, const Real* nq) {
        const Real* qn = q_base(side.nbr[static_cast<std::size_t>(slot)],
                                side.nbr_ghost[static_cast<std::size_t>(slot)] != 0);
        const std::size_t mb = mat_base(side.nbr[static_cast<std::size_t>(slot)],
                                        side.nbr_ghost[static_cast<std::size_t>(slot)] != 0);
        const auto& nfni = mesh_->face_nodes[static_cast<std::size_t>(side.nbr_face)];
        const std::int32_t* map = mesh_->node_map(side);
        for (int qq = 0; qq < npf; ++qq) {
          const int nn = nfni[static_cast<std::size_t>(map[qq])];
          Real sig[nstrain];
          stress_at(qn, mb, nn, sig);
          for (int i = 0; i < Dim; ++i) {
            vp[static_cast<std::size_t>(i * npf + qq)] = qn[i * nv + nn];
            Real ti = 0;
            for (int j = 0; j < Dim; ++j) ti += sig[voigt<Dim>(i, j)] * nq[qq * 3 + j];
            tp[static_cast<std::size_t>(i * npf + qq)] = ti;
          }
          zpp[static_cast<std::size_t>(qq)] = zp_[mb + static_cast<std::size_t>(nn)];
          zsp[static_cast<std::size_t>(qq)] = zs_[mb + static_cast<std::size_t>(nn)];
        }
      };

      // Riemann corrections at one quadrature set: my velocity v, traction
      // t and impedances zp/zs, the normal and sJ there, against vp..zsp;
      // writes the lifted contributions (velocity and strain corrections
      // scaled by w*sJ) into liftv.
      const auto riemann = [&](const Real* v, const Real* t, const Real* zpq, const Real* zsq,
                               const Real* nrmq, const Real* sjq, Real scale) {
        for (int qq = 0; qq < npf; ++qq) {
          const Real* nq = nrmq + qq * 3;
          Real vnm = 0, vnp = 0, tnm = 0, tnp = 0;
          for (int i = 0; i < Dim; ++i) {
            vnm += v[i * npf + qq] * nq[i];
            vnp += vp[static_cast<std::size_t>(i * npf + qq)] * nq[i];
            tnm += t[i * npf + qq] * nq[i];
            tnp += tp[static_cast<std::size_t>(i * npf + qq)] * nq[i];
          }
          // Exact interface (Godunov) states: the left-moving wave into my
          // medium carries jumps along (1, +Z), the right-moving wave into
          // the neighbor along (1, -Z):
          //   v* = [Z- v- + Z+ v+ + (t+ - t-)] / (Z- + Z+)
          //   t* = [Z+ t- + Z- t+ + Z- Z+ (v+ - v-)] / (Z- + Z+)
          const Real zm = zpq[qq], zp = zpp[static_cast<std::size_t>(qq)];
          const Real dp = zm + zp;
          const Real vsn = (zm * vnm + zp * vnp + (tnp - tnm)) / dp;
          const Real tsn = (zp * tnm + zm * tnp + zm * zp * (vnp - vnm)) / dp;
          const Real sm = zsq[qq], sp = zsp[static_cast<std::size_t>(qq)];
          const Real ds = sm + sp;
          Real vst[3] = {0, 0, 0}, tst[3] = {0, 0, 0};
          for (int i = 0; i < Dim; ++i) {
            const Real vtm = v[i * npf + qq] - vnm * nq[i];
            const Real vtp = vp[static_cast<std::size_t>(i * npf + qq)] - vnp * nq[i];
            const Real ttm = t[i * npf + qq] - tnm * nq[i];
            const Real ttp = tp[static_cast<std::size_t>(i * npf + qq)] - tnp * nq[i];
            if (ds > Real(0)) {
              vst[i] = (sm * vtm + sp * vtp + (ttp - ttm)) / ds;
              tst[i] = (sp * ttm + sm * ttp + sm * sp * (vtp - vtm)) / ds;
            } else {
              vst[i] = vtm;
              tst[i] = 0;
            }
          }
          const Real wsj = wf_[static_cast<std::size_t>(qq)] * sjq[qq] * scale;
          for (int i = 0; i < Dim; ++i) {
            const Real vstar = vst[i] + vsn * nq[i];
            const Real tstar = tst[i] + tsn * nq[i];
            const Real dv = tstar - t[i * npf + qq];
            liftv[static_cast<std::size_t>(i * npf + qq)] = dv * wsj;
            // Strain correction (v* - v-) symmetrized with n.
            const Real dvel = vstar - v[i * npf + qq];
            for (int j = i; j < Dim; ++j) {
              const Real dvj = (vst[j] + vsn * nq[j]) - v[j * npf + qq];
              liftv[static_cast<std::size_t>((Dim + voigt<Dim>(i, j)) * npf + qq)] =
                  Real(0.5) * (dvel * nq[j] + dvj * nq[i]) * wsj;
            }
          }
        }
      };

      const Real* lift = liftv.data();
      if (side.kind == DgMesh<Dim>::FaceKind::boundary) {
        // Mirror ghost states.
        for (int qq = 0; qq < npf; ++qq) {
          zpp[static_cast<std::size_t>(qq)] = zpm[static_cast<std::size_t>(qq)];
          zsp[static_cast<std::size_t>(qq)] = zsm[static_cast<std::size_t>(qq)];
          for (int i = 0; i < Dim; ++i) {
            const auto k = static_cast<std::size_t>(i * npf + qq);
            if (boundary_ == Boundary::free_surface) {
              vp[k] = vm[k];
              tp[k] = -tm[k];
            } else {
              vp[k] = -vm[k];
              tp[k] = tm[k];
            }
          }
        }
        riemann(vm.data(), tm.data(), zpm.data(), zsm.data(), nrm, sj, Real(1));
      } else if (side.kind == DgMesh<Dim>::FaceKind::same) {
        fetch_plus(0, nrm);
        riemann(vm.data(), tm.data(), zpm.data(), zsm.data(), nrm, sj, Real(1));
      } else if (side.kind == DgMesh<Dim>::FaceKind::coarse) {
        // Interpolate the neighbor's full face to my quadrant after the
        // orientation alignment; my own data stays at my face nodes.
        fetch_plus(0, nrm);
        const int bits = side.half_bits;
        for (int i = 0; i < Dim; ++i) {
          face_sweep(Dim, np, half, bits, &vp[static_cast<std::size_t>(i * npf)], tmp.data());
          face_sweep(Dim, np, half, bits, &tp[static_cast<std::size_t>(i * npf)], tmp.data());
        }
        face_sweep(Dim, np, half, bits, zpp.data(), tmp.data());
        face_sweep(Dim, np, half, bits, zsp.data(), tmp.data());
        riemann(vm.data(), tm.data(), zpm.data(), zsm.data(), nrm, sj, Real(1));
      } else {
        // fine: integrate each subface at the fine resolution against the
        // precomputed subface impedances, normal and sJ, and lift back.
        std::fill(acc.begin(), acc.end(), Real(0));
        const Real scale = Dim == 3 ? Real(0.25) : Real(0.5);
        for (int s = 0; s < nsub; ++s) {
          std::copy(vm.begin(), vm.end(), vs.begin());
          std::copy(tm.begin(), tm.end(), ts.begin());
          for (int i = 0; i < Dim; ++i) {
            face_sweep(Dim, np, half, s, &vs[static_cast<std::size_t>(i * npf)], tmp.data());
            face_sweep(Dim, np, half, s, &ts[static_cast<std::size_t>(i * npf)], tmp.data());
          }
          const std::size_t sb =
              (static_cast<std::size_t>(side.fine) * nsub + static_cast<std::size_t>(s)) *
              static_cast<std::size_t>(npf);
          const Real* nsub_q = sub_nrm_.data() + sb * 3;
          fetch_plus(s, nsub_q);
          riemann(vs.data(), ts.data(), sub_zp_.data() + sb, sub_zs_.data() + sb, nsub_q,
                  sub_sj_.data() + sb, scale);
          // Lift through the transposed interpolation and accumulate.
          for (int comp = 0; comp < ncomp; ++comp) {
            std::copy_n(&liftv[static_cast<std::size_t>(comp * npf)], npf, tmp2.begin());
            face_sweep(Dim, np, half_t, s, tmp2.data(), tmp.data());
            for (int qq = 0; qq < npf; ++qq) {
              acc[static_cast<std::size_t>(comp * npf + qq)] += tmp2[static_cast<std::size_t>(qq)];
            }
          }
        }
        lift = acc.data();
      }

      // Apply the lifted corrections: velocity scaled by 1/rho.
      for (int qq = 0; qq < npf; ++qq) {
        const int node = fni[static_cast<std::size_t>(qq)];
        const Real im = Real(1) / mass_[jb + static_cast<std::size_t>(node)];
        const Real inv_rho = Real(1) / rho_[matb + static_cast<std::size_t>(node)];
        for (int i = 0; i < Dim; ++i) oe[i * nv + node] += inv_rho * lift[i * npf + qq] * im;
        for (int s = 0; s < nstrain; ++s) {
          oe[(Dim + s) * nv + node] += lift[(Dim + s) * npf + qq] * im;
        }
      }
    }
  };
  mesh_->overlapped(q, ncomp * nv, ghost_q, element);
}

template <int Dim, typename Real>
void ElasticWave<Dim, Real>::step(std::vector<Real>& q, double dt) const {
  lsrk54_step(q, dt, [this](std::span<const Real> in, std::span<Real> k) { rhs(in, k); });
}

template <int Dim, typename Real>
double ElasticWave<Dim, Real>::stable_dt(double cfl) const {
  double dt = 1e300;
  const double nn = std::max(1, mesh_->degree * mesh_->degree);
  for (std::size_t e = 0; e < static_cast<std::size_t>(mesh_->n_local); ++e) {
    dt = std::min(dt, cfl * mesh_->hmin[e] / (max_speed_ * nn));
  }
  return mesh_->forest->comm().allreduce(dt, par::ReduceOp::min);
}

template <int Dim, typename Real>
double ElasticWave<Dim, Real>::energy(std::span<const Real> q) const {
  const int nv = mesh_->nv;
  double acc = 0.0;
  for (std::size_t e = 0; e < static_cast<std::size_t>(mesh_->n_local); ++e) {
    const Real* qe = q.data() + e * static_cast<std::size_t>(ncomp) * nv;
    for (int node = 0; node < nv; ++node) {
      const std::size_t nb = e * static_cast<std::size_t>(nv) + static_cast<std::size_t>(node);
      double kin = 0.0, tr = 0.0, ee = 0.0;
      for (int i = 0; i < Dim; ++i) {
        kin += static_cast<double>(qe[i * nv + node]) * qe[i * nv + node];
        tr += qe[(Dim + voigt<Dim>(i, i)) * nv + node];
      }
      for (int i = 0; i < Dim; ++i) {
        for (int j = 0; j < Dim; ++j) {
          const double v = qe[(Dim + voigt<Dim>(i, j)) * nv + node];
          ee += v * v;
        }
      }
      acc += mesh_->mass[nb] * (0.5 * rho_[nb] * kin + mu_[nb] * ee +
                                0.5 * lambda_[nb] * tr * tr);
    }
  }
  return mesh_->forest->comm().allreduce(acc, par::ReduceOp::sum);
}

template class ElasticWave<2, double>;
template class ElasticWave<3, double>;
template class ElasticWave<2, float>;
template class ElasticWave<3, float>;

}  // namespace esamr::sfem
