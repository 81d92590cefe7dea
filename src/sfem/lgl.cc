#include "sfem/lgl.h"

#include <cmath>
#include <stdexcept>

namespace esamr::sfem {

double legendre(int n, double x) {
  double p0 = 1.0, p1 = x;
  if (n == 0) return p0;
  for (int k = 2; k <= n; ++k) {
    const double p2 = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
    p0 = p1;
    p1 = p2;
  }
  return p1;
}

namespace {

double legendre_deriv(int n, double x) {
  if (n == 0) return 0.0;
  // (1-x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x))
  const double num = n * (legendre(n - 1, x) - x * legendre(n, x));
  return num / (1.0 - x * x);
}

/// Barycentric weights of a node set.
std::vector<double> bary_weights(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) w[i] /= (x[i] - x[j]);
    }
  }
  return w;
}

/// Gauss-Legendre nodes/weights (exact to degree 2m-1), for the exact mass
/// integrals behind the L2 projection operators.
void gauss_rule(int m, std::vector<double>& x, std::vector<double>& w) {
  x.resize(static_cast<std::size_t>(m));
  w.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    double xi = -std::cos(M_PI * (i + 0.75) / (m + 0.5));
    for (int it = 0; it < 100; ++it) {
      const double p = legendre(m, xi);
      const double dp = m * (legendre(m - 1, xi) - xi * p) / (1.0 - xi * xi);
      const double dx = p / dp;
      xi -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    const double dp = m * (legendre(m - 1, xi) - xi * legendre(m, xi)) / (1.0 - xi * xi);
    x[static_cast<std::size_t>(i)] = xi;
    w[static_cast<std::size_t>(i)] = 2.0 / ((1.0 - xi * xi) * dp * dp);
  }
}

/// Solve the small dense system A X = B (A: n x n, B: n x m), both row-major.
/// Gaussian elimination with partial pivoting; sizes are O(10).
std::vector<double> dense_solve(std::vector<double> a, std::vector<double> b, int n, int m) {
  for (int k = 0; k < n; ++k) {
    int piv = k;
    for (int i = k + 1; i < n; ++i) {
      if (std::abs(a[static_cast<std::size_t>(i * n + k)]) >
          std::abs(a[static_cast<std::size_t>(piv * n + k)])) {
        piv = i;
      }
    }
    if (piv != k) {
      for (int j = 0; j < n; ++j) std::swap(a[static_cast<std::size_t>(k * n + j)], a[static_cast<std::size_t>(piv * n + j)]);
      for (int j = 0; j < m; ++j) std::swap(b[static_cast<std::size_t>(k * m + j)], b[static_cast<std::size_t>(piv * m + j)]);
    }
    const double d = a[static_cast<std::size_t>(k * n + k)];
    for (int i = k + 1; i < n; ++i) {
      const double f = a[static_cast<std::size_t>(i * n + k)] / d;
      for (int j = k; j < n; ++j) {
        a[static_cast<std::size_t>(i * n + j)] -= f * a[static_cast<std::size_t>(k * n + j)];
      }
      for (int j = 0; j < m; ++j) {
        b[static_cast<std::size_t>(i * m + j)] -= f * b[static_cast<std::size_t>(k * m + j)];
      }
    }
  }
  for (int k = n - 1; k >= 0; --k) {
    for (int j = 0; j < m; ++j) {
      double s = b[static_cast<std::size_t>(k * m + j)];
      for (int i = k + 1; i < n; ++i) {
        s -= a[static_cast<std::size_t>(k * n + i)] * b[static_cast<std::size_t>(i * m + j)];
      }
      b[static_cast<std::size_t>(k * m + j)] = s / a[static_cast<std::size_t>(k * n + k)];
    }
  }
  return b;
}

}  // namespace

std::vector<double> interpolation_matrix(const std::vector<double>& from_nodes,
                                         const std::vector<double>& to_points) {
  const std::size_t n = from_nodes.size();
  const std::size_t m = to_points.size();
  const auto w = bary_weights(from_nodes);
  std::vector<double> a(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    // Exact-hit handling keeps node values reproduced bitwise.
    std::ptrdiff_t hit = -1;
    for (std::size_t j = 0; j < n; ++j) {
      if (to_points[i] == from_nodes[j]) hit = static_cast<std::ptrdiff_t>(j);
    }
    if (hit >= 0) {
      a[i * n + static_cast<std::size_t>(hit)] = 1.0;
      continue;
    }
    double denom = 0.0;
    for (std::size_t j = 0; j < n; ++j) denom += w[j] / (to_points[i] - from_nodes[j]);
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] = (w[j] / (to_points[i] - from_nodes[j])) / denom;
    }
  }
  return a;
}

Basis1d Basis1d::make(int degree) {
  if (degree < 1) throw std::runtime_error("Basis1d: degree must be >= 1");
  Basis1d b;
  b.degree = degree;
  b.np = degree + 1;
  const int n = degree;

  // LGL nodes: +-1 plus the roots of P_n'(x), found by Newton iteration from
  // Chebyshev-Gauss-Lobatto initial guesses.
  b.nodes.resize(static_cast<std::size_t>(b.np));
  b.nodes.front() = -1.0;
  b.nodes.back() = 1.0;
  for (int i = 1; i < n; ++i) {
    double x = -std::cos(M_PI * i / n);
    for (int it = 0; it < 100; ++it) {
      // f = P_n'(x); f' via the Legendre ODE:
      // (1-x^2) P_n'' = 2x P_n' - n(n+1) P_n.
      const double f = legendre_deriv(n, x);
      const double fp = (2.0 * x * f - n * (n + 1.0) * legendre(n, x)) / (1.0 - x * x);
      const double dx = f / fp;
      x -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    b.nodes[static_cast<std::size_t>(i)] = x;
  }

  b.weights.resize(static_cast<std::size_t>(b.np));
  for (int i = 0; i < b.np; ++i) {
    const double p = legendre(n, b.nodes[static_cast<std::size_t>(i)]);
    b.weights[static_cast<std::size_t>(i)] = 2.0 / (n * (n + 1.0) * p * p);
  }

  // Differentiation matrix from barycentric weights.
  const auto w = bary_weights(b.nodes);
  b.diff.assign(static_cast<std::size_t>(b.np) * b.np, 0.0);
  for (int i = 0; i < b.np; ++i) {
    double rowsum = 0.0;
    for (int j = 0; j < b.np; ++j) {
      if (i == j) continue;
      const double d = (w[static_cast<std::size_t>(j)] / w[static_cast<std::size_t>(i)]) /
                       (b.nodes[static_cast<std::size_t>(i)] - b.nodes[static_cast<std::size_t>(j)]);
      b.diff[static_cast<std::size_t>(i * b.np + j)] = d;
      rowsum += d;
    }
    b.diff[static_cast<std::size_t>(i * b.np + i)] = -rowsum;  // rows sum to zero
  }

  // Half-interval interpolation and L2 projection.
  for (int c = 0; c < 2; ++c) {
    std::vector<double> pts(static_cast<std::size_t>(b.np));
    for (int i = 0; i < b.np; ++i) {
      pts[static_cast<std::size_t>(i)] =
          0.5 * b.nodes[static_cast<std::size_t>(i)] + (c == 0 ? -0.5 : 0.5);
    }
    b.interp_half[c] = interpolation_matrix(b.nodes, pts);
    b.interp_half_t[c].resize(b.interp_half[c].size());
    for (int i = 0; i < b.np; ++i) {
      for (int j = 0; j < b.np; ++j) {
        b.interp_half_t[c][static_cast<std::size_t>(i * b.np + j)] =
            b.interp_half[c][static_cast<std::size_t>(j * b.np + i)];
      }
    }
  }

  // Exact L2 projection from the children back to the parent: solve
  // M P_c = (1/2) A_c^T diag(w_g) G, where all integrals use an exact Gauss
  // rule (the LGL-lumped variant is not exact and would not satisfy
  // sum_c P_c I_c = Id on polynomials).
  {
    std::vector<double> xg, wg;
    gauss_rule(b.np, xg, wg);
    const auto gm = interpolation_matrix(b.nodes, xg);  // nodes -> gauss points
    const int np = b.np, ng = static_cast<int>(xg.size());
    std::vector<double> mass(static_cast<std::size_t>(np) * np, 0.0);
    for (int i = 0; i < np; ++i) {
      for (int j = 0; j < np; ++j) {
        double s = 0.0;
        for (int q = 0; q < ng; ++q) {
          s += wg[static_cast<std::size_t>(q)] * gm[static_cast<std::size_t>(q * np + i)] *
               gm[static_cast<std::size_t>(q * np + j)];
        }
        mass[static_cast<std::size_t>(i * np + j)] = s;
      }
    }
    for (int c = 0; c < 2; ++c) {
      // Parent basis evaluated at the child-mapped Gauss points.
      std::vector<double> mapped(static_cast<std::size_t>(ng));
      for (int q = 0; q < ng; ++q) {
        mapped[static_cast<std::size_t>(q)] = 0.5 * xg[static_cast<std::size_t>(q)] + (c == 0 ? -0.5 : 0.5);
      }
      const auto am = interpolation_matrix(b.nodes, mapped);  // parent basis at mapped pts
      std::vector<double> rhs(static_cast<std::size_t>(np) * np, 0.0);
      for (int i = 0; i < np; ++i) {
        for (int j = 0; j < np; ++j) {
          double s = 0.0;
          for (int q = 0; q < ng; ++q) {
            s += 0.5 * wg[static_cast<std::size_t>(q)] * am[static_cast<std::size_t>(q * np + i)] *
                 gm[static_cast<std::size_t>(q * np + j)];
          }
          rhs[static_cast<std::size_t>(i * np + j)] = s;
        }
      }
      b.project_half[c] = dense_solve(mass, rhs, np, np);
    }
  }
  return b;
}

}  // namespace esamr::sfem
