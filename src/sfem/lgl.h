// One-dimensional spectral-element building blocks (mangll reproduction,
// paper §II-E): Legendre-Gauss-Lobatto nodes and quadrature weights,
// barycentric interpolation, differentiation matrices, and the half-interval
// interpolation / L2-projection operators used at 2:1 non-conforming faces
// and for solution transfer under refinement/coarsening.
#pragma once

#include <vector>

namespace esamr::sfem {

/// Everything the tensor-product kernels need for one polynomial degree.
struct Basis1d {
  int degree = 0;
  int np = 1;  ///< number of nodes, degree + 1

  std::vector<double> nodes;    ///< LGL nodes on [-1, 1], ascending
  std::vector<double> weights;  ///< LGL quadrature weights
  std::vector<double> diff;     ///< differentiation matrix D[i*np+j]: (du/dx)(x_i) = sum_j D_ij u_j

  /// Interpolation from the parent interval to its halves:
  /// interp_half[c][i*np+j] evaluates the parent Lagrange basis j at the
  /// i-th node of child c (c=0 -> [-1,0], c=1 -> [0,1]).
  std::vector<double> interp_half[2];
  /// interp_half[c] transposed: lifts a child-interval integrand back onto
  /// the parent nodes (the coarse side of a 2:1 mortar face).
  std::vector<double> interp_half_t[2];
  /// L2 projection from child c back to the parent:
  /// parent = sum_c project_half[c] * child_c reassembles the parent's L2
  /// best approximation; project_half[c] = (1/2) M^{-1} I_c^T M.
  std::vector<double> project_half[2];

  static Basis1d make(int degree);
};

/// Barycentric Lagrange interpolation matrix: row i evaluates the Lagrange
/// basis on `from_nodes` at `to_points[i]`.
std::vector<double> interpolation_matrix(const std::vector<double>& from_nodes,
                                         const std::vector<double>& to_points);

/// Legendre polynomial P_n(x) (used for weights and tests).
double legendre(int n, double x);

}  // namespace esamr::sfem
