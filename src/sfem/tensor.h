// Tensor-product kernels for nodal spectral elements: apply a 1D operator
// along one axis of an np^dim nodal array, and index helpers for faces of
// the tensor grid. Axis 0 is the fastest-running index.
#pragma once

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

namespace esamr::sfem {

constexpr int ipow(int b, int e) {
  int r = 1;
  for (int i = 0; i < e; ++i) r *= b;
  return r;
}

/// out = (A along `axis`) applied to u; u and out are np^dim arrays and must
/// not alias. A is np x np, row-major (row = output node).
///
/// The sweep walks (outer block, inner offset) pairs directly: `stride` =
/// np^axis consecutive offsets share one 1D line per outer block of np *
/// stride values, so no index is divided or skipped. Every output starts at
/// zero and sums its np products in ascending j, the order the solvers' bit
/// identity rests on; the loop order outside that sum is free.
template <typename T>
inline void apply_axis(int dim, int np, int axis, const T* a, const T* u, T* out) {
  const int stride = ipow(np, axis);
  const int block = stride * np;
  const int total = ipow(np, dim);
  for (int outer = 0; outer < total; outer += block) {
    for (int line = outer; line < outer + stride; ++line) {
      const T* ul = u + line;
      T* ol = out + line;
      for (int k = 0; k < np; ++k) {
        const T* arow = a + k * np;
        T acc = 0;
        for (int j = 0; j < np; ++j) acc += arow[j] * ul[j * stride];
        ol[k * stride] = acc;
      }
    }
  }
}

/// Volume index of the node with per-axis indices idx[0..dim).
inline int node_index(int dim, int np, const std::array<int, 3>& idx) {
  int r = idx[0];
  if (dim > 1) r += np * idx[1];
  if (dim > 2) r += np * np * idx[2];
  return r;
}

/// The tangential axes of face f (normal axis f/2), ascending.
inline std::array<int, 2> face_tangents(int dim, int f) {
  std::array<int, 2> t{-1, -1};
  int k = 0;
  for (int a = 0; a < dim; ++a) {
    if (a != f / 2) t[static_cast<std::size_t>(k++)] = a;
  }
  return t;
}

/// Volume indices of the nodes of face f, in face enumeration: tangential
/// axes ascending, lower axis fastest. Size np^(dim-1).
inline std::vector<int> face_node_indices(int dim, int np, int f) {
  const int axis = f / 2;
  const int side = f % 2;
  const auto t = face_tangents(dim, f);
  const int nf = ipow(np, dim - 1);
  std::vector<int> out(static_cast<std::size_t>(nf));
  for (int q = 0; q < nf; ++q) {
    std::array<int, 3> idx{0, 0, 0};
    idx[static_cast<std::size_t>(axis)] = side ? np - 1 : 0;
    idx[static_cast<std::size_t>(t[0])] = q % np;
    if (dim == 3) idx[static_cast<std::size_t>(t[1])] = q / np;
    out[static_cast<std::size_t>(q)] = node_index(dim, np, idx);
  }
  return out;
}

/// Apply a 1D operator along one tangential direction of a face array
/// (np^(dim-1) values; dir = 0 is the fast index).
template <typename T>
inline void apply_face_axis(int dim, int np, int dir, const T* a, const T* u, T* out) {
  apply_axis(dim - 1, np, dir, a, u, out);
}

/// In place on a face array: apply ops[(bits >> k) & 1] along every
/// tangential direction k in turn (the 2:1 mortar interpolations and their
/// transposes). `tmp` is np^(dim-1) values of scratch.
template <typename T>
inline void face_sweep(int dim, int np, const T* const ops[2], int bits, T* data, T* tmp) {
  T* src = data;
  T* dst = tmp;
  for (int k = 0; k < dim - 1; ++k) {
    apply_face_axis(dim, np, k, ops[(bits >> k) & 1], src, dst);
    std::swap(src, dst);
  }
  if (src != data) std::copy_n(src, ipow(np, dim - 1), data);
}

}  // namespace esamr::sfem
