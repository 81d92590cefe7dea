// Distributed sparse matrices for the cG solvers (the linear-algebra
// substrate under the paper's Rhea application, §IV-A).
//
// Rows are distributed by contiguous global-id ranges (exactly the ownership
// layout produced by forest::NodeNumbering). Assembly accepts (global row,
// global col, value) triples from any rank; contributions to non-owned rows
// are routed to the owner with one alltoallv. The matvec halo (values of x
// at non-owned columns) is planned once at finalize time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "par/comm.h"

namespace esamr::solver {

/// Reserved user-plane tag for the matvec halo swap. One message per
/// (sender, receiver) pair per matvec; per-pair FIFO delivery keeps repeated
/// matvecs (CG iterations) unambiguous.
inline constexpr int tag_halo_swap = 0x5f9e72;

struct Triple {
  std::int64_t row, col;
  double value;
};

class DistCsr {
 public:
  /// Assemble from triples. `rank_offsets` (size P+1) gives each rank's
  /// contiguous row range; duplicate entries are summed.
  static DistCsr assemble(par::Comm& comm, std::vector<std::int64_t> rank_offsets,
                          std::vector<Triple> triples);

  std::int64_t rows_owned() const { return row_end_ - row_begin_; }
  std::int64_t row_begin() const { return row_begin_; }
  std::int64_t num_global() const { return rank_offsets_.back(); }
  par::Comm& comm() const { return *comm_; }

  /// y = A x; x and y hold the owned rows only (halo exchanged internally).
  ///
  /// The halo swap is asynchronous: receives are posted, packed x-values are
  /// isent (storage adopted), the owned-column pass runs while the halo is in
  /// flight, and the ghost-column pass folds in received values read in
  /// place. Owned terms accumulate first, then ghost terms, each in CSR order.
  void matvec(std::span<const double> x, std::span<double> y) const;

  /// Diagonal entries of the owned rows.
  std::vector<double> diagonal() const;

  /// The owned diagonal block (columns restricted to owned rows) as a
  /// serial CSR with local indices — the input to the per-rank AMG.
  void local_block(std::vector<std::int64_t>& rowptr, std::vector<std::int32_t>& col,
                   std::vector<double>& val) const;

  // --- Distributed BLAS-1 helpers over owned vectors ------------------------
  double dot(std::span<const double> a, std::span<const double> b) const;
  double norm2(std::span<const double> a) const;

 private:
  int owner_of(std::int64_t gid) const;

  par::Comm* comm_ = nullptr;
  std::vector<std::int64_t> rank_offsets_;
  std::int64_t row_begin_ = 0, row_end_ = 0;

  // CSR over owned rows; columns are local: [0, n_owned) owned,
  // [n_owned, n_owned + n_ghost) ghost (indexing ghost_cols_).
  std::vector<std::int64_t> rowptr_;
  std::vector<std::int32_t> col_;
  std::vector<double> val_;
  std::vector<std::int64_t> ghost_cols_;  // global ids, sorted

  // Halo plan: per rank, local owned indices whose x-values it needs.
  std::vector<std::vector<std::int32_t>> send_idx_;
  // Where received values land in the ghost slot array: per rank, ghost slots.
  std::vector<std::vector<std::int32_t>> recv_slot_;

  void owned_pass(std::span<const double> x, std::span<double> y) const;
  void ghost_pass(std::span<const double> ghost, std::span<double> y) const;
};

}  // namespace esamr::solver
