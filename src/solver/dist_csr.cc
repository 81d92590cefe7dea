#include "solver/dist_csr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace esamr::solver {

int DistCsr::owner_of(std::int64_t gid) const {
  const auto it = std::upper_bound(rank_offsets_.begin(), rank_offsets_.end(), gid);
  return static_cast<int>(it - rank_offsets_.begin()) - 1;
}

DistCsr DistCsr::assemble(par::Comm& comm, std::vector<std::int64_t> rank_offsets,
                          std::vector<Triple> triples) {
  DistCsr a;
  a.comm_ = &comm;
  a.rank_offsets_ = std::move(rank_offsets);
  const int p = comm.size();
  const int me = comm.rank();
  a.row_begin_ = a.rank_offsets_[static_cast<std::size_t>(me)];
  a.row_end_ = a.rank_offsets_[static_cast<std::size_t>(me) + 1];

  // Route triples to row owners.
  std::vector<std::vector<Triple>> outbound(static_cast<std::size_t>(p));
  for (const Triple& t : triples) {
    outbound[static_cast<std::size_t>(a.owner_of(t.row))].push_back(t);
  }
  triples.clear();
  const auto inbound = comm.alltoallv(outbound);
  std::vector<Triple> mine;
  for (const auto& from : inbound) mine.insert(mine.end(), from.begin(), from.end());

  // Sort, merge duplicates.
  std::sort(mine.begin(), mine.end(), [](const Triple& x, const Triple& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  std::vector<Triple> merged;
  merged.reserve(mine.size());
  for (const Triple& t : mine) {
    if (!merged.empty() && merged.back().row == t.row && merged.back().col == t.col) {
      merged.back().value += t.value;
    } else {
      merged.push_back(t);
    }
  }

  // Ghost columns (global ids outside my row range).
  const std::int64_t n_owned = a.rows_owned();
  for (const Triple& t : merged) {
    if (t.col < a.row_begin_ || t.col >= a.row_end_) a.ghost_cols_.push_back(t.col);
  }
  std::sort(a.ghost_cols_.begin(), a.ghost_cols_.end());
  a.ghost_cols_.erase(std::unique(a.ghost_cols_.begin(), a.ghost_cols_.end()),
                      a.ghost_cols_.end());

  // Build CSR with local column indices.
  a.rowptr_.assign(static_cast<std::size_t>(n_owned) + 1, 0);
  a.col_.reserve(merged.size());
  a.val_.reserve(merged.size());
  for (const Triple& t : merged) {
    a.rowptr_[static_cast<std::size_t>(t.row - a.row_begin_) + 1]++;
    std::int32_t lc;
    if (t.col >= a.row_begin_ && t.col < a.row_end_) {
      lc = static_cast<std::int32_t>(t.col - a.row_begin_);
    } else {
      const auto it = std::lower_bound(a.ghost_cols_.begin(), a.ghost_cols_.end(), t.col);
      lc = static_cast<std::int32_t>(n_owned + (it - a.ghost_cols_.begin()));
    }
    a.col_.push_back(lc);
    a.val_.push_back(t.value);
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(n_owned); ++r) {
    a.rowptr_[r + 1] += a.rowptr_[r];
  }

  // Halo plan: request each ghost column's value source from its owner.
  std::vector<std::vector<std::int64_t>> requests(static_cast<std::size_t>(p));
  a.recv_slot_.assign(static_cast<std::size_t>(p), {});
  for (std::size_t s = 0; s < a.ghost_cols_.size(); ++s) {
    const int owner = a.owner_of(a.ghost_cols_[s]);
    requests[static_cast<std::size_t>(owner)].push_back(a.ghost_cols_[s]);
    a.recv_slot_[static_cast<std::size_t>(owner)].push_back(static_cast<std::int32_t>(s));
  }
  const auto wanted = comm.alltoallv(requests);
  a.send_idx_.assign(static_cast<std::size_t>(p), {});
  for (int r = 0; r < p; ++r) {
    for (const std::int64_t gid : wanted[static_cast<std::size_t>(r)]) {
      if (gid < a.row_begin_ || gid >= a.row_end_) {
        throw std::runtime_error("DistCsr: halo request for a row this rank does not own");
      }
      a.send_idx_[static_cast<std::size_t>(r)].push_back(
          static_cast<std::int32_t>(gid - a.row_begin_));
    }
  }
  return a;
}

void DistCsr::owned_pass(std::span<const double> x, std::span<double> y) const {
  const auto n_owned = static_cast<std::size_t>(rows_owned());
  for (std::size_t i = 0; i < n_owned; ++i) {
    double acc = 0.0;
    for (std::int64_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
      const auto c = static_cast<std::size_t>(col_[static_cast<std::size_t>(k)]);
      if (c < n_owned) acc += val_[static_cast<std::size_t>(k)] * x[c];
    }
    y[i] = acc;
  }
}

void DistCsr::ghost_pass(std::span<const double> ghost, std::span<double> y) const {
  const auto n_owned = static_cast<std::size_t>(rows_owned());
  for (std::size_t i = 0; i < n_owned; ++i) {
    double acc = y[i];
    for (std::int64_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
      const auto c = static_cast<std::size_t>(col_[static_cast<std::size_t>(k)]);
      if (c >= n_owned) acc += val_[static_cast<std::size_t>(k)] * ghost[c - n_owned];
    }
    y[i] = acc;
  }
}

void DistCsr::matvec(std::span<const double> x, std::span<double> y) const {
  const int p = comm_->size();
  const int me = comm_->rank();
  std::vector<double> ghost(ghost_cols_.size());
  std::vector<par::Request> recvs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r != me && !recv_slot_[static_cast<std::size_t>(r)].empty()) {
      recvs[static_cast<std::size_t>(r)] = comm_->irecv(r, tag_halo_swap);
    }
  }
  std::vector<par::Request> sends;
  for (int r = 0; r < p; ++r) {
    const auto& idx = send_idx_[static_cast<std::size_t>(r)];
    if (r == me || idx.empty()) continue;
    std::vector<double> vals;
    vals.reserve(idx.size());
    for (const std::int32_t i : idx) vals.push_back(x[static_cast<std::size_t>(i)]);
    sends.push_back(comm_->isend(r, tag_halo_swap, std::move(vals)));
  }
  // Owned-column pass while the halo is in flight.
  owned_pass(x, y);
  for (int r = 0; r < p; ++r) {
    auto& rq = recvs[static_cast<std::size_t>(r)];
    if (!rq.valid()) continue;
    rq.wait();
    const auto vals = rq.message().view<double>();
    const auto& slots = recv_slot_[static_cast<std::size_t>(r)];
    for (std::size_t k = 0; k < slots.size(); ++k) {
      ghost[static_cast<std::size_t>(slots[k])] = vals[k];
    }
  }
  par::wait_all(sends);
  ghost_pass(ghost, y);
}

std::vector<double> DistCsr::diagonal() const {
  const auto n_owned = static_cast<std::size_t>(rows_owned());
  std::vector<double> d(n_owned, 0.0);
  for (std::size_t i = 0; i < n_owned; ++i) {
    for (std::int64_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
      if (static_cast<std::size_t>(col_[static_cast<std::size_t>(k)]) == i) {
        d[i] = val_[static_cast<std::size_t>(k)];
      }
    }
  }
  return d;
}

void DistCsr::local_block(std::vector<std::int64_t>& rowptr, std::vector<std::int32_t>& col,
                          std::vector<double>& val) const {
  const auto n_owned = static_cast<std::size_t>(rows_owned());
  rowptr.assign(n_owned + 1, 0);
  col.clear();
  val.clear();
  for (std::size_t i = 0; i < n_owned; ++i) {
    for (std::int64_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
      if (static_cast<std::size_t>(col_[static_cast<std::size_t>(k)]) < n_owned) {
        col.push_back(col_[static_cast<std::size_t>(k)]);
        val.push_back(val_[static_cast<std::size_t>(k)]);
      }
    }
    rowptr[i + 1] = static_cast<std::int64_t>(col.size());
  }
}

double DistCsr::dot(std::span<const double> a, std::span<const double> b) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return comm_->allreduce(acc, par::ReduceOp::sum);
}

double DistCsr::norm2(std::span<const double> a) const { return std::sqrt(dot(a, a)); }

}  // namespace esamr::solver
