// Test-only reference kernels: the seed's multiply loops, verbatim, before
// the packed/tiled kernel layer (src/matrix/kernels.h) replaced them. The
// differential tests in kernels_test.cc run every (representation,
// transpose-flag, shape, density) combination of the new kernels against
// these loops. Keep these dumb and obviously correct; never optimize them.
#pragma once

#include <cstdint>

#include "matrix/block.h"
#include "matrix/csc_block.h"
#include "matrix/dense_block.h"

namespace dmac {
namespace testref {

/// Seed dense GEMM: column-major jli ordering, contiguous axpy over A's
/// column, per-element zero skip on B.
inline void GemmDenseDense(const DenseBlock& a, const DenseBlock& b,
                           DenseBlock* acc) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    const Scalar* b_col = b.col(j);
    for (int64_t l = 0; l < k; ++l) {
      const Scalar t = b_col[l];
      if (t == Scalar{0}) continue;
      const Scalar* a_col = a.col(l);
      for (int64_t i = 0; i < m; ++i) c_col[i] += a_col[i] * t;
    }
  }
}

/// Seed acc += A_csc · B_dense.
inline void GemmSparseDense(const CscBlock& a, const DenseBlock& b,
                            DenseBlock* acc) {
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  const auto& rows = a.row_idx();
  const auto& vals = a.values();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    const Scalar* b_col = b.col(j);
    for (int64_t l = 0; l < k; ++l) {
      const Scalar t = b_col[l];
      if (t == Scalar{0}) continue;
      for (int32_t p = a.ColStart(l); p < a.ColEnd(l); ++p) {
        c_col[rows[p]] += vals[p] * t;
      }
    }
  }
}

/// Seed acc += A_dense · B_csc.
inline void GemmDenseSparse(const DenseBlock& a, const CscBlock& b,
                            DenseBlock* acc) {
  const int64_t m = a.rows();
  const int64_t n = b.cols();
  const auto& rows = b.row_idx();
  const auto& vals = b.values();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    for (int32_t p = b.ColStart(j); p < b.ColEnd(j); ++p) {
      const int64_t l = rows[p];
      const Scalar t = vals[p];
      const Scalar* a_col = a.col(l);
      for (int64_t i = 0; i < m; ++i) c_col[i] += a_col[i] * t;
    }
  }
}

/// Seed acc += A_csc · B_csc (dense accumulator).
inline void GemmSparseSparse(const CscBlock& a, const CscBlock& b,
                             DenseBlock* acc) {
  const int64_t n = b.cols();
  const auto& a_rows = a.row_idx();
  const auto& a_vals = a.values();
  const auto& b_rows = b.row_idx();
  const auto& b_vals = b.values();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    for (int32_t p = b.ColStart(j); p < b.ColEnd(j); ++p) {
      const int64_t l = b_rows[p];
      const Scalar t = b_vals[p];
      for (int32_t q = a.ColStart(l); q < a.ColEnd(l); ++q) {
        c_col[a_rows[q]] += a_vals[q] * t;
      }
    }
  }
}

/// acc += Aᵀ · B with A stored CSC, B dense: each C(i, j) is one dot
/// product of A's stored column i against B's column j, summed before a
/// single add into C (the gather kernel, verbatim).
inline void GemmSparseTDense(const CscBlock& a, const DenseBlock& b,
                             DenseBlock* acc) {
  const auto& rows = a.row_idx();
  const auto& vals = a.values();
  for (int64_t j = 0; j < b.cols(); ++j) {
    for (int64_t i = 0; i < a.cols(); ++i) {
      Scalar sum = 0;
      for (int32_t p = a.ColStart(i); p < a.ColEnd(i); ++p) {
        sum += vals[p] * b.col(j)[rows[p]];
      }
      acc->col(j)[i] += sum;
    }
  }
}

/// acc += Aᵀ · B with A stored dense k x m, B CSC: each C(i, j) is one dot
/// product of A's stored column i at B's column-j row indices, summed
/// before a single add into C (the per-element gather kernel the very
/// sparse dense·sparse `tn` path ran before its partial-sum form).
inline void GemmDenseTSparse(const DenseBlock& a, const CscBlock& b,
                             DenseBlock* acc) {
  const auto& rows = b.row_idx();
  const auto& vals = b.values();
  for (int64_t j = 0; j < b.cols(); ++j) {
    if (b.ColStart(j) == b.ColEnd(j)) continue;
    for (int64_t i = 0; i < a.cols(); ++i) {
      Scalar sum = 0;
      for (int32_t p = b.ColStart(j); p < b.ColEnd(j); ++p) {
        sum += vals[p] * a.col(i)[rows[p]];
      }
      acc->col(j)[i] += sum;
    }
  }
}

/// Materialized transpose of any block, returned dense (the reference path
/// for the TransA/TransB kernel flags: transpose first, multiply with the
/// seed loops after).
inline DenseBlock DenseTranspose(const Block& x) {
  DenseBlock out(x.cols(), x.rows());
  for (int64_t c = 0; c < x.cols(); ++c) {
    for (int64_t r = 0; r < x.rows(); ++r) {
      out.Set(c, r, x.At(r, c));
    }
  }
  return out;
}

/// Reference op(A)·op(B) with double accumulation — the tolerance oracle
/// for the blocked kernel, whose k-split accumulation order differs from
/// the seed's.
inline DenseBlock WideMultiply(const Block& a, const Block& b, bool trans_a,
                               bool trans_b) {
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t k = trans_a ? a.rows() : a.cols();
  const int64_t n = trans_b ? b.rows() : b.cols();
  DenseBlock c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t l = 0; l < k; ++l) {
        const Scalar av = trans_a ? a.At(l, i) : a.At(i, l);
        const Scalar bv = trans_b ? b.At(j, l) : b.At(l, j);
        acc += static_cast<double>(av) * bv;
      }
      c.Set(i, j, static_cast<Scalar>(acc));
    }
  }
  return c;
}

}  // namespace testref
}  // namespace dmac
