// Gustavson SpGEMM kernel. Compiled -O3 with the rest of the kernel layer
// (src/matrix/CMakeLists.txt).
#include "matrix/spgemm.h"

namespace dmac {

void SpGemmGustavson(const CscBlock& a_rows, const CscBlock& b_rows,
                     DenseBlock* acc, int64_t row_begin, int64_t row_end) {
  const auto& a_idx = a_rows.row_idx();
  const auto& a_vals = a_rows.values();
  const auto& b_idx = b_rows.row_idx();
  const auto& b_vals = b_rows.values();
  for (int64_t i = row_begin; i < row_end; ++i) {
    const int32_t aend = a_rows.ColEnd(i);
    for (int32_t q = a_rows.ColStart(i); q < aend; ++q) {
      const int64_t l = a_idx[q];
      const Scalar v = a_vals[q];
      const int32_t bend = b_rows.ColEnd(l);
      for (int32_t p = b_rows.ColStart(l); p < bend; ++p) {
        // Row-major walk, column-major store: each madd lands at row i of
        // a different accumulator column. Still a net win — the work is
        // O(flops), not O(n·nnz) like the gather formulation it replaced.
        acc->col(b_idx[p])[i] += v * b_vals[p];
      }
    }
  }
}

}  // namespace dmac
