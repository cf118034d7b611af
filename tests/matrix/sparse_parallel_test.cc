// Threaded sparse multiply tests (GemmParallel in matrix/kernels.h): the
// output-chunk decomposition of the sparse·dense, dense·sparse and
// sparse·sparse kernels must match the serial kernels bit for bit — every
// chunk owns disjoint output elements and adds their terms in the serial
// order — across transpose flags, SpMV shapes, ragged chunk counts, empty
// columns and power-law hub columns. Every shape that is meant to fan out
// is above kSparseParallelMinWork, and the tests assert that it did. Calls
// below the threshold stay serial, outputs that offer no second chunk stay
// serial, a fired abandon flag returns kCancelled, and the task wrapper
// sees every chunk. matrix_test runs under TSan in CI, so these also check
// the chunks for data races.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "common/thread_pool.h"
#include "matrix/block.h"
#include "matrix/block_ops.h"
#include "matrix/csc_block.h"
#include "matrix/kernels.h"
#include "kernel_reference.h"

namespace dmac {
namespace {

enum class Pair { kSparseDense, kDenseSparse, kSparseSparse };

constexpr Pair kPairs[] = {Pair::kSparseDense, Pair::kDenseSparse,
                           Pair::kSparseSparse};

const char* PairName(Pair p) {
  switch (p) {
    case Pair::kSparseDense:
      return "sparse_dense";
    case Pair::kDenseSparse:
      return "dense_sparse";
    case Pair::kSparseSparse:
      return "sparse_sparse";
  }
  return "?";
}

/// `x` as stored for a multiply whose flag for it is `trans`.
Block Stored(const Block& x, bool trans) { return trans ? x.Transposed() : x; }

/// A rows×cols CSC block whose column `hub` is full and holds most of the
/// non-zeros; the other columns draw `background` of their entries, so with
/// a background under 1/rows most of them are empty.
Block HubBlock(int64_t rows, int64_t cols, int64_t hub, double background,
               uint64_t seed) {
  const CscBlock sparse =
      RandomSparseBlock(rows, cols, background, seed).sparse();
  CscBuilder builder(rows, cols);
  for (int64_t c = 0; c < cols; ++c) {
    if (c == hub) continue;
    for (int32_t p = sparse.ColStart(c); p < sparse.ColEnd(c); ++p) {
      builder.Add(sparse.row_idx()[p], c, sparse.values()[p]);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    builder.Add(r, hub, 0.5f + static_cast<Scalar>(r % 7) * 0.25f);
  }
  return Block(builder.Build());
}

/// Keeps only the stored columns of sparse `x` whose index is a multiple
/// of `every`; the rest are empty.
Block EveryNthColumn(const Block& x, int64_t every) {
  const CscBlock& s = x.sparse();
  CscBuilder builder(s.rows(), s.cols());
  for (int64_t c = 0; c < s.cols(); c += every) {
    for (int32_t p = s.ColStart(c); p < s.ColEnd(c); ++p) {
      builder.Add(s.row_idx()[p], c, s.values()[p]);
    }
  }
  return Block(builder.Build());
}

void ExpectBitIdentical(const DenseBlock& got, const DenseBlock& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t c = 0; c < got.cols(); ++c) {
    for (int64_t r = 0; r < got.rows(); ++r) {
      ASSERT_EQ(got.At(r, c), want.At(r, c))
          << what << " at (" << r << ", " << c << ")";
    }
  }
}

/// Parallel context of `workers` (the caller plus workers-1 pool threads).
GemmParallel Threaded(ThreadPool* pool, int workers) {
  GemmParallel par;
  par.pool = pool;
  par.max_workers = workers;
  return par;
}

/// Whether a call above the threshold splits its output (the partition
/// table in docs/kernels.md): the Gustavson kernel (sparse·sparse Aᵀ·B and
/// Aᵀ·Bᵀ) and the gather kernels on outputs narrower than the worker count
/// split rows, which start on 16-row (one cache line) boundaries and so
/// need at least 17 rows for two chunks; every other case splits columns.
/// The gather kernels are sparse·dense Aᵀ·B and Aᵀ·Bᵀ, and dense·sparse
/// Aᵀ·B when B has fewer stored entries than A has rows (otherwise it
/// stages Aᵀ and runs the plain kernel).
bool SplitsOutput(Pair p, const Block& a, const Block& b, bool ta, bool tb,
                  int64_t m, int64_t n, int workers) {
  const bool gustavson = p == Pair::kSparseSparse && ta;
  const bool gather =
      ta && (p == Pair::kSparseDense ||
             (p == Pair::kDenseSparse && !tb && b.sparse().nnz() < a.rows()));
  if (gustavson || (gather && n < workers)) return m > 16;
  return n >= 2;
}

/// Multiplies op(A)·op(B) serially and on `workers` threads, asserting
/// bit-identical accumulators, and, for calls `above_cutoff`, that the
/// threaded call fanned out when SplitsOutput says it splits. Returns the
/// chunk count.
double CheckThreadedMatchesSerial(Pair p, const Block& a, const Block& b,
                                  bool ta, bool tb, int workers,
                                  const std::string& what,
                                  bool above_cutoff = true) {
  const int64_t m = ta ? a.cols() : a.rows();
  const int64_t n = tb ? b.rows() : b.cols();
  GemmScratch scratch;
  DenseBlock serial(m, n);
  Status st = MultiplyAccumulate(a, b, ta, tb, &serial, &scratch);
  EXPECT_TRUE(st.ok()) << what << ": " << st.ToString();

  ThreadPool pool(static_cast<size_t>(workers - 1));
  const GemmParallel par = Threaded(&pool, workers);
  DenseBlock threaded(m, n);
  GemmStats stats;
  st = MultiplyAccumulate(a, b, ta, tb, &threaded, &scratch, &stats, &par);
  EXPECT_TRUE(st.ok()) << what << ": " << st.ToString();
  ExpectBitIdentical(threaded, serial, what);
  // (A shape that does not split may still fan out the transpose staging
  // of its dense operand, so only the positive case is checked.)
  if (above_cutoff && SplitsOutput(p, a, b, ta, tb, m, n, workers)) {
    EXPECT_GT(stats.tasks, 1) << what << " did not fan out";
  }
  return stats.tasks;
}

std::string Describe(Pair p, int64_t m, int64_t n, int64_t k, bool ta,
                     bool tb, int workers) {
  return std::string(PairName(p)) + " m=" + std::to_string(m) +
         " n=" + std::to_string(n) + " k=" + std::to_string(k) + " " +
         (ta ? "t" : "n") + (tb ? "t" : "n") +
         " workers=" + std::to_string(workers);
}

/// Logical operands op(A) (m×k) and op(B) (k×n), sparse and dense, each
/// kept in both stored layouts, so every pairing and flag case multiplies
/// the same matrices. Built once per shape: operand generation, not the
/// kernels, dominates this file's time under TSan. RandomSparseBlock draws
/// density·rows·cols entries with replacement, so a density above 1 still
/// leaves some entries empty. With `every` > 1 only every `every`-th
/// stored column of each sparse operand keeps its entries.
struct Operands {
  Block a[2][2];  // [sparse][trans]
  Block b[2][2];
};

Operands MakeOperands(int64_t m, int64_t n, int64_t k, double density_a,
                      double density_b, int64_t every = 1) {
  Operands ops;
  const Block a[2] = {RandomDenseBlock(m, k, 11),
                      RandomSparseBlock(m, k, density_a, 11)};
  const Block b[2] = {RandomDenseBlock(k, n, 12),
                      RandomSparseBlock(k, n, density_b, 12)};
  for (int sparse : {0, 1}) {
    for (bool trans : {false, true}) {
      ops.a[sparse][trans] = Stored(a[sparse], trans);
      ops.b[sparse][trans] = Stored(b[sparse], trans);
      if (sparse == 1 && every > 1) {
        ops.a[sparse][trans] = EveryNthColumn(ops.a[sparse][trans], every);
        ops.b[sparse][trans] = EveryNthColumn(ops.b[sparse][trans], every);
      }
    }
  }
  return ops;
}

const Block& LeftOf(const Operands& ops, Pair p, bool ta) {
  return ops.a[p != Pair::kDenseSparse][ta];
}
const Block& RightOf(const Operands& ops, Pair p, bool tb) {
  return ops.b[p != Pair::kSparseDense][tb];
}

/// Every pairing and flag case over one shape (see MakeOperands).
void CheckShape(int64_t m, int64_t n, int64_t k, int workers,
                double density_a, double density_b, int64_t every = 1) {
  const Operands ops = MakeOperands(m, n, k, density_a, density_b, every);
  for (Pair p : kPairs) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        CheckThreadedMatchesSerial(
            p, LeftOf(ops, p, ta), RightOf(ops, p, tb), ta, tb, workers,
            Describe(p, m, n, k, ta, tb, workers) +
                (every > 1 ? " sparse columns" : ""));
      }
    }
  }
}

TEST(SparseParallelTest, AllPairsAndFlagsBitIdenticalToSerial) {
  CheckShape(256, 256, 256, /*workers=*/3, 0.2, 0.2);
}

TEST(SparseParallelTest, SpmvShapesBitIdenticalToSerial) {
  // A row-vector output (m = 1, PageRank's rank·link) and a column-vector
  // output (n = 1), for every pairing and flag case. The row vector splits
  // columns except under Gustavson; the column vector splits rows on the
  // gather and Gustavson paths and stays serial on the scatter kernels.
  CheckShape(1, 512, 512, 4, 3.0, 1.0);
  CheckShape(600, 1, 600, 4, 0.6, 3.0);
}

TEST(SparseParallelTest, RaggedChunkCountsBitIdenticalToSerial) {
  // Extents that are not multiples of the chunk count or of the 16-row
  // alignment, one to a few chunks per worker, outputs narrower than the
  // worker count, and outputs too short to split by rows.
  CheckShape(301, 133, 517, 2, 0.3, 0.3);
  CheckShape(150, 3, 4096, 4, 0.12, 1.5);
  CheckShape(2, 311, 600, 3, 3.0, 0.6);
  CheckShape(16, 2, 8192, 3, 1.5, 2.0);
}

TEST(SparseParallelTest, EmptyColumnsAndEmptyOperandBitIdenticalToSerial) {
  // Three stored columns in four of every sparse operand are empty. An
  // all-zero operand has no work, so it takes the serial path, and must
  // give the serial (all-zero) result.
  CheckShape(256, 256, 256, 3, 1.0, 1.0, /*every=*/4);
  const Block empty(CscBlock(40, 40));
  const Block sparse = RandomSparseBlock(40, 40, 0.2, 3);
  const Block dense = RandomDenseBlock(40, 40, 3);
  for (Pair p : kPairs) {
    const Block& other = p == Pair::kSparseSparse ? sparse : dense;
    const Block& lhs = p == Pair::kDenseSparse ? other : empty;
    const Block& rhs = p == Pair::kDenseSparse ? empty : other;
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const std::string what =
            Describe(p, 40, 40, 40, ta, tb, 3) + " empty operand";
        EXPECT_EQ(CheckThreadedMatchesSerial(p, lhs, rhs, ta, tb, 3, what,
                                             /*above_cutoff=*/false),
                  0)
            << what;
      }
    }
  }
}

TEST(SparseParallelTest, HubColumnBitIdenticalToSerial) {
  // One stored column holds most of the non-zeros (a power-law hub): the
  // nnz-balanced split closes a chunk right after it, and results still
  // match bit for bit. The hub block is stored 8192×256 with ~80% of its
  // entries in column 37.
  const Block hub = HubBlock(8192, 256, /*hub=*/37, 0.001, 5);
  ASSERT_GT(2 * 8192, hub.sparse().nnz());
  const Block hub_t = hub.Transposed();
  const Block dense_tall = RandomDenseBlock(8192, 64, 7);
  const Block dense_short = RandomDenseBlock(256, 64, 7);
  const Block dense_wide = RandomDenseBlock(50, 8192, 8);
  const Block dense_narrow = RandomDenseBlock(50, 256, 8);
  const Block sparse_wide = RandomSparseBlock(64, 8192, 0.25, 9);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const std::string flags = std::string(ta ? "t" : "n") + (tb ? "t" : "n");
      // Hub as the stored sparse left operand: op(hub) is m×k.
      CheckThreadedMatchesSerial(Pair::kSparseDense, hub,
                                 Stored(ta ? dense_tall : dense_short, tb), ta,
                                 tb, 4, "sparse_dense hub " + flags);
      // Hub as the stored sparse right operand: op(hub) is k×n.
      CheckThreadedMatchesSerial(Pair::kDenseSparse,
                                 Stored(tb ? dense_narrow : dense_wide, ta),
                                 hub, ta, tb, 4, "dense_sparse hub " + flags);
      // sparse·sparse with op(B) the hub block: op(A) is 64×8192.
      CheckThreadedMatchesSerial(Pair::kSparseSparse, Stored(sparse_wide, ta),
                                 tb ? hub_t : hub, ta, tb, 4,
                                 "sparse_sparse hub " + flags);
    }
  }
}

TEST(SparseParallelTest, RowVectorTimesSparseMatchesSeedLoop) {
  // PageRank's rank·link shape takes a one-output-row loop that keeps the
  // running sum in a register. It must add the same terms in the same
  // order as the seed loop, serially and in chunks.
  const Block row = RandomDenseBlock(1, 512, 1);
  const Block b = RandomSparseBlock(512, 512, 1.0, 2);
  DenseBlock ref(1, 512);
  testref::GemmDenseSparse(row.dense(), b.sparse(), &ref);

  DenseBlock serial(1, 512);
  ASSERT_TRUE(MultiplyAccumulate(row, b, false, false, &serial).ok());
  ExpectBitIdentical(serial, ref, "serial 1×k · sparse");

  ThreadPool pool(3);
  const GemmParallel par = Threaded(&pool, 4);
  DenseBlock threaded(1, 512);
  GemmStats stats;
  ASSERT_TRUE(MultiplyAccumulate(row, b, false, false, &threaded, nullptr,
                                 &stats, &par)
                  .ok());
  EXPECT_GT(stats.tasks, 1);
  ExpectBitIdentical(threaded, ref, "threaded 1×k · sparse");
}

TEST(SparseParallelTest, BelowThresholdTakesSerialPath) {
  // A 64×64 product at 2% density is below kSparseParallelMinWork: no
  // chunk runs, and the result is the serial one.
  ThreadPool pool(3);
  const GemmParallel par = Threaded(&pool, 4);
  const Operands ops = MakeOperands(64, 64, 64, 0.02, 0.02);
  for (Pair p : kPairs) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const Block& a = LeftOf(ops, p, ta);
        const Block& b = RightOf(ops, p, tb);
        GemmScratch scratch;
        DenseBlock serial(64, 64);
        ASSERT_TRUE(MultiplyAccumulate(a, b, ta, tb, &serial, &scratch).ok());
        DenseBlock threaded(64, 64);
        GemmStats stats;
        ASSERT_TRUE(MultiplyAccumulate(a, b, ta, tb, &threaded, &scratch,
                                       &stats, &par)
                        .ok());
        const std::string what = Describe(p, 64, 64, 64, ta, tb, 4);
        EXPECT_LT(stats.flops, static_cast<double>(kSparseParallelMinWork))
            << what;
        EXPECT_EQ(stats.tasks, 0) << what;
        ExpectBitIdentical(threaded, serial, what);
      }
    }
  }
}

TEST(SparseParallelTest, OutputsWithoutASecondChunkStaySerial) {
  // Far above the threshold, an output that offers the kernel's split axis
  // no second chunk runs the serial kernel. Gustavson (sparse·sparse Aᵀ·B
  // and Aᵀ·Bᵀ) builds each output row in one outer iteration and can only
  // split rows, so a single output row stays serial. The scatter kernels
  // (the untransposed products) split columns only, so a column-vector
  // output stays serial: a row chunk of theirs would search every stored
  // column of the sparse operand for its rows, which measured several
  // times slower than the serial loop.
  ThreadPool pool(3);
  const GemmParallel par = Threaded(&pool, 4);
  const auto check_serial = [&](const Block& a, const Block& b, bool ta,
                                bool tb, const std::string& what) {
    const int64_t m = ta ? a.cols() : a.rows();
    const int64_t n = tb ? b.rows() : b.cols();
    DenseBlock serial(m, n);
    ASSERT_TRUE(MultiplyAccumulate(a, b, ta, tb, &serial).ok()) << what;
    DenseBlock threaded(m, n);
    GemmStats stats;
    ASSERT_TRUE(
        MultiplyAccumulate(a, b, ta, tb, &threaded, nullptr, &stats, &par)
            .ok())
        << what;
    EXPECT_GE(stats.flops, static_cast<double>(kSparseParallelMinWork))
        << what;
    EXPECT_EQ(stats.tasks, 0) << what;
    ExpectBitIdentical(threaded, serial, what);
  };

  const Block a = RandomSparseBlock(512, 1, 3.0, 1);  // Aᵀ is 1×512
  const Block b = RandomSparseBlock(512, 512, 1.0, 2);
  check_serial(a, b, true, false, "sparse_sparse tn, m = 1");
  check_serial(a, b.Transposed(), true, true, "sparse_sparse tt, m = 1");
  // The untransposed product of the same shape splits columns.
  EXPECT_GT(CheckThreadedMatchesSerial(Pair::kSparseSparse, a.Transposed(), b,
                                       false, false, 4,
                                       "sparse_sparse nn, m = 1"),
            1);

  const Block v = RandomSparseBlock(1024, 1024, 0.15, 3);
  check_serial(v, RandomDenseBlock(1024, 1, 4), false, false,
               "sparse_dense nn, n = 1");
  check_serial(v, RandomSparseBlock(1024, 1, 4, 5), false, false,
               "sparse_sparse nn, n = 1");
  check_serial(RandomDenseBlock(16, 9000, 6), RandomSparseBlock(9000, 1, 4, 7),
               false, false, "dense_sparse nn, n = 1");
}

TEST(SparseParallelTest, PreFiredAbandonReturnsCancelled) {
  ThreadPool pool(2);
  std::atomic<bool> abandon{true};
  GemmParallel par = Threaded(&pool, 3);
  par.abandon = &abandon;
  const Operands ops = MakeOperands(256, 256, 256, 0.2, 0.2);
  for (Pair p : kPairs) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        DenseBlock acc(256, 256);
        GemmStats stats;
        Status st = MultiplyAccumulate(LeftOf(ops, p, ta), RightOf(ops, p, tb),
                                       ta, tb, &acc, nullptr, &stats, &par);
        const std::string what = Describe(p, 256, 256, 256, ta, tb, 3);
        EXPECT_EQ(st.code(), StatusCode::kCancelled)
            << what << ": " << st.ToString();
        EXPECT_EQ(stats.tasks, 0) << what;
      }
    }
  }
}

TEST(SparseParallelTest, WrapTaskSeesEveryChunk) {
  ThreadPool pool(3);
  std::atomic<int64_t> wrapped{0};
  GemmParallel par = Threaded(&pool, 4);
  par.wrap_task = [&wrapped](const std::function<void()>& body) {
    ++wrapped;
    body();
  };
  const Operands ops = MakeOperands(200, 300, 256, 0.2, 0.2);
  for (Pair p : kPairs) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        wrapped = 0;
        DenseBlock acc(200, 300);
        GemmStats stats;
        ASSERT_TRUE(MultiplyAccumulate(LeftOf(ops, p, ta), RightOf(ops, p, tb),
                                       ta, tb, &acc, nullptr, &stats, &par)
                        .ok());
        const std::string what = Describe(p, 200, 300, 256, ta, tb, 4);
        EXPECT_GT(stats.tasks, 1) << what;
        EXPECT_EQ(static_cast<double>(wrapped.load()), stats.tasks) << what;
      }
    }
  }
}

}  // namespace
}  // namespace dmac
