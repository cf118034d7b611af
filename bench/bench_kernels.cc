// Kernel benchmark: GFLOP/s and bytes/s for every multiply kernel over
// (representation, transpose-flags, block-size), a thread-count axis for
// the parallel dense and sparse kernels (GemmParallel over a shared
// ThreadPool), SpMV sweeps over a bs×bs block with eight non-zeros per
// column (`dense_sparse_spmv`: PageRank's 1×bs row vector times the block;
// `sparse_dense_spmv`: the block, plain or transposed, times a bs×1 column
// vector, LinReg's V·p and Vᵀ·r), GNMF's four block products at its
// block side of 50 and the Netflix density, plus the
// vectorized reduction/elementwise primitives, plus the seed's pre-packing
// dense GEMM loop as the speedup baseline (tests/matrix/kernel_reference.h
// keeps the same loop as the differential-test reference).
//
// Emits BENCH_kernels.json (override with --out=PATH) with one entry per
// measured configuration and three summaries: `dense_gemm_speedup_vs_seed`
// (packed vs seed loop at the default block size, the packed-layer
// acceptance number), `dense_gemm_parallel_speedup_4t` (4-thread vs
// 1-thread packed at the default block size) and
// `sparse_gemm_parallel_speedup_4t` (4-thread vs 1-thread, geometric mean
// of the three sparse pairings' `nn` rows at the largest swept block size).
// Both scaling numbers are honest on the runner, so ~1.0 on a 1-core
// machine. A `provenance` object records the build type, the CPU's ISA,
// the dense micro-kernel variant in use, nproc and the repeat count.
// `--quick` or DMAC_BENCH_SCALE>1 trims the sweeps for CI smoke runs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "matrix/block.h"
#include "matrix/block_ops.h"
#include "matrix/kernels.h"
#include "matrix/unary_fn.h"

namespace dmac {
namespace bench {
namespace {

/// The block side the summary speedup is quoted at: the mid-point of the
/// sweep and the side ChooseProgramBlockSize lands on for the paper-scale
/// inputs once governed budgets are in play.
constexpr int64_t kDefaultBs = 256;

constexpr double kSparsity = 0.02;

/// GNMF's block products (docs/kernels.md#small-blocks): k = 200 on 4
/// workers × 4 threads gives Eq. 3's block side √(200·200/16) = 50, and
/// the Netflix-shaped V has density 0.0118, about 30 entries a block.
constexpr int64_t kGnmfBs = 50;
constexpr double kGnmfDensity = 0.0118;

struct Entry {
  std::string kind;            // "gemm" | "gemm_seed_reference" | "vec"
  std::string representation;  // e.g. "dense_dense", "sum_squares"
  std::string trans;           // "nn" | "tn" | "nt" | "tt" | "" for vec
  int64_t block_size = 0;
  int threads = 1;             // workers incl. the caller (GemmParallel)
  double density = 1;          // of the sparse operand(s); 1 when dense
  double seconds = 0;          // per call
  double gflops = 0;
  double bytes_per_second = 0;
};

double GflopsOrZero(double flops, double seconds) {
  return seconds > 0 ? flops / seconds / 1e9 : 0;
}

/// Timed windows per row; a row reports their median. Thread-scaling
/// ratios between rows, and the sparse cutoff read from them, need rows
/// that a shared host's bursts do not move.
constexpr int kRepeats = 5;

/// Times `fn` (one kernel call) adaptively: each window repeats the call
/// until its wall time crosses a floor so fast configs are not
/// quantization noise; returns the median over kRepeats windows of the
/// mean per-call seconds.
template <typename Fn>
double TimeCall(Fn&& fn, double min_seconds) {
  // Warm-up call: faults the operands in and grows the packing scratch so
  // the measured calls see a steady state.
  fn();
  std::vector<double> windows;
  for (int r = 0; r < kRepeats; ++r) {
    int calls = 0;
    Timer timer;
    do {
      fn();
      ++calls;
    } while (timer.ElapsedSeconds() < min_seconds && calls < 1000);
    windows.push_back(timer.ElapsedSeconds() / calls);
  }
  std::sort(windows.begin(), windows.end());
  return windows[kRepeats / 2];
}

int64_t BlockBytes(const Block& b) {
  if (b.IsDense()) return b.rows() * b.cols() * sizeof(Scalar);
  return b.sparse().nnz() * (sizeof(Scalar) + sizeof(int32_t)) +
         (b.cols() + 1) * sizeof(int32_t);
}

/// A stored operand for op(X) of effective shape rows×cols: stored
/// transposed when the flag is set so every flag combination multiplies
/// the same effective matrices.
Block MakeOperand(int64_t rows, int64_t cols, bool trans, bool sparse,
                  double density, uint64_t seed) {
  const int64_t r = trans ? cols : rows;
  const int64_t c = trans ? rows : cols;
  return sparse ? RandomSparseBlock(r, c, density, seed)
                : RandomDenseBlock(r, c, seed);
}

/// `threads` > 1 routes the kernel through GemmParallel over `pool` (which
/// needs at least threads-1 workers); the serial small-product cutoffs
/// still apply, so small products report flat scaling by design.
Entry BenchGemm(bool a_sparse, bool b_sparse, bool ta, bool tb, int64_t bs,
                double min_seconds, int threads = 1,
                ThreadPool* pool = nullptr, double density = kSparsity) {
  Block a = MakeOperand(bs, bs, ta, a_sparse, density, 1);
  Block b = MakeOperand(bs, bs, tb, b_sparse, density, 2);
  DenseBlock acc(bs, bs);
  GemmScratch scratch;  // reused across calls, as the engine reuses its pool

  GemmParallel par;
  const GemmParallel* parp = nullptr;
  if (threads > 1 && pool != nullptr) {
    par.pool = pool;
    par.max_workers = threads;
    parp = &par;
  }

  GemmStats stats;
  Status st = MultiplyAccumulate(a, b, ta, tb, &acc, &scratch, &stats, parp);
  DMAC_CHECK(st.ok()) << st.ToString();
  const double flops_per_call = static_cast<double>(stats.flops);

  const double seconds = TimeCall(
      [&] {
        GemmStats s;
        Status call =
            MultiplyAccumulate(a, b, ta, tb, &acc, &scratch, &s, parp);
        DMAC_CHECK(call.ok()) << call.ToString();
      },
      min_seconds);

  Entry e;
  e.kind = "gemm";
  e.representation = std::string(a_sparse ? "sparse" : "dense") + "_" +
                     (b_sparse ? "sparse" : "dense");
  e.trans = std::string(ta ? "t" : "n") + (tb ? "t" : "n");
  e.block_size = bs;
  e.threads = threads;
  e.density = a_sparse || b_sparse ? density : 1;
  e.seconds = seconds;
  e.gflops = GflopsOrZero(flops_per_call, seconds);
  const double bytes =
      BlockBytes(a) + BlockBytes(b) + 2.0 * bs * bs * sizeof(Scalar);
  e.bytes_per_second = bytes / seconds;
  return e;
}

/// SpMV shapes over a bs×bs CSC block with kSpmvNnzPerCol non-zeros per
/// column, so the work (2·nnz) grows linearly with bs and the sweep crosses
/// kSparseParallelMinWork between bs 16384 (duplicate draws leave 2·nnz
/// just under it) and 32768; smaller rows show the serial fast path (flat
/// scaling by design). `row_vector` runs PageRank's 1×bs · block
/// (`dense_sparse_spmv`, column chunks); otherwise op(block) · bs×1
/// (`sparse_dense_spmv`), where `trans` runs the gather kernel, which
/// splits a column-vector output by rows, and the plain scatter kernel
/// stays serial on it (docs/kernels.md#threaded-sparse-kernels).
constexpr double kSpmvNnzPerCol = 8;

Entry BenchSpmv(bool row_vector, bool trans, int64_t bs, double min_seconds,
                int threads, ThreadPool* pool) {
  const Block v = RandomSparseBlock(
      bs, bs, kSpmvNnzPerCol / static_cast<double>(bs), 2);
  const Block x =
      row_vector ? RandomDenseBlock(1, bs, 1) : RandomDenseBlock(bs, 1, 1);
  const Block& a = row_vector ? x : v;
  const Block& b = row_vector ? v : x;
  DenseBlock acc(row_vector ? 1 : bs, row_vector ? bs : 1);
  GemmParallel par;
  par.pool = pool;
  par.max_workers = threads;
  const GemmParallel* parp = threads > 1 ? &par : nullptr;

  const double seconds = TimeCall(
      [&] {
        Status call = MultiplyAccumulate(a, b, trans, false, &acc, nullptr,
                                         nullptr, parp);
        DMAC_CHECK(call.ok()) << call.ToString();
      },
      min_seconds);
  Entry e;
  e.kind = "gemm";
  e.representation = row_vector ? "dense_sparse_spmv" : "sparse_dense_spmv";
  e.trans = trans ? "tn" : "nn";
  e.block_size = bs;
  e.threads = threads;
  e.density = kSpmvNnzPerCol / static_cast<double>(bs);
  e.seconds = seconds;
  e.gflops = GflopsOrZero(2.0 * static_cast<double>(v.sparse().nnz()), seconds);
  e.bytes_per_second =
      (BlockBytes(a) + BlockBytes(b) + 2.0 * bs * sizeof(Scalar)) / seconds;
  return e;
}

/// The seed's dense GEMM loop, verbatim (tests/matrix/kernel_reference.h):
/// column-major jli ordering, contiguous axpy over A's column, per-element
/// zero test on B. This is the baseline the packed kernel is measured
/// against.
void SeedGemmDenseDense(const DenseBlock& a, const DenseBlock& b,
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

Entry BenchSeedGemm(int64_t bs, double min_seconds) {
  Block a = RandomDenseBlock(bs, bs, 1);
  Block b = RandomDenseBlock(bs, bs, 2);
  DenseBlock acc(bs, bs);
  const double seconds = TimeCall(
      [&] { SeedGemmDenseDense(a.dense(), b.dense(), &acc); }, min_seconds);
  Entry e;
  e.kind = "gemm_seed_reference";
  e.representation = "dense_dense";
  e.trans = "nn";
  e.block_size = bs;
  e.seconds = seconds;
  e.gflops = GflopsOrZero(2.0 * bs * bs * bs, seconds);
  e.bytes_per_second = 4.0 * bs * bs * sizeof(Scalar) / seconds;
  return e;
}

std::vector<Entry> BenchVecPrimitives(int64_t bs, double min_seconds) {
  Block dense = RandomDenseBlock(bs, bs, 3);
  DenseBlock acc(bs, bs);
  const double block_bytes = static_cast<double>(bs) * bs * sizeof(Scalar);

  struct VecCase {
    const char* name;
    double bytes;   // streamed per call
    double flops;   // per call
    std::function<void()> run;
  };
  const VecCase cases[] = {
      {"add_accumulate", 3 * block_bytes, 1.0 * bs * bs,
       [&] { DMAC_CHECK(AddAccumulate(dense, &acc).ok()); }},
      {"cell_unary_abs", 2 * block_bytes, 1.0 * bs * bs,
       [&] {
         Block r = CellUnary(dense, UnaryFnKind::kAbs);
         DMAC_CHECK(r.rows() == bs);
       }},
      {"sum", block_bytes, 1.0 * bs * bs,
       [&] { volatile double s = Sum(dense); (void)s; }},
      {"sum_squares", block_bytes, 2.0 * bs * bs,
       [&] { volatile double s = SumSquares(dense); (void)s; }},
      {"row_sums", block_bytes, 1.0 * bs * bs,
       [&] {
         DenseBlock r = RowSums(dense);
         DMAC_CHECK(r.rows() == bs);
       }},
      {"col_sums", block_bytes, 1.0 * bs * bs,
       [&] {
         DenseBlock r = ColSums(dense);
         DMAC_CHECK(r.cols() == bs);
       }},
  };

  std::vector<Entry> out;
  for (const VecCase& c : cases) {
    const double seconds = TimeCall(c.run, min_seconds);
    Entry e;
    e.kind = "vec";
    e.representation = c.name;
    e.block_size = bs;
    e.seconds = seconds;
    e.gflops = GflopsOrZero(c.flops, seconds);
    e.bytes_per_second = c.bytes / seconds;
    out.push_back(e);
  }
  return out;
}

/// The widest vector ISA the running CPU offers.
const char* DetectedIsa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("avx")) return "avx";
  if (__builtin_cpu_supports("sse4.2")) return "sse4.2";
  return "sse2";
#else
  return "non-x86";
#endif
}

void AppendJson(std::string* out, const Entry& e) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"kind\": \"%s\", \"representation\": \"%s\", "
                "\"trans\": \"%s\", \"block_size\": %lld, \"threads\": %d, "
                "\"density\": %.6g, \"seconds_per_call\": %.9f, "
                "\"gflops\": %.3f, \"bytes_per_second\": %.3e}",
                e.kind.c_str(), e.representation.c_str(), e.trans.c_str(),
                static_cast<long long>(e.block_size), e.threads, e.density,
                e.seconds, e.gflops, e.bytes_per_second);
  *out += buf;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool quick = ScaleFactor(1.0) > 1.0;  // CI smoke sets DMAC_BENCH_SCALE=8
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  const double min_seconds = quick ? 0.01 : 0.1;
  std::vector<int64_t> sizes = {64, kDefaultBs, 1024};
  if (quick) sizes = {64, kDefaultBs};

  PrintHeader("Kernel benchmark (docs/kernels.md)");
  std::printf("%-20s %-14s %-6s %6s %4s | %10s %12s\n", "kind",
              "representation", "trans", "bs", "thr", "GFLOP/s", "GB/s");

  std::vector<Entry> entries;
  auto emit = [&](const Entry& e) {
    entries.push_back(e);
    std::printf("%-20s %-14s %-6s %6lld %4d | %10.2f %12.2f\n", e.kind.c_str(),
                e.representation.c_str(), e.trans.c_str(),
                static_cast<long long>(e.block_size), e.threads, e.gflops,
                e.bytes_per_second / 1e9);
  };

  for (int64_t bs : sizes) {
    emit(BenchSeedGemm(bs, min_seconds));
    for (bool a_sparse : {false, true}) {
      for (bool b_sparse : {false, true}) {
        for (bool ta : {false, true}) {
          for (bool tb : {false, true}) {
            emit(BenchGemm(a_sparse, b_sparse, ta, tb, bs, min_seconds));
          }
        }
      }
    }
    for (const Entry& e : BenchVecPrimitives(bs, min_seconds)) emit(e);
  }

  // GNMF's products, serial like its block tasks: V·Hᵀ, Wᵀ·V, W·(HHᵀ)
  // and WᵀW.
  emit(BenchGemm(true, false, false, true, kGnmfBs, min_seconds, 1, nullptr,
                 kGnmfDensity));
  emit(BenchGemm(false, true, true, false, kGnmfBs, min_seconds, 1, nullptr,
                 kGnmfDensity));
  emit(BenchGemm(false, false, false, false, kGnmfBs, min_seconds));
  emit(BenchGemm(false, false, true, false, kGnmfBs, min_seconds));

  // Thread-count axes at the block sizes above the serial cutoffs
  // (docs/performance.md explains how to read the scaling column against
  // the machine's core count): dense×dense nn, every sparse pairing and
  // flag case, and the SpMV sweeps with their 1-thread baselines.
  const int kMaxThreads = 4;
  ThreadPool pool(kMaxThreads - 1);
  for (int64_t bs : sizes) {
    if (bs < kDefaultBs) continue;  // below the parallel flop cutoff
    for (int threads : {2, kMaxThreads}) {
      emit(BenchGemm(false, false, false, false, bs, min_seconds, threads,
                     &pool));
      for (bool a_sparse : {false, true}) {
        for (bool b_sparse : {false, true}) {
          if (!a_sparse && !b_sparse) continue;
          for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
              emit(BenchGemm(a_sparse, b_sparse, ta, tb, bs, min_seconds,
                             threads, &pool));
            }
          }
        }
      }
    }
  }
  std::vector<int64_t> spmv_sizes = {4096, 8192, 16384, 32768, 65536};
  if (quick) spmv_sizes = {4096, 65536};
  for (int64_t bs : spmv_sizes) {
    for (int threads : {1, 2, kMaxThreads}) {
      emit(BenchSpmv(true, false, bs, min_seconds, threads, &pool));
      emit(BenchSpmv(false, false, bs, min_seconds, threads, &pool));
      emit(BenchSpmv(false, true, bs, min_seconds, threads, &pool));
    }
  }

  // Acceptance summaries: packed dense GEMM vs the seed loop, and the
  // 4-thread parallel speedup over the 1-thread packed kernel, both at the
  // default block size. The scaling number is machine-honest — a 1-core
  // runner reports ~1.0x.
  double seed_gflops = 0, packed_gflops = 0, packed_gflops_4t = 0;
  for (const Entry& e : entries) {
    if (e.block_size != kDefaultBs || e.representation != "dense_dense" ||
        e.trans != "nn") {
      continue;
    }
    if (e.kind == "gemm_seed_reference") seed_gflops = e.gflops;
    if (e.kind == "gemm" && e.threads == 1) packed_gflops = e.gflops;
    if (e.kind == "gemm" && e.threads == 4) packed_gflops_4t = e.gflops;
  }
  const double speedup = seed_gflops > 0 ? packed_gflops / seed_gflops : 0;
  const double par_speedup =
      packed_gflops > 0 ? packed_gflops_4t / packed_gflops : 0;
  std::printf("\ndense GEMM @ bs=%lld: packed %.2f GFLOP/s vs seed %.2f "
              "GFLOP/s -> %.2fx; 4 threads %.2f GFLOP/s -> %.2fx scaling\n",
              static_cast<long long>(kDefaultBs), packed_gflops, seed_gflops,
              speedup, packed_gflops_4t, par_speedup);

  // Sparse scaling: geometric mean over the three sparse pairings of the
  // nn 4-thread / 1-thread rate ratio at the largest swept block size.
  const int64_t sparse_bs = sizes.back();
  double log_sum = 0;
  int pairings = 0;
  for (const char* rep : {"sparse_dense", "dense_sparse", "sparse_sparse"}) {
    double one = 0, four = 0;
    for (const Entry& e : entries) {
      if (e.kind != "gemm" || e.representation != rep || e.trans != "nn" ||
          e.block_size != sparse_bs) {
        continue;
      }
      if (e.threads == 1) one = e.gflops;
      if (e.threads == kMaxThreads) four = e.gflops;
    }
    if (one > 0 && four > 0) {
      log_sum += std::log(four / one);
      ++pairings;
    }
  }
  const double sparse_par_speedup =
      pairings > 0 ? std::exp(log_sum / pairings) : 0;
  std::printf("sparse GEMM @ bs=%lld: 4 threads -> %.2fx scaling (geometric "
              "mean of sparse_dense, dense_sparse, sparse_sparse nn)\n",
              static_cast<long long>(sparse_bs), sparse_par_speedup);

  std::string json = "{\n";
  json += "  \"schema\": \"dmac-kernel-bench-v2\",\n";
  char provenance[512];
  std::snprintf(provenance, sizeof(provenance),
                "  \"provenance\": {\"command\": \"bench_kernels%s\", "
                "\"build_type\": \"%s\", \"native_arch\": %s, "
                "\"isa\": \"%s\", \"microkernel\": \"%s\", "
                "\"nproc\": %u, \"repeats\": %d},\n",
                quick ? " --quick" : "", DMAC_BENCH_BUILD_TYPE,
                DMAC_BENCH_NATIVE_ARCH ? "true" : "false", DetectedIsa(),
                ActiveMicroKernel(), std::thread::hardware_concurrency(),
                kRepeats);
  json += provenance;
  json += "  \"default_block_size\": " + std::to_string(kDefaultBs) + ",\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "  \"dense_gemm_speedup_vs_seed\": %.3f,\n", speedup);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"dense_gemm_parallel_speedup_4t\": %.3f,\n", par_speedup);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"sparse_gemm_parallel_speedup_4t\": %.3f,\n",
                sparse_par_speedup);
  json += buf;
  json += "  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    AppendJson(&json, entries[i]);
    json += (i + 1 < entries.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", out_path.c_str(), entries.size());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dmac

int main(int argc, char** argv) { return dmac::bench::Main(argc, argv); }
