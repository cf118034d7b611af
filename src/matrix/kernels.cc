// Kernel implementations. This TU is compiled -O3 -ffp-contract=off (plus
// -march=native when DMAC_NATIVE_ARCH is on) so the fixed-trip-count loops
// below vectorize without fusing multiply-adds; see docs/kernels.md for
// the design and how it was verified with -fopt-info-vec.
#include "matrix/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "matrix/spgemm.h"

namespace dmac {

namespace {

// ---- packing -------------------------------------------------------------
// A is packed into row micro-panels of kGemmMr rows: within a panel the
// element order is (l, i) — the kGemmMr values of one k-slice are
// contiguous, which is exactly the broadcast order the micro-kernel reads.
// B is packed into column micro-panels of kGemmNr columns in (l, j) order.
// Ragged edges are zero-padded so the micro-kernel always runs full tiles;
// the zero lanes fold into local accumulators that are never written back.
//
// Each packer returns true when the packed micro-panel contains at least
// one non-zero — the cheap column/row-skip prefilter: an all-zero panel
// contributes nothing, and skipping exact zeros never changes a finite sum.

/// Any-nonzero scan over a packed panel (contiguous, vectorizes).
bool AnyNonZero(const Scalar* p, int64_t n) {
  // Branch-free accumulation of the "some bit set" predicate.
  Scalar acc = 0;
  for (int64_t i = 0; i < n; ++i) acc += p[i] != Scalar{0} ? Scalar{1} : Scalar{0};
  return acc != Scalar{0};
}

/// Packs rows [i0, i0+mc) x cols [l0, l0+kc) of the effective A (m x k)
/// into `pack`. `a` is the stored block; when `trans` is set the effective
/// A(i, l) is stored at a(l, i).
void PackA(const DenseBlock& a, bool trans, int64_t i0, int64_t mc,
           int64_t l0, int64_t kc, Scalar* pack) {
  const int64_t panels = (mc + kGemmMr - 1) / kGemmMr;
  for (int64_t p = 0; p < panels; ++p) {
    Scalar* dst = pack + p * kGemmMr * kc;
    const int64_t ibase = i0 + p * kGemmMr;
    const int64_t mr = std::min<int64_t>(kGemmMr, i0 + mc - ibase);
    if (!trans) {
      // Stored column-major m x k: a column of A holds consecutive i.
      for (int64_t l = 0; l < kc; ++l) {
        const Scalar* src = a.col(l0 + l) + ibase;
        for (int64_t i = 0; i < mr; ++i) dst[l * kGemmMr + i] = src[i];
        for (int64_t i = mr; i < kGemmMr; ++i) dst[l * kGemmMr + i] = 0;
      }
    } else {
      // Stored k x m: effective row i of A is stored column i — packing a
      // transposed operand reads contiguously, no transposed copy needed.
      for (int64_t i = 0; i < mr; ++i) {
        const Scalar* src = a.col(ibase + i) + l0;
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmMr + i] = src[l];
      }
      for (int64_t i = mr; i < kGemmMr; ++i) {
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmMr + i] = 0;
      }
    }
  }
}

/// Packs rows [l0, l0+kc) x cols [j0, j0+nc) of the effective B (k x n)
/// into `pack`, and records per-micro-panel nonzero flags in `live`.
void PackB(const DenseBlock& b, bool trans, int64_t l0, int64_t kc,
           int64_t j0, int64_t nc, Scalar* pack, std::vector<char>* live) {
  const int64_t panels = (nc + kGemmNr - 1) / kGemmNr;
  live->assign(static_cast<size_t>(panels), 0);
  for (int64_t p = 0; p < panels; ++p) {
    Scalar* dst = pack + p * kGemmNr * kc;
    const int64_t jbase = j0 + p * kGemmNr;
    const int64_t nr = std::min<int64_t>(kGemmNr, j0 + nc - jbase);
    if (!trans) {
      // Stored k x n: effective column j is stored column j.
      for (int64_t j = 0; j < nr; ++j) {
        const Scalar* src = b.col(jbase + j) + l0;
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmNr + j] = src[l];
      }
      for (int64_t j = nr; j < kGemmNr; ++j) {
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmNr + j] = 0;
      }
    } else {
      // Stored n x k: effective B(l, j) is stored at b(j, l); one k-slice
      // of the panel is a contiguous run of the stored column l.
      for (int64_t l = 0; l < kc; ++l) {
        const Scalar* src = b.col(l0 + l) + jbase;
        for (int64_t j = 0; j < nr; ++j) dst[l * kGemmNr + j] = src[j];
        for (int64_t j = nr; j < kGemmNr; ++j) dst[l * kGemmNr + j] = 0;
      }
    }
    (*live)[static_cast<size_t>(p)] = AnyNonZero(dst, kc * kGemmNr) ? 1 : 0;
  }
}

// ---- micro-kernel --------------------------------------------------------

/// acc(kGemmMr x kGemmNr tile at (i, j)) += packed_a · packed_b over kc.
/// Fixed trip counts over the register tile let the compiler keep the
/// accumulators in vector registers — but only if the tile loops are
/// actually flattened: without the explicit unroll pragmas gcc vectorizes
/// the j loop yet leaves `acc` addressable on the stack, reloading and
/// respilling the whole tile every k step (measured ~12x slower than the
/// fully unrolled form on AVX-512, ~5x on baseline SSE2). Only the first
/// mr x nr elements are written back (edge tiles).
///
/// Always inlined into one wrapper per ISA level below, each compiled for
/// its target. The TU is built -ffp-contract=off, so no variant fuses a
/// multiply and its add into an FMA: every lane computes the same rounded
/// product and sum in the same k order, and all variants agree bit for bit.
[[gnu::always_inline]] inline void MicroKernelBody(
    int64_t kc, const Scalar* __restrict a, const Scalar* __restrict b,
    Scalar* c, int64_t ldc, int64_t mr, int64_t nr) {
  // The unroll factors below must match the tile; update them together.
  static_assert(kGemmMr == 8 && kGemmNr == 16);
  Scalar acc[kGemmMr][kGemmNr] = {};
  for (int64_t l = 0; l < kc; ++l) {
    const Scalar* al = a + l * kGemmMr;
    const Scalar* bl = b + l * kGemmNr;
#pragma GCC unroll 8
    for (int64_t i = 0; i < kGemmMr; ++i) {
      const Scalar ai = al[i];
#pragma GCC unroll 16
      for (int64_t j = 0; j < kGemmNr; ++j) acc[i][j] += ai * bl[j];
    }
  }
  for (int64_t j = 0; j < nr; ++j) {
    Scalar* col = c + j * ldc;
    for (int64_t i = 0; i < mr; ++i) col[i] += acc[i][j];
  }
}

using MicroKernelFn = void (*)(int64_t, const Scalar*, const Scalar*, Scalar*,
                               int64_t, int64_t, int64_t);

void MicroKernelBaseline(int64_t kc, const Scalar* a, const Scalar* b,
                         Scalar* c, int64_t ldc, int64_t mr, int64_t nr) {
  MicroKernelBody(kc, a, b, c, ldc, mr, nr);
}

struct IsaVariant {
  const char* name;  // the x86-64 ISA level it is compiled for
  int level;         // that level's number (0 off x86-64)
  MicroKernelFn fn;
  bool supported;    // the running CPU can execute it
};

#if defined(__x86_64__)
// Each wrapper targets the vector features of its level, and only those,
// so the features the startup check tests (by names gcc and clang both
// accept) are exactly the ones its code may use.
[[gnu::target("avx2,fma,bmi,bmi2")]] void MicroKernelV3(
    int64_t kc, const Scalar* a, const Scalar* b, Scalar* c, int64_t ldc,
    int64_t mr, int64_t nr) {
  MicroKernelBody(kc, a, b, c, ldc, mr, nr);
}

[[gnu::target("avx2,fma,bmi,bmi2,avx512f,avx512bw,avx512cd,avx512dq,"
              "avx512vl")]] void MicroKernelV4(
    int64_t kc, const Scalar* a, const Scalar* b, Scalar* c, int64_t ldc,
    int64_t mr, int64_t nr) {
  MicroKernelBody(kc, a, b, c, ldc, mr, nr);
}

/// Baseline first, widest last.
const std::vector<IsaVariant>& MicroKernelVariants() {
  static const std::vector<IsaVariant> variants = [] {
    __builtin_cpu_init();
    const bool v3 = __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma") &&
                    __builtin_cpu_supports("bmi") &&
                    __builtin_cpu_supports("bmi2");
    const bool v4 = v3 && __builtin_cpu_supports("avx512f") &&
                    __builtin_cpu_supports("avx512bw") &&
                    __builtin_cpu_supports("avx512cd") &&
                    __builtin_cpu_supports("avx512dq") &&
                    __builtin_cpu_supports("avx512vl");
    return std::vector<IsaVariant>{
        {"x86-64", 1, &MicroKernelBaseline, true},
        {"x86-64-v3", 3, &MicroKernelV3, v3},
        {"x86-64-v4", 4, &MicroKernelV4, v4},
    };
  }();
  return variants;
}
#else
const std::vector<IsaVariant>& MicroKernelVariants() {
  static const std::vector<IsaVariant> variants = {
      {"baseline", 0, &MicroKernelBaseline, true}};
  return variants;
}
#endif

/// Index into MicroKernelVariants() of the variant every dense GEMM calls:
/// the widest supported one, chosen at startup; UseMicroKernel switches it
/// for differential tests and benches.
std::atomic<size_t> g_micro_kernel{[] {
  const std::vector<IsaVariant>& variants = MicroKernelVariants();
  size_t widest = 0;
  for (size_t v = 0; v < variants.size(); ++v) {
    if (variants[v].supported) widest = v;
  }
  return widest;
}()};

const IsaVariant& ActiveVariant() {
  return MicroKernelVariants()[g_micro_kernel.load(std::memory_order_relaxed)];
}

/// Effective dimensions of a possibly-flagged operand.
int64_t EffRows(const DenseBlock& x, bool trans) {
  return trans ? x.cols() : x.rows();
}
int64_t EffCols(const DenseBlock& x, bool trans) {
  return trans ? x.rows() : x.cols();
}

/// Runs `task(t)` for every t in [0, n) via ParallelFor on `par`'s pool,
/// each call through `par.wrap_task` when one is set, and counts the tasks
/// that ran into `stats`. Returns false when the abandon flag stopped the
/// loop early: the accumulator then holds a partial sum, which the engine
/// discards, reporting the governor's precise cancel reason over the
/// kernel's generic one.
bool FanOut(const GemmParallel& par, int64_t n, GemmStats* stats,
            const std::function<void(int64_t)>& task) {
  std::function<void(int64_t)> run = task;
  if (par.wrap_task) {
    run = [&par, &task](int64_t t) {
      par.wrap_task([&task, t] { task(t); });
    };
  }
  const int64_t ran = ParallelFor(par.pool, n, par.max_workers - 1,
                                  par.abandon, std::move(run));
  if (stats != nullptr) stats->tasks += static_cast<double>(ran);
  return ran == n;
}

/// Stages the dense transpose of `x` into scratch and returns the staged
/// block (used by the mixed dense/sparse flagged kernels, where packing
/// cannot absorb the transpose). Counted as packing time. With `par` set,
/// the 32-column tiles fan out over its pool: each writes its own rows of
/// the staged block, and a copy is exact in any order.
Result<const DenseBlock*> StageTranspose(const DenseBlock& x,
                                         GemmScratch* scratch,
                                         GemmStats* stats,
                                         const GemmParallel* par = nullptr) {
  Timer timer;
  DMAC_ASSIGN_OR_RETURN(DenseBlock * staged,
                        scratch->Staging(x.cols(), x.rows()));
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  // Tiled transpose to keep both sides cache-resident.
  constexpr int64_t kTile = 32;
  const auto tile = [&](int64_t t) {
    const int64_t c0 = t * kTile;
    const int64_t c1 = std::min(cols, c0 + kTile);
    for (int64_t r0 = 0; r0 < rows; r0 += kTile) {
      const int64_t r1 = std::min(rows, r0 + kTile);
      for (int64_t c = c0; c < c1; ++c) {
        const Scalar* src = x.col(c);
        for (int64_t r = r0; r < r1; ++r) {
          staged->col(r)[c] = src[r];
        }
      }
    }
  };
  const int64_t tiles = (cols + kTile - 1) / kTile;
  if (par == nullptr) {
    for (int64_t t = 0; t < tiles; ++t) tile(t);
  } else if (!FanOut(*par, tiles, stats, tile)) {
    return Status::Cancelled("transpose staging abandoned at tile boundary");
  }
  if (stats != nullptr) stats->pack_seconds += timer.ElapsedSeconds();
  return staged;
}

}  // namespace

// ---- micro-kernel dispatch -----------------------------------------------

const char* ActiveMicroKernel() { return ActiveVariant().name; }

int ActiveMicroKernelLevel() { return ActiveVariant().level; }

std::vector<std::string> SupportedMicroKernels() {
  std::vector<std::string> names;
  for (const IsaVariant& v : MicroKernelVariants()) {
    if (v.supported) names.emplace_back(v.name);
  }
  return names;
}

bool UseMicroKernel(const std::string& name) {
  const std::vector<IsaVariant>& variants = MicroKernelVariants();
  for (size_t v = 0; v < variants.size(); ++v) {
    if (variants[v].supported && name == variants[v].name) {
      g_micro_kernel.store(v, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

// ---- GemmScratch ---------------------------------------------------------

GemmScratch::~GemmScratch() {
  if (has_a_) ReleaseBlock(std::move(panel_a_));
  if (has_b_) ReleaseBlock(std::move(panel_b_));
  if (has_staging_) ReleaseBlock(std::move(staging_));
}

Result<DenseBlock> GemmScratch::AcquireBlock(int64_t rows, int64_t cols) {
  if (acquire_) return acquire_(rows, cols);
  return DenseBlock(rows, cols);
}

void GemmScratch::ReleaseBlock(DenseBlock block) {
  if (release_) release_(std::move(block));
}

Result<Scalar*> GemmScratch::PanelA(int64_t elems) {
  if (has_a_ && panel_a_.rows() * panel_a_.cols() < elems) {
    ReleaseBlock(std::move(panel_a_));
    has_a_ = false;
  }
  if (!has_a_) {
    DMAC_ASSIGN_OR_RETURN(panel_a_, AcquireBlock(elems, 1));
    has_a_ = true;
  }
  return panel_a_.data();
}

Result<Scalar*> GemmScratch::PanelB(int64_t elems) {
  if (has_b_ && panel_b_.rows() * panel_b_.cols() < elems) {
    ReleaseBlock(std::move(panel_b_));
    has_b_ = false;
  }
  if (!has_b_) {
    DMAC_ASSIGN_OR_RETURN(panel_b_, AcquireBlock(elems, 1));
    has_b_ = true;
  }
  return panel_b_.data();
}

Result<DenseBlock*> GemmScratch::Staging(int64_t rows, int64_t cols) {
  if (has_staging_ &&
      (staging_.rows() != rows || staging_.cols() != cols)) {
    ReleaseBlock(std::move(staging_));
    has_staging_ = false;
  }
  if (!has_staging_) {
    DMAC_ASSIGN_OR_RETURN(staging_, AcquireBlock(rows, cols));
    has_staging_ = true;
  }
  return &staging_;
}

// ---- dense GEMM ----------------------------------------------------------

namespace {

/// Column width of one parallel tile task: 8 Nr panels. Wide enough that
/// the task body dwarfs the ParallelFor claim (an Mc×128×Kc tile is ~8.4
/// MFLOP), narrow enough that a 256-column block still yields 2 chunks per
/// Mc panel for load balancing. A multiple of kGemmNr so chunk boundaries
/// align with packed micro-panels.
constexpr int64_t kGemmParColChunk = 8 * kGemmNr;

int64_t RoundUp(int64_t v, int64_t unit) { return (v + unit - 1) / unit * unit; }

/// Threaded macro-kernel: per Kc slice, pack the *full* m-height A panel
/// and n-width B panel serially, then fan the (Mc-row-panel ×
/// column-chunk) tile tasks out over the pool. Every tile task reads the
/// shared packed panels and writes a disjoint set of accumulator tiles,
/// and the Kc loop stays serial, so each C element sees the same packed
/// values added in the same order as the serial path — bit-identical.
Status GemmDenseThreaded(const DenseBlock& a, const DenseBlock& b,
                         bool trans_a, bool trans_b, DenseBlock* acc,
                         GemmScratch* scratch, GemmStats* stats,
                         const GemmParallel& par, int64_t m, int64_t n,
                         int64_t k) {
  const int64_t kc_max = std::min(k, kGemmKc);
  DMAC_ASSIGN_OR_RETURN(Scalar * pack_a,
                        scratch->PanelA(RoundUp(m, kGemmMr) * kc_max));
  DMAC_ASSIGN_OR_RETURN(Scalar * pack_b,
                        scratch->PanelB(kc_max * RoundUp(n, kGemmNr)));
  std::vector<char> b_live;
  const MicroKernelFn micro_kernel = ActiveVariant().fn;

  const int64_t row_panels = (m + kGemmMc - 1) / kGemmMc;
  const int64_t col_chunks = (n + kGemmParColChunk - 1) / kGemmParColChunk;
  const int64_t tiles = row_panels * col_chunks;

  for (int64_t l0 = 0; l0 < k; l0 += kGemmKc) {
    const int64_t kc = std::min(kGemmKc, k - l0);
    Timer pack_timer;
    PackB(b, trans_b, l0, kc, 0, n, pack_b, &b_live);
    PackA(a, trans_a, 0, m, l0, kc, pack_a);
    if (stats != nullptr) stats->pack_seconds += pack_timer.ElapsedSeconds();

    auto tile = [&](int64_t t) {
      const int64_t i0 = (t / col_chunks) * kGemmMc;
      const int64_t mc = std::min(kGemmMc, m - i0);
      const int64_t j0 = (t % col_chunks) * kGemmParColChunk;
      const int64_t nc = std::min(kGemmParColChunk, n - j0);
      // Mc and the chunk width are multiples of Mr/Nr, so this tile's
      // micro-panels index cleanly into the full packed panels.
      const int64_t ip0 = i0 / kGemmMr;
      const int64_t jp0 = j0 / kGemmNr;
      const int64_t jpanels = (nc + kGemmNr - 1) / kGemmNr;
      const int64_t ipanels = (mc + kGemmMr - 1) / kGemmMr;
      for (int64_t jp = 0; jp < jpanels; ++jp) {
        if (!b_live[static_cast<size_t>(jp0 + jp)]) continue;
        const int64_t j = j0 + jp * kGemmNr;
        const int64_t nr = std::min<int64_t>(kGemmNr, n - j);
        for (int64_t ip = 0; ip < ipanels; ++ip) {
          const int64_t i = i0 + ip * kGemmMr;
          const int64_t mr = std::min<int64_t>(kGemmMr, m - i);
          micro_kernel(kc, pack_a + (ip0 + ip) * kGemmMr * kc,
                       pack_b + (jp0 + jp) * kGemmNr * kc, acc->col(j) + i,
                       acc->rows(), mr, nr);
        }
      }
    };
    if (!FanOut(par, tiles, stats, tile)) {
      return Status::Cancelled("dense GEMM abandoned at tile-task boundary");
    }
  }
  return Status::Ok();
}

}  // namespace

Status GemmDense(const DenseBlock& a, const DenseBlock& b, bool trans_a,
                 bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                 GemmStats* stats, const GemmParallel* par) {
  const int64_t m = EffRows(a, trans_a);
  const int64_t k = EffCols(a, trans_a);
  const int64_t n = EffCols(b, trans_b);
  if (m == 0 || n == 0 || k == 0) return Status::Ok();
  if (stats != nullptr) stats->flops += 2.0 * m * n * k;

  GemmScratch local;
  if (scratch == nullptr) scratch = &local;
  if (par != nullptr && par->Enabled() &&
      2.0 * m * n * k >= static_cast<double>(kGemmParallelMinFlops)) {
    return GemmDenseThreaded(a, b, trans_a, trans_b, acc, scratch, stats,
                             *par, m, n, k);
  }
  // Panels are sized to the actual blocking this call uses (capped at the
  // full cache-block panels) so small multiplies charge small buffers
  // against a governed budget; exhaustion propagates as a Status.
  const int64_t kc_max = std::min(k, kGemmKc);
  const int64_t a_elems = RoundUp(std::min(m, kGemmMc), kGemmMr) * kc_max;
  const int64_t b_elems = kc_max * RoundUp(std::min(n, kGemmNc), kGemmNr);
  DMAC_ASSIGN_OR_RETURN(Scalar * pack_a, scratch->PanelA(a_elems));
  DMAC_ASSIGN_OR_RETURN(Scalar * pack_b, scratch->PanelB(b_elems));
  std::vector<char> b_live;
  const MicroKernelFn micro_kernel = ActiveVariant().fn;

  for (int64_t j0 = 0; j0 < n; j0 += kGemmNc) {
    const int64_t nc = std::min(kGemmNc, n - j0);
    for (int64_t l0 = 0; l0 < k; l0 += kGemmKc) {
      const int64_t kc = std::min(kGemmKc, k - l0);
      Timer pack_timer;
      PackB(b, trans_b, l0, kc, j0, nc, pack_b, &b_live);
      if (stats != nullptr) {
        stats->pack_seconds += pack_timer.ElapsedSeconds();
      }
      for (int64_t i0 = 0; i0 < m; i0 += kGemmMc) {
        const int64_t mc = std::min(kGemmMc, m - i0);
        pack_timer.Reset();
        PackA(a, trans_a, i0, mc, l0, kc, pack_a);
        if (stats != nullptr) {
          stats->pack_seconds += pack_timer.ElapsedSeconds();
        }
        const int64_t jpanels = (nc + kGemmNr - 1) / kGemmNr;
        const int64_t ipanels = (mc + kGemmMr - 1) / kGemmMr;
        for (int64_t jp = 0; jp < jpanels; ++jp) {
          if (!b_live[static_cast<size_t>(jp)]) continue;  // zero columns
          const int64_t j = j0 + jp * kGemmNr;
          const int64_t nr = std::min<int64_t>(kGemmNr, n - j);
          for (int64_t ip = 0; ip < ipanels; ++ip) {
            const int64_t i = i0 + ip * kGemmMr;
            const int64_t mr = std::min<int64_t>(kGemmMr, m - i);
            micro_kernel(kc, pack_a + ip * kGemmMr * kc,
                         pack_b + jp * kGemmNr * kc, acc->col(j) + i,
                         acc->rows(), mr, nr);
          }
        }
      }
    }
  }
  return Status::Ok();
}

// ---- sparse chunking -----------------------------------------------------
// A sparse kernel call owns an output slice of the accumulator. The serial
// path owns all of it; the threaded path cuts it along one axis into
// chunks that each write a disjoint set of output elements. Inside a chunk
// every element receives its terms in the serial loop's order, so the
// threaded result is bit-identical to the serial one.

namespace {

/// Output rows [i0, i1) × columns [j0, j1) one kernel call computes.
struct OutSlice {
  int64_t i0, i1;
  int64_t j0, j1;
};

enum class SplitAxis { kCols, kRows };

/// Chunks per participating worker. The weights below only estimate the
/// work, so a few chunks per worker let ParallelFor's dynamic claim even
/// out what they miss.
constexpr int64_t kSparseChunksPerWorker = 4;

/// Row chunks start on multiples of one 64-byte cache line of floats, so
/// chunks do not share accumulator lines (false sharing). Outputs under two
/// lines tall do not split by rows.
constexpr int64_t kRowChunkAlign = 64 / sizeof(Scalar);

/// The contiguous-axpy kernels (DnSpPlain, DnSpTransB) stream one dense
/// column per stored entry at vector speed: BENCH_kernels.json has
/// dense_sparse nn at ~7× the flop rate of sparse_dense nn at block 256.
/// Their fan-out gate counts at most this many rows of that column, so
/// they fan out only once a call takes about as long as a scalar sparse
/// kernel at the threshold.
constexpr int64_t kAxpyGateRows = 16;

/// Largest accumulator (bytes) that sparse·denseᵀ scatters into by rows
/// (SpDnTransB) instead of staging Bᵀ: every term of that kernel writes
/// another cache line of C, which pays only while C stays in L1. Measured
/// at densities 0.0118 and 0.02 on a 48 KiB-L1d AVX-512 Xeon: 0.22–0.48×
/// the staged path's time up to 112×112 (49 KB), 1.2–1.6× at 128×128
/// (64 KB) (docs/kernels.md#small-blocks).
constexpr int64_t kRowScatterMaxAccBytes = 56 * 1024;

/// Prefix work over output indices: every index costs one unit (loop
/// overhead), plus the nnz of the matching column of `csc` when set —
/// the power-law hub columns that make column counts a poor balance.
struct Weight {
  const CscBlock* csc = nullptr;
  int64_t operator()(int64_t i) const {
    return i + (csc != nullptr ? csc->ColStart(i) : 0);
  }
};

/// Boundaries 0 = b_0 < b_1 < ... < b_c = extent cutting [0, extent) into
/// at most `chunks` non-empty ranges of about equal `weight`, with every
/// inner boundary a multiple of `align`. Each boundary is the index whose
/// prefix lies nearest its target, so an index heavier than one chunk's
/// share closes a range on its own, and two columns of unequal weight
/// still split.
std::vector<int64_t> SplitByWeight(int64_t extent, int64_t chunks,
                                   int64_t align, Weight weight) {
  std::vector<int64_t> bounds = {0};
  const double total = static_cast<double>(weight(extent));
  for (int64_t c = 1; c < chunks; ++c) {
    const double target = total * static_cast<double>(c) /
                           static_cast<double>(chunks);
    // First index whose prefix reaches the target.
    int64_t lo = bounds.back();
    int64_t hi = extent;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (static_cast<double>(weight(mid)) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > bounds.back() + 1 &&
        target - static_cast<double>(weight(lo - 1)) <
            static_cast<double>(weight(lo)) - target) {
      --lo;
    }
    lo = RoundUp(lo, align);
    if (lo > bounds.back() && lo < extent) bounds.push_back(lo);
  }
  bounds.push_back(extent);
  return bounds;
}

/// True when a sparse call of `work` may fan out over `par`.
bool AboveSparseCutoff(const GemmParallel* par, double work) {
  return par != nullptr && par->Enabled() &&
         work >= static_cast<double>(kSparseParallelMinWork);
}

/// True when a sparse call of `work` fans out by columns over an output
/// `cols` wide; the A·Bᵀ paths build CSC of Bᵀ only then.
bool SplitsCols(const GemmParallel* par, double work, int64_t cols) {
  return cols >= 2 && AboveSparseCutoff(par, work);
}

/// Axis for the gather kernels (the TransA cases), which compute each
/// output element as one dot product and so split either axis at no extra
/// cost: column chunks when the output has a column for every worker,
/// row chunks for narrower (SpMV-shaped) outputs. The scatter kernels
/// split columns only: a row chunk of theirs re-walks the whole sparse
/// operand, and measured 0.1–0.7× serial on column-vector outputs
/// (docs/kernels.md).
SplitAxis ColsUnlessNarrow(const GemmParallel* par, int64_t cols) {
  return par == nullptr || cols >= par->max_workers ? SplitAxis::kCols
                                                    : SplitAxis::kRows;
}

/// Runs `kernel(slice)` once over the whole accumulator when `par` is off
/// or `work` is below its sparse threshold — a plain call, no closure or
/// allocation — else over nnz-balanced `axis` chunks on the pool. An
/// output too narrow along `axis` for two chunks (a single row, say)
/// cannot split and also runs serially.
template <typename Kernel>
Status RunSparse(const GemmParallel* par, double work, DenseBlock* acc,
                 SplitAxis axis, Weight weight, GemmStats* stats,
                 const Kernel& kernel) {
  const OutSlice whole{0, acc->rows(), 0, acc->cols()};
  if (!AboveSparseCutoff(par, work)) {
    kernel(whole);
    return Status::Ok();
  }
  const bool by_cols = axis == SplitAxis::kCols;
  const int64_t extent = by_cols ? acc->cols() : acc->rows();
  const int64_t align = by_cols ? 1 : kRowChunkAlign;
  const int64_t chunks = std::min<int64_t>(
      RoundUp(extent, align) / align, par->max_workers * kSparseChunksPerWorker);
  if (chunks < 2) {
    kernel(whole);
    return Status::Ok();
  }
  const std::vector<int64_t> bounds =
      SplitByWeight(extent, chunks, align, weight);
  const auto chunk = [&](int64_t c) {
    OutSlice s = whole;
    int64_t& begin = by_cols ? s.j0 : s.i0;
    int64_t& end = by_cols ? s.j1 : s.i1;
    begin = bounds[static_cast<size_t>(c)];
    end = bounds[static_cast<size_t>(c) + 1];
    kernel(s);
  };
  if (!FanOut(*par, static_cast<int64_t>(bounds.size()) - 1, stats, chunk)) {
    return Status::Cancelled("sparse multiply abandoned at chunk boundary");
  }
  return Status::Ok();
}

}  // namespace

// ---- sparse x dense ------------------------------------------------------

namespace {

/// Stored columns of `a` that hold at least one entry, ascending.
std::vector<int32_t> NonEmptyCols(const CscBlock& a) {
  std::vector<int32_t> cols;
  for (int64_t l = 0; l < a.cols(); ++l) {
    if (a.ColStart(l) != a.ColEnd(l)) cols.push_back(static_cast<int32_t>(l));
  }
  return cols;
}

/// acc += A_csc · B_dense, both untransposed: scatter A's column l scaled
/// by B(l, j) — the seed formulation with the zero test hoisted to the
/// sparse structure (no per-element branch; B's zeros cost one madd each
/// inside the axpy, A's zeros are absent from the structure). Only A's
/// non-empty columns `live` are visited, in ascending order, so each
/// C(r, j) still receives its terms in ascending l.
void SpDnPlain(const CscBlock& a, const DenseBlock& b,
               const std::vector<int32_t>& live, DenseBlock* acc,
               OutSlice s) {
  const int32_t* rows = a.row_idx().data();
  const Scalar* vals = a.values().data();
  for (int64_t j = s.j0; j < s.j1; ++j) {
    Scalar* c_col = acc->col(j);
    const Scalar* b_col = b.col(j);
    for (const int32_t l : live) {
      const Scalar t = b_col[l];
      if (t == Scalar{0}) continue;  // column-skip over B's zero entries
      const int32_t end = a.ColEnd(l);
      for (int32_t p = a.ColStart(l); p < end; ++p) {
        c_col[rows[p]] += vals[p] * t;
      }
    }
  }
}

/// acc += A_csc · Bᵀ with B stored dense n x k: stored column l of B holds
/// B(j, l) contiguous over j, so each stored A(r, l) scales it into C's
/// row r, skipping B's zero entries. C(r, j) receives its terms in
/// ascending l, the order SpDnPlain gives over a staged Bᵀ, so the result
/// is bit-identical without the staging copy. Walking C by rows touches a
/// cache line per term, so GemmSparseDense runs this only on accumulators
/// up to kRowScatterMaxAccBytes.
void SpDnTransB(const CscBlock& a, const DenseBlock& b, DenseBlock* acc,
                OutSlice s) {
  const int64_t k = a.cols();
  const int64_t ldc = acc->rows();
  const int32_t* rows = a.row_idx().data();
  const Scalar* vals = a.values().data();
  for (int64_t l = 0; l < k; ++l) {
    const Scalar* b_col = b.col(l);
    const int32_t end = a.ColEnd(l);
    for (int32_t p = a.ColStart(l); p < end; ++p) {
      const Scalar v = vals[p];
      Scalar* c_row = acc->data() + rows[p];
      for (int64_t j = s.j0; j < s.j1; ++j) {
        const Scalar t = b_col[j];
        if (t != Scalar{0}) c_row[j * ldc] += v * t;
      }
    }
  }
}

/// acc += Aᵀ · B with A stored CSC: the stored arrays read as CSR of the
/// logical A, so C(i, j) is a gather dot product of stored column i against
/// B's column j. No sparse transpose is built.
void SpDnTransA(const CscBlock& a, const DenseBlock& b, DenseBlock* acc,
                OutSlice s) {
  const int32_t* rows = a.row_idx().data();
  const Scalar* vals = a.values().data();
  for (int64_t j = s.j0; j < s.j1; ++j) {
    Scalar* c_col = acc->col(j);
    const Scalar* b_col = b.col(j);
    for (int64_t i = s.i0; i < s.i1; ++i) {
      const int32_t end = a.ColEnd(i);
      Scalar sum = 0;
      for (int32_t p = a.ColStart(i); p < end; ++p) {
        sum += vals[p] * b_col[rows[p]];
      }
      c_col[i] += sum;
    }
  }
}

}  // namespace

Status GemmSparseDense(const CscBlock& a, const DenseBlock& b, bool trans_a,
                       bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                       GemmStats* stats, const GemmParallel* par) {
  GemmScratch local;
  if (scratch == nullptr) scratch = &local;
  const int64_t n = trans_b ? b.rows() : b.cols();
  const double work = 2.0 * static_cast<double>(a.nnz()) * n;
  if (stats != nullptr) stats->flops += work;
  if (trans_b && !trans_a &&
      acc->rows() * acc->cols() * static_cast<int64_t>(sizeof(Scalar)) <=
          kRowScatterMaxAccBytes) {
    return RunSparse(par, work, acc, SplitAxis::kCols, Weight{}, stats,
                     [&](OutSlice s) { SpDnTransB(a, b, acc, s); });
  }
  const DenseBlock* beff = &b;
  if (trans_b) {
    DMAC_ASSIGN_OR_RETURN(
        beff, StageTranspose(b, scratch, stats,
                             AboveSparseCutoff(par, work) ? par : nullptr));
  }
  if (trans_a) {
    // Every output column gathers over all of A; output row i gathers over
    // A's stored column i.
    const SplitAxis axis = ColsUnlessNarrow(par, n);
    const Weight weight = axis == SplitAxis::kRows ? Weight{&a} : Weight{};
    return RunSparse(par, work, acc, axis, weight, stats,
                     [&](OutSlice s) { SpDnTransA(a, *beff, acc, s); });
  }
  const std::vector<int32_t> live = NonEmptyCols(a);
  return RunSparse(par, work, acc, SplitAxis::kCols, Weight{}, stats,
                   [&](OutSlice s) { SpDnPlain(a, *beff, live, acc, s); });
}

// ---- dense x sparse ------------------------------------------------------

namespace {

/// acc += A_dense · B_csc: contiguous axpy of A's column l per stored
/// non-zero B(l, j).
void DnSpPlain(const DenseBlock& a, const CscBlock& b, DenseBlock* acc,
               OutSlice s) {
  const int64_t m = a.rows();
  const int32_t* rows = b.row_idx().data();
  const Scalar* vals = b.values().data();
  if (m == 1) {
    // One output row (PageRank's rank·link): each axpy is a single madd,
    // so keep the running sum in a register. Same terms, same order.
    const Scalar* a_row = a.data();
    for (int64_t j = s.j0; j < s.j1; ++j) {
      Scalar c = acc->col(j)[0];
      for (int32_t p = b.ColStart(j); p < b.ColEnd(j); ++p) {
        c += a_row[rows[p]] * vals[p];
      }
      acc->col(j)[0] = c;
    }
    return;
  }
  for (int64_t j = s.j0; j < s.j1; ++j) {
    Scalar* c_col = acc->col(j);
    for (int32_t p = b.ColStart(j); p < b.ColEnd(j); ++p) {
      const Scalar* a_col = a.col(rows[p]);
      const Scalar t = vals[p];
      for (int64_t i = 0; i < m; ++i) c_col[i] += a_col[i] * t;
    }
  }
}

/// acc += Aᵀ · B_csc with A stored dense k x m: C(i, j) gathers stored
/// column i of A at B's column-j row indices. Per non-empty column j, a
/// partial-sum vector over the slice's rows takes B's entries in stored
/// order and is then added to C's column once: each C(i, j) gets the terms
/// of the per-element dot product in its order, summed before the one add
/// into C, with loops that run over the rows rather than over a column's
/// few entries.
void DnSpTransA(const DenseBlock& a, const CscBlock& b, DenseBlock* acc,
                OutSlice s) {
  const int64_t lda = a.rows();
  const int64_t len = s.i1 - s.i0;
  const int32_t* rows = b.row_idx().data();
  const Scalar* vals = b.values().data();
  std::vector<Scalar> sum(static_cast<size_t>(len));
  for (int64_t j = s.j0; j < s.j1; ++j) {
    const int32_t start = b.ColStart(j);
    const int32_t end = b.ColEnd(j);
    if (start == end) continue;
    std::fill(sum.begin(), sum.end(), Scalar{0});
    for (int32_t p = start; p < end; ++p) {
      const Scalar v = vals[p];
      // A(rows[p], i) for i in the slice, one stored column apart.
      const Scalar* a_row = a.col(s.i0) + rows[p];
      for (int64_t i = 0; i < len; ++i) sum[i] += v * a_row[i * lda];
    }
    Scalar* c_col = acc->col(j) + s.i0;
    for (int64_t i = 0; i < len; ++i) c_col[i] += sum[i];
  }
}

/// acc += A · Bᵀ with B stored CSC n x k: stored column l of B is row l of
/// the logical Bᵀ... i.e. each stored entry (j, t) in column l contributes
/// t · A(:, l) to C(:, j) — a contiguous axpy per non-zero, no transpose
/// copy. Serial only: it scatters across output columns (see
/// GemmDenseSparse).
void DnSpTransB(const DenseBlock& a, const CscBlock& b, DenseBlock* acc) {
  const int64_t m = a.rows();
  const int64_t k = b.cols();  // stored columns = effective inner dim
  const int32_t* rows = b.row_idx().data();
  const Scalar* vals = b.values().data();
  for (int64_t l = 0; l < k; ++l) {
    const Scalar* a_col = a.col(l);
    for (int32_t p = b.ColStart(l); p < b.ColEnd(l); ++p) {
      Scalar* c_col = acc->col(rows[p]);
      const Scalar t = vals[p];
      for (int64_t i = 0; i < m; ++i) c_col[i] += a_col[i] * t;
    }
  }
}

/// CSC of bᵀ, which is also CSR of b: one O(nnz) pass, counted as pack
/// time. Each column of the copy lists its entries in ascending inner
/// index, the order the A·Bᵀ scatter kernels visit them, so the plain
/// kernels over the copy add the same terms in the same order.
CscBlock TransposedCsc(const CscBlock& b, GemmStats* stats) {
  Timer timer;
  CscBlock t = b.Transposed();
  if (stats != nullptr) stats->pack_seconds += timer.ElapsedSeconds();
  return t;
}

}  // namespace

Status GemmDenseSparse(const DenseBlock& a, const CscBlock& b, bool trans_a,
                       bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                       GemmStats* stats, const GemmParallel* par) {
  GemmScratch local;
  if (scratch == nullptr) scratch = &local;
  const int64_t m = trans_a ? a.cols() : a.rows();
  const double work = 2.0 * static_cast<double>(b.nnz()) * m;
  if (stats != nullptr) stats->flops += work;
  const double axpy_work = 2.0 * static_cast<double>(b.nnz()) *
                           std::min(m, kAxpyGateRows);
  // Output column j costs m madds per stored entry of B's column j.
  const auto plain = [&](const DenseBlock& lhs, const CscBlock& rhs) {
    return RunSparse(par, axpy_work, acc, SplitAxis::kCols, Weight{&rhs},
                     stats, [&](OutSlice s) { DnSpPlain(lhs, rhs, acc, s); });
  };
  if (!trans_b && trans_a && b.nnz() < a.rows()) {
    // Aᵀ·B_csc with very sparse B: its total gather work is below one
    // transpose pass over A, so keep the gather path.
    const SplitAxis axis = ColsUnlessNarrow(par, acc->cols());
    const Weight weight = axis == SplitAxis::kCols ? Weight{&b} : Weight{};
    return RunSparse(par, work, acc, axis, weight, stats,
                     [&](OutSlice s) { DnSpTransA(a, b, acc, s); });
  }
  // Otherwise the gather dot strides A once per stored entry of B, so it is
  // cheaper to pay the one-pass dense transpose and run the contiguous axpy
  // kernel (the ~7× dense_sparse `tn` cliff in BENCH_kernels.json).
  const DenseBlock* aeff = &a;
  if (trans_a) {
    DMAC_ASSIGN_OR_RETURN(
        aeff, StageTranspose(a, scratch, stats,
                             AboveSparseCutoff(par, axpy_work) ? par : nullptr));
  }
  if (!trans_b) return plain(*aeff, b);
  // A·Bᵀ scatters each stored entry of B into a different output column,
  // which no chunk can own. A call that fans out first turns B into CSC of
  // Bᵀ and runs the plain kernel; row chunks would cost each chunk a full
  // walk of B and a strided write per entry.
  if (!SplitsCols(par, axpy_work, acc->cols())) {
    DnSpTransB(*aeff, b, acc);
    return Status::Ok();
  }
  return plain(*aeff, TransposedCsc(b, stats));
}

// ---- sparse x sparse -----------------------------------------------------

namespace {

/// acc += A_csc · B_csc, untransposed (seed scatter formulation).
void SpSpPlain(const CscBlock& a, const CscBlock& b, DenseBlock* acc,
               OutSlice s) {
  const int32_t* a_rows = a.row_idx().data();
  const Scalar* a_vals = a.values().data();
  const int32_t* b_rows = b.row_idx().data();
  const Scalar* b_vals = b.values().data();
  for (int64_t j = s.j0; j < s.j1; ++j) {
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

/// acc += A · Bᵀ, both CSC: stored entry (j, t) in B's column l pairs with
/// A's column l — scatter a_col(l) · t into C's column j. Serial only, like
/// DnSpTransB.
void SpSpTransB(const CscBlock& a, const CscBlock& b, DenseBlock* acc) {
  const int64_t k = b.cols();  // stored columns = inner dim
  const int32_t* a_rows = a.row_idx().data();
  const Scalar* a_vals = a.values().data();
  const int32_t* b_rows = b.row_idx().data();
  const Scalar* b_vals = b.values().data();
  for (int64_t l = 0; l < k; ++l) {
    const int32_t astart = a.ColStart(l);
    const int32_t aend = a.ColEnd(l);
    if (astart == aend) continue;
    for (int32_t p = b.ColStart(l); p < b.ColEnd(l); ++p) {
      Scalar* c_col = acc->col(b_rows[p]);
      const Scalar t = b_vals[p];
      for (int32_t q = astart; q < aend; ++q) {
        c_col[a_rows[q]] += a_vals[q] * t;
      }
    }
  }
}

double SpSpFlops(const CscBlock& a, const CscBlock& b, bool trans_a,
                 bool trans_b) {
  // Exact madd count: Σ over inner index l of nnz(a slice l)·nnz(b slice l)
  // would need per-slice counts; approximate with the scatter work bound
  // actually performed by each formulation.
  if (!trans_a && trans_b) {
    return 2.0 * static_cast<double>(b.nnz()) *
           (static_cast<double>(a.nnz()) / std::max<int64_t>(a.cols(), 1));
  }
  return 2.0 * static_cast<double>(a.nnz()) *
         (static_cast<double>(b.nnz()) /
          std::max<int64_t>(trans_b ? b.cols() : b.rows(), 1));
}

}  // namespace

Status GemmSparseSparse(const CscBlock& a, const CscBlock& b, bool trans_a,
                        bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                        GemmStats* stats, const GemmParallel* par,
                        const CscBlock* b_csr) {
  GemmScratch local;
  if (scratch == nullptr) scratch = &local;
  const double work = SpSpFlops(a, b, trans_a, trans_b);
  if (stats != nullptr) stats->flops += work;
  if (!trans_a) {
    const auto plain = [&](const CscBlock& rhs) {
      return RunSparse(par, work, acc, SplitAxis::kCols, Weight{&rhs}, stats,
                       [&](OutSlice s) { SpSpPlain(a, rhs, acc, s); });
    };
    if (!trans_b) return plain(b);
    // A·Bᵀ fans out over CSC of Bᵀ, as in GemmDenseSparse.
    if (!SplitsCols(par, work, acc->cols())) {
      SpSpTransB(a, b, acc);
      return Status::Ok();
    }
    return plain(TransposedCsc(b, stats));
  }
  // Aᵀ·B and Aᵀ·Bᵀ run Gustavson over CSR views: A's stored arrays already
  // read as CSR of Aᵀ (output row i is A's stored column i, which weighs
  // the row chunks), and stored B's column l is row l of the logical Bᵀ.
  // Gustavson writes each output row from one outer iteration, so it
  // splits rows; a single output row cannot split and runs serially.
  // Aᵀ·B needs CSR of B. A FormatCache-supplied `b_csr` skips the
  // conversion; otherwise it runs inline.
  CscBlock converted;
  const CscBlock* b_rows = trans_b ? &b : b_csr;
  if (b_rows == nullptr) {
    converted = TransposedCsc(b, stats);
    b_rows = &converted;
  }
  return RunSparse(par, work, acc, SplitAxis::kRows, Weight{&a}, stats,
                   [&](OutSlice s) {
                     SpGemmGustavson(a, *b_rows, acc, s.i0, s.i1);
                   });
}

// ---- vectorized elementwise / reductions ---------------------------------

void VecAccumulate(Scalar* dst, const Scalar* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

double VecSum(const Scalar* data, int64_t n) {
  // Eight independent chains so the reduction vectorizes without
  // -ffast-math; double accumulators match the seed's precision.
  double acc[8] = {};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    for (int64_t u = 0; u < 8; ++u) acc[u] += data[i + u];
  }
  for (int64_t i = n8; i < n; ++i) acc[i - n8] += data[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

double VecSumSquares(const Scalar* data, int64_t n) {
  double acc[8] = {};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    for (int64_t u = 0; u < 8; ++u) {
      const double v = data[i + u];
      acc[u] += v * v;
    }
  }
  for (int64_t i = n8; i < n; ++i) {
    const double v = data[i];
    acc[i - n8] += v * v;
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

void VecRowAccumulate(Scalar* sums, const Scalar* col, int64_t rows) {
  for (int64_t r = 0; r < rows; ++r) sums[r] += col[r];
}

Scalar VecColSum(const Scalar* col, int64_t rows) {
  Scalar acc[4] = {};
  const int64_t n4 = rows & ~int64_t{3};
  for (int64_t r = 0; r < n4; r += 4) {
    for (int64_t u = 0; u < 4; ++u) acc[u] += col[r + u];
  }
  for (int64_t r = n4; r < rows; ++r) acc[r - n4] += col[r];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void VecUnary(Scalar* data, int64_t n, UnaryFnKind fn) {
  // One loop per function: abs and square vectorize; the transcendental
  // loops stay scalar but avoid the per-element switch of the seed.
  switch (fn) {
    case UnaryFnKind::kAbs:
      for (int64_t i = 0; i < n; ++i) data[i] = std::abs(data[i]);
      return;
    case UnaryFnKind::kSquare:
      for (int64_t i = 0; i < n; ++i) data[i] = data[i] * data[i];
      return;
    case UnaryFnKind::kExp:
      for (int64_t i = 0; i < n; ++i) data[i] = std::exp(data[i]);
      return;
    case UnaryFnKind::kLog:
      for (int64_t i = 0; i < n; ++i) data[i] = std::log(data[i]);
      return;
    case UnaryFnKind::kSigmoid:
      for (int64_t i = 0; i < n; ++i) {
        data[i] = 1.0f / (1.0f + std::exp(-data[i]));
      }
      return;
  }
}

}  // namespace dmac
