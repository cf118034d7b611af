// DMac end-to-end benchmark program (see perfbench/README.md).
//
//   dmac_perfbench --workload gnmf|pagerank-search|linreg-durable
//                  --seed N --seconds S --trace 0|1 [--quick]
//                  [--revision STR]
//
// One invocation builds one workload's inputs from --seed, computes the
// single-machine reference once (InterpretLocally, untimed), and then calls
// RunProgram back to back for --seconds with tracing off. Every run's
// outputs are checked against the reference with a relative error bound.
// With --trace 1 a separate traced run follows: it calls each layer's public
// entry point in turn (Decompose, PlanProgram/SearchProgram,
// Executor::Execute) under the benchmark's own spans, with the obs recorder
// and registry on, and reports the per-layer breakdown instead of the
// end-to-end metrics.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// preceded by a provenance line and a human-readable table. Checkpoint
// directories are created under, and removed from, the working directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "apps/gnmf.h"
#include "apps/linear_regression.h"
#include "apps/local_interpreter.h"
#include "apps/pagerank.h"
#include "apps/runner.h"
#include "common/timer.h"
#include "data/graph_gen.h"
#include "data/netflix_gen.h"
#include "data/synthetic.h"
#include "data/triplets.h"
#include "lang/decompose.h"
#include "matrix/csc_block.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "plan/costmodel.h"

namespace dmac {
namespace {

constexpr int kWorkers = 4;
/// Set-up repeats at least kMinSetups times and until kSetupSeconds have
/// passed (at most kMaxSetups); setup_s is the median. A cheap set-up (GNMF
/// builds its input in about 15 ms) needs many samples to be steady.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100;
constexpr double kSetupSeconds = 1.0;
/// Untimed RunProgram calls before the timed loop (caches, pools, pages).
constexpr int kWarmupRuns = 1;
/// The timed loop runs at least this many times even past --seconds.
constexpr int kMinTimedRuns = 3;
/// Largest |distributed - reference| over a matrix output, divided by the
/// largest |reference| entry. Scalar is float and the distributed multiply sums in a
/// different order than the interpreter, so outputs are not bit-identical;
/// GNMF k=200 after 10 iterations measures about 1e-5 of its largest entry
/// here, and 1.1e-4 with four times the users.
constexpr double kRelTolerance = 1e-3;
/// A scalar output is compared with itself as the scale. LinReg's norm_r2,
/// the final squared CG residual, is a small difference of large float sums
/// (about 1e-3 left of ~3e4): it measured up to 1.5e-3 apart (seeds 501 and
/// 507) while w_model agreed to 7e-7, so scalars get a looser bound.
constexpr double kScalarRelTolerance = 1e-2;
/// Category of the benchmark's own layer spans.
constexpr const char kBenchSpan[] = "bench";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string revision = "unknown";
};

/// One workload, ready to run: its program, inputs and configuration.
/// `bindings` points into `inputs`, whose elements keep their addresses when
/// the vector moves; a copied Workload would point into the original.
struct Workload {
  Program program;
  RunConfig config;
  std::vector<std::pair<std::string, LocalMatrix>> inputs;
  Bindings bindings;
};

/// Sets the program-chosen block size (as dmac_run does) on `w->config`.
Status SetProgramBlockSize(const Program& program, Workload* w) {
  DMAC_ASSIGN_OR_RETURN(
      w->config.block_size,
      ChooseProgramBlockSize(program, w->config.num_workers,
                             w->config.threads_per_worker));
  return Status::Ok();
}

/// Real Netflix data lists only users who rated something, but the uniform
/// generator can leave a user unrated (at 7502 users, about one seed in 70).
/// GNMF's multiplicative update turns an empty row's factors into 0/0 = NaN,
/// in the reference interpreter as well, so such rows are dropped.
LocalMatrix DropEmptyRows(LocalMatrix m) {
  std::vector<Triplet> cells;
  const BlockGrid& grid = m.grid();
  for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
      const CscBlock csc = m.BlockAt(bi, bj).ToSparse();
      for (int64_t c = 0; c < csc.cols(); ++c) {
        for (int32_t k = csc.ColStart(c); k < csc.ColEnd(c); ++k) {
          cells.push_back({bi * grid.block_size + csc.row_idx()[k],
                           bj * grid.block_size + c, csc.values()[k]});
        }
      }
    }
  }
  std::vector<int64_t> new_row(static_cast<size_t>(m.rows()), -1);
  for (const Triplet& t : cells) new_row[static_cast<size_t>(t.row)] = 0;
  int64_t rows = 0;
  for (int64_t& r : new_row) {
    if (r == 0) r = rows++;
  }
  if (rows == m.rows()) return m;
  for (Triplet& t : cells) t.row = new_row[static_cast<size_t>(t.row)];
  return MatrixFromTriplets({rows, m.cols()}, grid.block_size, cells);
}

/// Builds `name`'s inputs from `seed`. `quick` divides the dimensions so the
/// self-check finishes in seconds; sparsity and factor size are kept.
Result<Workload> SetUp(const std::string& name, uint64_t seed, bool quick,
                       const std::string& scratch_dir) {
  Workload w;
  w.config.num_workers = kWorkers;
  w.config.threads_per_worker =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  w.config.seed = seed;
  const double shrink = quick ? 8 : 1;
  if (name == "gnmf") {
    // Netflix-shaped V: the 1/16-scale movie count and sparsity, the paper's
    // k = 200, and a quarter of the 1/16-scale users, which keeps the
    // single-threaded reference run near 11 s. Users shrink, not movies
    // (also for --quick): fewer movies would leave users with no rating,
    // whose W rows (and then H, as 0/0) the multiplicative update turns
    // into NaN.
    NetflixSpec spec = NetflixSpec{}.Scaled(16);
    spec.users = static_cast<int64_t>(spec.users / (4 * shrink));
    GnmfConfig gc{spec.users, spec.movies, spec.sparsity, 200, 10};
    DMAC_RETURN_NOT_OK(SetProgramBlockSize(BuildGnmfProgram(gc), &w));
    LocalMatrix v = DropEmptyRows(
        NetflixRatings(spec, w.config.block_size, seed));
    gc.rows = v.rows();
    w.program = BuildGnmfProgram(gc);
    w.inputs.emplace_back("V", std::move(v));
  } else if (name == "pagerank-search") {
    // soc-pokec-shaped power-law graph at 1/4 scale, cost-model search.
    const GraphSpec spec = SocPokec().Scaled(4 * shrink);
    const double n = static_cast<double>(spec.nodes);
    PageRankConfig pc{spec.nodes, static_cast<double>(spec.edges) / (n * n),
                      30, 0.85};
    DMAC_RETURN_NOT_OK(SetProgramBlockSize(BuildPageRankProgram(pc), &w));
    LocalMatrix link = RowNormalizedLink(spec, w.config.block_size, seed);
    // The planner sees the generated graph's real density.
    pc.link_sparsity = static_cast<double>(link.Nnz()) / (n * n);
    w.program = BuildPageRankProgram(pc);
    w.inputs.emplace_back("link", std::move(link));
    w.inputs.emplace_back(
        "D", ConstantMatrix({1, spec.nodes}, w.config.block_size,
                            static_cast<Scalar>(1.0 / n)));
    w.config.plan_search = PlanSearchMode::kBeam;
  } else if (name == "linreg-durable") {
    // CG linear regression committing a durable epoch every producing step.
    const int64_t examples = static_cast<int64_t>(100000 / shrink);
    const int64_t features = static_cast<int64_t>(10000 / shrink);
    const LinRegConfig lc{examples, features, 0.001, 10, 1e-6};
    w.program = BuildLinearRegressionProgram(lc);
    DMAC_RETURN_NOT_OK(SetProgramBlockSize(w.program, &w));
    w.inputs.emplace_back("V", SyntheticSparse(examples, features, 0.001,
                                               w.config.block_size, seed));
    w.inputs.emplace_back(
        "y", SyntheticDense(examples, 1, w.config.block_size, seed + 1));
    w.config.checkpoint_dir = scratch_dir;
  } else {
    return Status::Invalid("unknown workload '" + name +
                           "' (gnmf, pagerank-search, linreg-durable)");
  }
  for (auto& [input, m] : w.inputs) w.bindings.emplace(input, &m);
  return w;
}

/// Largest |got - want| over the matrix divided by the largest |want|; NaN
/// anywhere, or a shape mismatch, yields infinity.
double RelativeError(const LocalMatrix& got, const LocalMatrix& want) {
  if (got.shape() != want.shape() ||
      got.block_size() != want.block_size()) {
    return INFINITY;
  }
  double max_err = 0;
  double max_ref = 0;
  const BlockGrid& grid = want.grid();
  for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
      const Block& g = got.BlockAt(bi, bj);
      const Block& r = want.BlockAt(bi, bj);
      for (int64_t j = 0; j < r.cols(); ++j) {
        for (int64_t i = 0; i < r.rows(); ++i) {
          const double a = g.At(i, j);
          const double b = r.At(i, j);
          if (std::isnan(a) || std::isnan(b)) return INFINITY;
          max_err = std::max(max_err, std::abs(a - b));
          max_ref = std::max(max_ref, std::abs(b));
        }
      }
    }
  }
  return max_ref > 0 ? max_err / max_ref : max_err;
}

/// Worst relative error of any output of `result` against `ref`, as a share
/// of that output's tolerance: within bounds when at most 1.
double WorstError(const ExecutionResult& result, const LocalRunResult& ref) {
  double worst = 0;
  for (const auto& [name, want] : ref.matrices) {
    const auto it = result.matrices.find(name);
    worst = std::max(worst, it == result.matrices.end()
                                ? INFINITY
                                : RelativeError(it->second, want) /
                                      kRelTolerance);
  }
  for (const auto& [name, want] : ref.scalars) {
    const auto it = result.scalars.find(name);
    if (it == result.scalars.end() || std::isnan(it->second)) return INFINITY;
    worst = std::max(worst, std::abs(it->second - want) /
                                std::max(std::abs(want), 1e-30) /
                                kScalarRelTolerance);
  }
  return worst;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Metrics in print order, each with its unit.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  void PrintTable() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-28s %18.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  bool AllFinite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
  }

  /// JSON has no infinity or NaN; those print as 0 (and AllFinite() fails).
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[128];
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// The ISA the running CPU offers (the kernels use it only when built with
/// DMAC_NATIVE_ARCH=ON; the portable build targets baseline x86-64).
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

/// Executor options RunProgram derives from `config`, for the traced run's
/// direct Executor::Execute call.
ExecutorOptions ExecutorOptionsOf(const RunConfig& config) {
  ExecutorOptions e;
  e.num_workers = config.num_workers;
  e.threads_per_worker = config.threads_per_worker;
  e.block_size = config.block_size;
  e.local_mode = config.local_mode;
  e.task_scheduling = config.task_scheduling;
  e.seed = config.seed;
  e.fault = config.fault;
  e.checkpoint_every = config.checkpoint_every;
  e.checkpoint_dir = config.checkpoint_dir;
  e.resume = config.resume;
  e.min_workers = config.min_workers;
  e.governor = config.governor;
  return e;
}

/// Wall seconds during which at least one span of `category` was open.
/// Spans of one category nest (a checkpoint commit inside a checkpoint
/// step), so summing durations would count nested time twice.
double SpanSeconds(const std::vector<TraceEvent>& events,
                   const char* category) {
  std::vector<std::pair<int64_t, int64_t>> spans;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.category, category) == 0) {
      spans.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
    }
  }
  std::sort(spans.begin(), spans.end());
  int64_t ns = 0;
  int64_t covered_to = INT64_MIN;
  for (const auto& [start, end] : spans) {
    if (end <= covered_to) continue;
    ns += end - std::max(start, covered_to);
    covered_to = end;
  }
  return static_cast<double>(ns) * 1e-9;
}

double HistogramSum(const char* name) {
  return MetricRegistry::Global().histogram(name)->sum();
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0; }

/// Deletes a run's durable checkpoint directory, then flushes the deletion
/// so its journal commit does not land inside the next run's first fsync.
void RemoveCheckpoints(const RunConfig& config) {
  if (config.checkpoint_dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(config.checkpoint_dir, ec);
  ::sync();
}

/// Summary of the untraced RunProgram loop.
struct TimedRuns {
  int attempted = 0;
  int failed = 0;
  bool deterministic = true;  // comm bytes and rounds equal on every run
  double worst_error = 0;
  std::vector<double> run_s, cluster_s, plan_s, peak_mem;
  double comm_bytes = 0;
  int64_t comm_rounds = -1;
  RunSearchInfo search;
};

/// Runs RunProgram back to back, tracing off, until `seconds` have passed
/// (and at least kMinTimedRuns times), checking each run's outputs.
TimedRuns MeasureRuns(const Workload& w, const LocalRunResult& ref,
                      double seconds) {
  TimedRuns t;
  Timer budget;
  for (int i = 0; i < kWarmupRuns + kMinTimedRuns ||
                  budget.ElapsedSeconds() < seconds;
       ++i) {
    const bool warmup = i < kWarmupRuns;
    if (i == kWarmupRuns) budget.Reset();
    Timer timer;
    Result<RunOutcome> out = RunProgram(w.program, w.bindings, w.config);
    const double wall = timer.ElapsedSeconds();
    RemoveCheckpoints(w.config);
    if (warmup) continue;
    ++t.attempted;
    double err = INFINITY;
    if (out.ok()) err = WorstError(out->result, ref);
    t.worst_error = std::max(t.worst_error, err);
    if (!out.ok() || !(err <= 1) ||
        out->result.stats.checkpoint_failures > 0) {
      if (!out.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     out.status().ToString().c_str());
      }
      ++t.failed;
      continue;
    }
    const ExecStats& s = out->result.stats;
    if (t.comm_rounds >= 0 && (s.comm_bytes() != t.comm_bytes ||
                               s.comm_events() != t.comm_rounds)) {
      t.deterministic = false;
    }
    t.comm_bytes = s.comm_bytes();
    t.comm_rounds = s.comm_events();
    t.run_s.push_back(wall);
    t.cluster_s.push_back(s.SimulatedSeconds(NetworkModel{}));
    t.plan_s.push_back(out->plan_seconds);
    t.peak_mem.push_back(static_cast<double>(s.peak_memory_bytes));
    t.search = out->search;
  }
  return t;
}

/// The per-layer breakdown of one traced run.
struct TracedRun {
  bool ok = false;
  double run_s = 0;  // plan-layer call + Execute, as RunProgram does them
  double comm_bytes = 0;
  int64_t comm_rounds = 0;
};

/// Calls Decompose, PlanProgram/SearchProgram and Executor::Execute in
/// turn under the benchmark's spans with observability on, and adds every
/// per-layer metric to `sink`.
TracedRun TracedLayers(const Workload& w, const LocalRunResult& ref,
                       const TimedRuns& untraced, double interpret_s,
                       MetricSink* sink) {
  TracedRun traced;
  const RunConfig& config = w.config;
  const bool search = config.plan_search != PlanSearchMode::kOff;
  EnableObservability();

  double decompose_s = 0;
  {
    TraceSpan span(kBenchSpan, "lang.decompose");
    Timer timer;
    Result<OperatorList> ops = Decompose(w.program);
    decompose_s = timer.ElapsedSeconds();
    if (!ops.ok()) return traced;
  }

  // Plan layer: the search for searched workloads, Algorithm 1 otherwise.
  Plan plan;
  Plan greedy_plan;
  double plan_call_s = 0;
  int64_t candidates = 1;
  double est_s = 0;
  {
    TraceSpan span(kBenchSpan, search ? "plan.search" : "plan.plan");
    Timer timer;
    if (search) {
      Result<SearchResult> sres = SearchProgram(w.program, config);
      plan_call_s = timer.ElapsedSeconds();
      if (!sres.ok() || sres->candidates.empty()) return traced;
      candidates = static_cast<int64_t>(sres->candidates.size());
      est_s = sres->best().cost.seconds();
      plan = sres->candidates.front().plan;
      for (const PlanCandidate& c : sres->candidates) {
        if (c.greedy) greedy_plan = c.plan;
      }
    } else {
      Result<Plan> p = PlanProgram(w.program, config);
      plan_call_s = timer.ElapsedSeconds();
      if (!p.ok()) return traced;
      plan = std::move(*p);
      CostModelOptions mopts;
      mopts.num_workers = config.num_workers;
      mopts.threads_per_worker = config.threads_per_worker;
      mopts.block_size = config.block_size;
      est_s = CostModel(CalibrationTable::Builtin(), mopts)
                  .EstimatePlan(plan)
                  .seconds();
    }
  }

  Executor executor(ExecutorOptionsOf(config));
  double execute_s = 0;
  Result<ExecutionResult> result = Status::Internal("not run");
  {
    TraceSpan span(kBenchSpan, "runtime.execute");
    Timer timer;
    result = executor.Execute(plan, w.bindings);
    execute_s = timer.ElapsedSeconds();
  }
  DisableObservability();
  RemoveCheckpoints(config);
  if (!result.ok() || !(WorstError(*result, ref) <= 1)) {
    return traced;
  }
  const ExecStats& s = result->stats;
  traced.ok = true;
  traced.run_s = plan_call_s + execute_s;
  traced.comm_bytes = s.comm_bytes();
  traced.comm_rounds = s.comm_events();

  // The greedy plan, executed untraced, beside the search winner. Without
  // search the executed plan is the greedy one.
  double greedy_execute_s = execute_s;
  double greedy_est_s = est_s;
  double greedy_est_comm = s.estimated_comm_bytes;
  if (search) {
    greedy_est_s = untraced.search.greedy_seconds;
    greedy_est_comm = untraced.search.greedy_comm_bytes;
    Executor greedy_executor(ExecutorOptionsOf(config));
    Timer timer;
    Result<ExecutionResult> g =
        greedy_executor.Execute(greedy_plan, w.bindings);
    greedy_execute_s = timer.ElapsedSeconds();
    RemoveCheckpoints(config);
    if (!g.ok() || !(WorstError(*g, ref) <= 1)) traced.ok = false;
  }

  const std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
  MetricRegistry& reg = MetricRegistry::Global();
  const Histogram* multiply = reg.histogram(kMetricTaskSecondsMultiply);
  const Histogram* elementwise = reg.histogram(kMetricTaskSecondsElementwise);
  const double task_s = multiply->sum() +
                        HistogramSum(kMetricTaskSecondsTranspose) +
                        elementwise->sum() +
                        HistogramSum(kMetricTaskSecondsAggregate);
  const double threads = config.threads_per_worker;
  const double flops = reg.counter(kMetricGemmFlops)->value();

  sink->Add("lang.decompose_s", decompose_s, "s");

  sink->Add("plan.plan_s", Median(untraced.plan_s), "s");
  sink->Add("plan.search_s", plan_call_s, "s");
  sink->Add("plan.candidates", static_cast<double>(candidates), "count");
  sink->Add("plan.stages", plan.num_stages, "count");
  sink->Add("plan.steps", static_cast<double>(plan.steps.size()), "count");
  sink->Add("plan.est_comm_bytes", s.estimated_comm_bytes, "bytes");
  sink->Add("plan.comm_drift", s.estimate_drift, "ratio");
  sink->Add("plan.est_s", est_s, "s");
  sink->Add("plan.greedy_est_s", greedy_est_s, "s");
  sink->Add("plan.greedy_est_comm_bytes", greedy_est_comm, "bytes");
  sink->Add("plan.greedy_execute_s", greedy_execute_s, "s");

  sink->Add("runtime.execute_s", execute_s, "s");
  sink->Add("runtime.compute_wall_s", s.ComputeWallSeconds(), "s");
  sink->Add("runtime.compute_total_s", s.TotalComputeSeconds(), "s");
  sink->Add("runtime.worker_skew",
            SafeRatio(s.ComputeWallSeconds() * config.num_workers,
                      s.TotalComputeSeconds()),
            "ratio");
  sink->Add("runtime.driver_s", execute_s - s.TotalComputeSeconds(), "s");
  sink->Add("runtime.shuffle_bytes", s.shuffle_bytes, "bytes");
  sink->Add("runtime.broadcast_bytes", s.broadcast_bytes, "bytes");
  sink->Add("runtime.shuffle_rounds", static_cast<double>(s.shuffle_events),
            "count");
  sink->Add("runtime.broadcast_rounds",
            static_cast<double>(s.broadcast_events), "count");
  sink->Add("runtime.comm_model_s", s.CommSeconds(NetworkModel{}), "s");
  sink->Add("runtime.comm_copy_s", SpanSeconds(events, kTraceComm), "s");
  sink->Add("runtime.tasks", reg.counter(kMetricEngineTasks)->value(),
            "count");
  sink->Add("runtime.task_s", task_s, "s");
  sink->Add("runtime.queue_wait_mean_s",
            reg.histogram(kMetricQueueWaitSeconds)->mean(), "s");
  sink->Add("runtime.utilisation", SafeRatio(task_s, execute_s * threads),
            "ratio");
  sink->Add("runtime.pool_reuse_ratio",
            SafeRatio(reg.counter(kMetricPoolReuses)->value(),
                      reg.counter(kMetricPoolAcquires)->value()),
            "ratio");
  sink->Add("runtime.traced_run_s", traced.run_s, "s");
  sink->Add("runtime.trace_overhead_s", traced.run_s - Median(untraced.run_s),
            "s");

  sink->Add("matrix.flops", flops, "flop");
  sink->Add("matrix.multiply_s", multiply->sum(), "s");
  sink->Add("matrix.gflops", SafeRatio(flops, multiply->sum()) * 1e-9,
            "GFLOP/s");
  sink->Add("matrix.pack_s", HistogramSum(kMetricGemmPackSeconds), "s");
  sink->Add("matrix.gemm_tiles", reg.counter(kMetricGemmTasks)->value(),
            "count");
  sink->Add("matrix.elementwise_s", elementwise->sum(), "s");
  sink->Add("matrix.elementwise_tasks",
            static_cast<double>(elementwise->count()), "count");

  sink->Add("fault.ckpt_epochs", static_cast<double>(s.durable_epochs),
            "count");
  sink->Add("fault.ckpt_bytes", static_cast<double>(s.durable_checkpoint_bytes),
            "bytes");
  sink->Add("fault.ckpt_s", SpanSeconds(events, kTraceCheckpoint), "s");

  sink->Add("apps.interpret_s", interpret_s, "s");
  return traced;
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return Status::Invalid("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--revision") {
      args.revision = v;
    } else {
      return Status::Invalid("unknown argument " + a);
    }
  }
  if (args.workload.empty()) return Status::Invalid("--workload is required");
  return args;
}

int Main(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "dmac_perfbench: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const Args& args = *parsed;
  // linreg-durable's checkpoint directory, fresh for every run.
  const std::string scratch_dir =
      (std::filesystem::current_path() / ("ckpt-" + std::to_string(getpid())))
          .string();

  // Set-up: input generation, block-size choice and program build.
  std::vector<double> setup_s;
  Result<Workload> workload = Status::Internal("not set up");
  Timer setup_budget;
  for (int i = 0; i < kMinSetups || (i < kMaxSetups &&
                                     setup_budget.ElapsedSeconds() <
                                         kSetupSeconds);
       ++i) {
    workload = Status::Internal("not set up");  // free the previous inputs
    Timer timer;
    workload = SetUp(args.workload, args.seed, args.quick, scratch_dir);
    setup_s.push_back(timer.ElapsedSeconds());
    if (!workload.ok()) {
      std::fprintf(stderr, "dmac_perfbench: %s\n",
                   workload.status().ToString().c_str());
      return 2;
    }
  }
  const Workload& w = *workload;

  // The reference, once per invocation and outside every timed region.
  Timer interpret_timer;
  Result<LocalRunResult> ref = InterpretLocally(
      w.program, w.bindings, w.config.block_size, w.config.seed);
  const double interpret_s = interpret_timer.ElapsedSeconds();
  if (!ref.ok()) {
    std::fprintf(stderr, "dmac_perfbench: reference: %s\n",
                 ref.status().ToString().c_str());
    return 2;
  }

  const TimedRuns runs = MeasureRuns(w, *ref, args.seconds);
  bool correct = runs.failed == 0 && runs.deterministic;

  MetricSink sink;
  if (args.trace) {
    const TracedRun traced =
        TracedLayers(w, *ref, runs, interpret_s, &sink);
    // The traced run must have executed the same plan as the untraced ones.
    if (!traced.ok || traced.comm_bytes != runs.comm_bytes ||
        traced.comm_rounds != runs.comm_rounds) {
      std::fprintf(stderr,
                   "dmac_perfbench: traced run differs from untraced runs "
                   "(ok=%d, comm %.0f vs %.0f bytes, %lld vs %lld rounds)\n",
                   traced.ok, traced.comm_bytes, runs.comm_bytes,
                   static_cast<long long>(traced.comm_rounds),
                   static_cast<long long>(runs.comm_rounds));
      correct = false;
    }
  } else {
    sink.Add("run_s", Median(runs.run_s), "s");
    sink.Add("cluster_s", Median(runs.cluster_s), "s");
    sink.Add("comm_bytes", runs.comm_bytes, "bytes");
    sink.Add("comm_rounds", static_cast<double>(runs.comm_rounds), "count");
    sink.Add("peak_mem_bytes", Median(runs.peak_mem), "bytes");
    sink.Add("setup_s", Median(setup_s), "s");
    sink.Add("ok_frac",
             1.0 - SafeRatio(runs.failed, std::max(runs.attempted, 1)),
             "ratio");
  }

  correct = correct && sink.AllFinite();
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"runs\": %d, \"build_type\": \"%s\", \"native_arch\": %s, "
      "\"isa\": \"%s\", \"nproc\": %u, \"workers\": %d, "
      "\"threads_per_worker\": %d, \"block_size\": %lld, "
      "\"revision\": \"%s\", \"quick\": %s, \"max_error_share\": %.3g}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      runs.attempted, DMAC_PERFBENCH_BUILD_TYPE,
      DMAC_PERFBENCH_NATIVE_ARCH ? "true" : "false", DetectedIsa(),
      std::thread::hardware_concurrency(), w.config.num_workers,
      w.config.threads_per_worker,
      static_cast<long long>(w.config.block_size), args.revision.c_str(),
      args.quick ? "true" : "false", runs.worst_error);
  std::printf("%s seed %llu: %d runs, %d failed; run_s samples:",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), runs.attempted,
              runs.failed);
  for (double v : runs.run_s) std::printf(" %.4f", v);
  std::printf("; %zu set-ups\n", setup_s.size());
  sink.PrintTable();
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", runs.attempted, runs.failed,
      sink.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace dmac

int main(int argc, char** argv) { return dmac::Main(argc, argv); }
