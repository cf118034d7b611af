// One-call pipeline: program → decompose → plan → distributed execution.
//
// This is the main entry point applications use; benchmarks toggle
// `exploit_dependencies` to switch between DMac and the SystemML-S
// baseline (§6.1: the only difference between the two systems).
#pragma once

#include "common/result.h"
#include "lang/program.h"
#include "plan/planner.h"
#include "plan/search.h"
#include "runtime/executor.h"

namespace dmac {

/// Configuration of a full program run: the executor's options plus the
/// planner's and the search's.
struct RunConfig : ExecutorOptions {
  /// true = DMac planner; false = SystemML-S baseline planner.
  bool exploit_dependencies = true;
  /// Planner heuristics (for ablations).
  bool pull_up_broadcast = true;
  bool reassignment = true;
  /// Fold zero-comm transposes feeding multiplies into kernel flags
  /// (docs/kernels.md); off re-materializes every transpose.
  bool fuse_transposes = true;
  /// Run the static plan verifier (src/analysis) after planning; planning
  /// fails on any error diagnostic. Defaults on in debug builds.
  bool verify_plan = kVerifyPlanDefault;
  /// Cost-based plan search (plan/search.h, docs/planner.md). kOff = the
  /// greedy Algorithm 1 plan, exactly as before.
  PlanSearchMode plan_search = PlanSearchMode::kOff;
  /// Beam width of the search (and the finalist cap in both modes).
  int beam_width = 8;
  /// Kernel-rate calibration file for the cost model (BENCH_kernels.json);
  /// empty = built-in default rates.
  std::string calibration_path;
};

/// Search summary of one run (RunOutcome::search; all-default when
/// RunConfig::plan_search == kOff).
struct RunSearchInfo {
  bool ran = false;
  int64_t candidates = 0;    // verified candidates ranked
  int64_t rejected = 0;      // dropped by planning/verify failure
  double seconds = 0;        // search wall time
  double best_seconds = 0;   // winner's estimated seconds
  double best_comm_bytes = 0;
  double greedy_seconds = 0;  // greedy plan's estimated seconds
  double greedy_comm_bytes = 0;
  std::string best_decisions;  // winner's decision vector ("greedy" = none)
};

/// Outcome of a run: results, runtime statistics, and the plan that ran.
struct RunOutcome {
  Plan plan;
  ExecutionResult result;
  double plan_seconds = 0;     // planning (driver) time
  double execute_seconds = 0;  // measured wall time of the whole execution
  RunSearchInfo search;
};

/// Decomposes, plans, and executes `program` with `bindings`.
Result<RunOutcome> RunProgram(const Program& program, const Bindings& bindings,
                              const RunConfig& config);

/// Plans only (no execution); useful for plan-quality experiments. With
/// plan_search enabled this returns the search winner's plan.
Result<Plan> PlanProgram(const Program& program, const RunConfig& config);

/// Runs the cost-based plan search (plan/search.h) over the decomposed
/// program and returns the ranked candidates. `config.plan_search` must
/// not be kOff. dmac_lint --plan-search prints the resulting table.
Result<SearchResult> SearchProgram(const Program& program,
                                   const RunConfig& config);

/// Chooses one square block side for the whole program: the Eq. 3 bound
/// must hold for every (estimated) matrix the program touches, or some
/// operator ends up with fewer result blocks than workers·threads and
/// loses its parallelism. Vectors (a dimension of 1) are exempt — they
/// would otherwise shred every block grid — and the result is floored at
/// 32.
Result<int64_t> ChooseProgramBlockSize(const Program& program, int workers,
                                       int threads_per_worker);

}  // namespace dmac
