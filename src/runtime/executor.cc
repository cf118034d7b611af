#include "runtime/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/timer.h"
#include "common/thread_pool.h"
#include "matrix/kernels.h"
#include "matrix/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/buffer_pool.h"
#include "runtime/recovery.h"
#include "runtime/transport.h"

namespace dmac {

namespace {

/// FormatCache capacity when no memory budget bounds the run: large enough
/// for a handful of converted operand grids, small enough that an unbounded
/// workload cannot pin the heap with stale conversions.
constexpr int64_t kFormatCacheDefaultBytes = int64_t{256} << 20;

/// Evaluates a resolved scalar expression against the scalar environment.
Result<double> EvalScalar(const ScalarExprPtr& e,
                          const std::unordered_map<std::string, double>& env) {
  switch (e->kind) {
    case ScalarExpr::Kind::kLiteral:
      return e->literal;
    case ScalarExpr::Kind::kVarRef: {
      auto it = env.find(e->name);
      if (it == env.end()) {
        return Status::NotFound("scalar " + e->name + " not yet computed");
      }
      return it->second;
    }
    case ScalarExpr::Kind::kBinary: {
      DMAC_ASSIGN_OR_RETURN(double l, EvalScalar(e->lhs, env));
      DMAC_ASSIGN_OR_RETURN(double r, EvalScalar(e->rhs, env));
      switch (e->op) {
        case '+':
          return l + r;
        case '-':
          return l - r;
        case '*':
          return l * r;
        case '/':
          return l / r;
      }
      return Status::Invalid(std::string("unknown scalar operator ") + e->op);
    }
    case ScalarExpr::Kind::kSqrt: {
      DMAC_ASSIGN_OR_RETURN(double l, EvalScalar(e->lhs, env));
      return std::sqrt(l);
    }
    case ScalarExpr::Kind::kReduce:
      return Status::Internal(
          "unresolved reduce in scalar expression (decompose bug)");
  }
  return Status::Internal("unreachable ScalarExpr kind");
}

/// Thread-safe sink writing result blocks into one worker's store.
class StoreSink {
 public:
  StoreSink(DistMatrix* target, int worker) : target_(target), worker_(worker) {}

  void operator()(int64_t bi, int64_t bj, Block block) DMAC_EXCLUDES(mu_) {
    auto ptr = std::make_shared<const Block>(std::move(block));
    MutexLock lock(&mu_);
    target_->Put(worker_, bi, bj, std::move(ptr));
  }

 private:
  Mutex mu_;
  DistMatrix* DMAC_PT_GUARDED_BY(mu_) target_;
  int worker_;
};

}  // namespace

class Executor::Impl : public StepRunner {
 public:
  Impl(const ExecutorOptions& opts, const Plan& plan, const Bindings& bindings)
      : opts_(opts),
        plan_(plan),
        bindings_(bindings),
        pool_(static_cast<size_t>(opts.threads_per_worker)),
        buffers_(static_cast<size_t>(opts.threads_per_worker) * 2),
        engine_(&pool_, &buffers_, opts.local_mode, opts.density_threshold,
                opts.task_scheduling),
        gov_(opts.governor),
        node_last_use_(plan.nodes.size(), -1),
        recovery_(Recovery::Create(opts_, plan_, &store_, &stats_,
                                   &transport_, this)),
        transport_(opts.num_workers, &stats_) {
    store_.nodes.resize(plan.nodes.size());
    if (gov_.token.active()) engine_.SetCancelToken(&gov_.token);
    if (gov_.budget != nullptr) buffers_.SetBudget(gov_.budget);
    // CSC→CSR conversion cache for plan steps marked by MarkOperandReuse
    // (plan/reuse.h). Under a governed budget the cache charges the shared
    // MemoryBudget (Charge never blocks; overshoot is reconciled at step
    // boundaries like every other allocation) and caps itself at a quarter
    // of the limit so evictions kick in before conversions crowd out
    // operand blocks.
    int64_t cache_capacity = kFormatCacheDefaultBytes;
    if (gov_.budget != nullptr && gov_.budget->limit_bytes() > 0) {
      cache_capacity =
          std::min<int64_t>(cache_capacity, gov_.budget->limit_bytes() / 4);
      std::shared_ptr<MemoryBudget> budget = gov_.budget;
      format_cache_ = std::make_unique<FormatCache>(
          cache_capacity,
          [budget](int64_t bytes) {
            budget->Charge(bytes);
            return Status::Ok();
          },
          [budget](int64_t bytes) { budget->Release(bytes); });
    } else {
      format_cache_ = std::make_unique<FormatCache>(cache_capacity);
    }
    engine_.SetFormatCache(format_cache_.get());
  }

  Result<ExecutionResult> Run() {
    DMAC_RETURN_NOT_OK(CheckCancel());  // a 0 ms deadline fails before work
    DMAC_RETURN_NOT_OK(PickBlockSize());
    DMAC_RETURN_NOT_OK(recovery_->Start());
    MemTracker::Global().ResetPeak();
    const int64_t mem_before_peak = MemTracker::Global().peak_bytes();

    // Steps run in dependency order, so stage numbers may interleave; each
    // contiguous run of same-stage steps becomes one stage span (the same
    // grouping Plan::ToString uses for its "=== Stage" headers).
    int current_stage = std::numeric_limits<int>::min();
    std::optional<TraceSpan> stage_span;
    for (const PlanStep& step : plan_.steps) {
      DMAC_ASSIGN_OR_RETURN(const bool resumed, recovery_->Resumed(step));
      if (resumed) {
        // Bump the LRU clock the way an uninterrupted run would (spill
        // ordering parity).
        TickLruClock(step);
        continue;
      }
      const bool tracing = TraceRecorder::Global().enabled();
      if (step.stage != current_stage) {
        stage_span.reset();
        current_stage = step.stage;
        if (tracing) {
          stage_span.emplace(kTraceStage,
                             "stage " + std::to_string(current_stage), -1,
                             TraceArg("stage", int64_t{current_stage}));
        }
      }
      TraceSpan step_span =
          tracing ? TraceSpan(kTraceStep, StepSpanName(step), -1,
                              TraceArg("stage", int64_t{step.stage}) + "," +
                                  TraceArg("step", int64_t{step.id}))
                  : TraceSpan();
      DMAC_RETURN_NOT_OK(GovernStep(step));
      Status step_status = recovery_->RunStep(step);
      if (!step_status.ok() && gov_.token.active() && gov_.token.Fired()) {
        // The engine observed the token mid-kernel; surface the governance
        // status (and its one cancel span), not the kernel's unwind error.
        store_.DropOutput(step);
        DMAC_RETURN_NOT_OK(CheckCancel());
      }
      DMAC_RETURN_NOT_OK(step_status);
      metric_steps_->Increment();
    }
    stage_span.reset();
    metric_stages_->Set(plan_.num_stages);
    metric_microkernel_level_->Set(ActiveMicroKernelLevel());

    DMAC_RETURN_NOT_OK(recovery_->Finish());

    ExecutionResult result;
    for (const PlanOutput& out : plan_.outputs) {
      DMAC_ASSIGN_OR_RETURN(LocalMatrix m, Gather(out.node));
      if (out.transposed) m = m.Transposed();
      result.matrices.emplace(out.variable, std::move(m));
    }
    for (const auto& [var, ssa] : plan_.scalar_outputs) {
      auto it = store_.scalars.find(ssa);
      if (it == store_.scalars.end()) {
        return Status::NotFound("scalar output " + ssa + " never computed");
      }
      result.scalars.emplace(var, it->second);
    }
    stats_.peak_memory_bytes =
        std::max(MemTracker::Global().peak_bytes(), mem_before_peak);
    metric_peak_memory_->Set(static_cast<double>(stats_.peak_memory_bytes));
    RecordEstimateDrift();
    result.stats = std::move(stats_);
    return result;
  }

  /// Fills ExecStats::matrix_nnz from the nodes still resident and compares
  /// the plan's §4.1 communication estimate against what actually moved.
  /// The §5.1 worst-case sparsity rule (s_C = 1 after every multiply) can
  /// overestimate chained-multiply traffic by orders of magnitude; the
  /// planner.estimate.drift gauge makes that visible, and the .events
  /// counter fires when the divergence exceeds 4x (docs/planner.md).
  void RecordEstimateDrift() {
    for (size_t i = 0; i < store_.nodes.size(); ++i) {
      const auto& dm = store_.nodes[i];
      if (dm == nullptr) continue;
      int64_t nnz = 0;
      bool complete = true;
      for (int64_t bi = 0; complete && bi < dm->grid().block_rows(); ++bi) {
        for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
          const auto block = dm->GetOwned(bi, bj);
          if (block == nullptr) {  // spilled or dropped; don't guess
            complete = false;
            break;
          }
          nnz += block->nnz();
        }
      }
      if (complete) {
        const PlanNode& node = plan_.nodes[i];
        stats_.matrix_nnz[node.transposed ? node.matrix + "^T"
                                          : node.matrix] = nnz;
      }
    }
    stats_.estimated_comm_bytes = plan_.total_comm_bytes;
    const double estimated = plan_.total_comm_bytes;
    const double measured = stats_.comm_bytes();
    if (estimated > 0 && measured > 0) {
      stats_.estimate_drift =
          std::max(estimated, measured) / std::min(estimated, measured);
    } else if (estimated == measured) {
      stats_.estimate_drift = 1;  // both zero: a comm-free plan, no drift
    }
    metric_estimate_drift_->Set(stats_.estimate_drift);
    if (stats_.estimate_drift > 4.0) {
      metric_estimate_drift_events_->Increment();
    }
  }

 private:
  // ---- setup -------------------------------------------------------------

  Status PickBlockSize() {
    block_size_ = opts_.block_size;
    if (block_size_ == 0) {
      for (const auto& [name, matrix] : bindings_) {
        block_size_ = matrix->block_size();
        break;
      }
    }
    if (block_size_ <= 0) block_size_ = 1024;
    for (const auto& [name, matrix] : bindings_) {
      if (matrix->block_size() != block_size_) {
        return Status::Invalid(
            "binding " + name + " uses block size " +
            std::to_string(matrix->block_size()) + ", executor uses " +
            std::to_string(block_size_));
      }
    }
    return Status::Ok();
  }

  const PlanNode& NodeOf(int id) const {
    return plan_.nodes[static_cast<size_t>(id)];
  }

  std::shared_ptr<DistMatrix> NewData(int node_id, Shape shape) override {
    const PlanNode& node = NodeOf(node_id);
    auto dm = std::make_shared<DistMatrix>(BlockGrid{shape, block_size_},
                                           node.scheme(), opts_.num_workers);
    if (gov_.budget != nullptr || gov_.spill != nullptr) {
      dm->SetGovernor(gov_.budget, gov_.spill);
    }
    if (!store_.host_map.empty()) dm->SetRebalanceMap(store_.host_map);
    store_.nodes[static_cast<size_t>(node_id)] = dm;
    return dm;
  }

  /// Times `fn` and attributes the elapsed seconds to (step.stage, worker),
  /// both in ExecStats and as a worker-attributed trace span. Block tasks
  /// the engine runs inside `fn` inherit the worker id for their spans.
  ///
  /// This is also the task-launch fault-injection point: the launch can
  /// fail transiently or straggle (Recovery::DrawLaunchFault). `idempotent`
  /// marks whether running `fn` twice yields the same state — true for the
  /// sink-writing sites (a second run overwrites the same store keys with
  /// identical blocks), false for the accumulating closures (CPMM phase 1,
  /// reduce) — and gates straggler speculation.
  template <typename Fn>
  Status TimedWorker(const PlanStep& step, int worker, Fn&& fn,
                     bool idempotent = true) {
    DMAC_ASSIGN_OR_RETURN(const double delay,
                          recovery_->DrawLaunchFault(step, worker));
    if (delay > 0) {
      return StraggledWorker(step, worker, std::forward<Fn>(fn), idempotent,
                             delay);
    }
    // Logical slot `worker` may be hosted by a survivor after a permanent
    // death; timing and spans attribute to the physical host while the
    // block layout stays keyed by the logical slot (bit identity).
    const int host = Host(worker);
    const bool recovering = transport_.recovering();
    TraceSpan span =
        TraceRecorder::Global().enabled()
            ? TraceSpan(recovering ? kTraceRecovery : kTraceWorker,
                        StepSpanName(step), host,
                        TraceArg("stage", int64_t{step.stage}))
            : TraceSpan();
    engine_.SetWorkerContext(host);
    Timer timer;
    Status st = fn();
    if (recovering) {
      AddRecoverySeconds(&stats_, step.stage, timer.ElapsedSeconds());
    } else {
      stats_.AddWorkerSeconds(step.stage, host, timer.ElapsedSeconds());
    }
    return st;
  }

  /// Runs a worker task whose launch drew an injected straggler delay
  /// (simulated seconds — nothing sleeps). With speculation the backup
  /// worker's re-execution is the useful copy and the straggler attempt is
  /// charged to recovery; without it the stage just absorbs the delay.
  template <typename Fn>
  Status StraggledWorker(const PlanStep& step, int worker, Fn&& fn,
                         bool idempotent, double delay) {
    const int host = Host(worker);
    TraceSpan span =
        TraceRecorder::Global().enabled()
            ? TraceSpan(kTraceRecovery, "straggler " + StepSpanName(step),
                        host, TraceArg("delay_s", delay))
            : TraceSpan();
    engine_.SetWorkerContext(host);
    Timer timer;
    Status st = fn();
    const double measured = timer.ElapsedSeconds();
    if (st.ok() && opts_.fault.speculate && idempotent &&
        opts_.num_workers > 1) {
      AddRecoverySeconds(&stats_, step.stage, measured + delay);
      ++stats_.speculated_tasks;
      metric_fault_speculated_->Increment();
      const int backup = Host((worker + 1) % opts_.num_workers);
      engine_.SetWorkerContext(backup);
      Timer backup_timer;
      st = fn();
      stats_.AddWorkerSeconds(step.stage, backup,
                              backup_timer.ElapsedSeconds());
      return st;
    }
    stats_.AddWorkerSeconds(step.stage, host, measured + delay);
    return st;
  }

  /// Reads a block for a cross-worker transfer, verifying its checksum
  /// when one is stamped (fault-tolerant runs). Missing blocks are
  /// DataLoss (retryable after recovery) rather than an internal error.
  Result<DistMatrix::BlockPtr> VerifiedGet(const DistMatrix& src, int worker,
                                           int64_t bi, int64_t bj,
                                           const char* what) {
    auto ptr = src.Get(worker, bi, bj);
    if (ptr == nullptr) {
      return Status::DataLoss(std::string(what) + ": block (" +
                              std::to_string(bi) + ", " + std::to_string(bj) +
                              ") missing on worker " + std::to_string(worker));
    }
    DMAC_RETURN_NOT_OK(src.VerifyAt(worker, bi, bj));
    return ptr;
  }

  // ---- governance (docs/governance.md) ------------------------------------

  /// Cooperative cancellation poll. The first failed check emits one
  /// `cancel` trace span recording how the query ended.
  Status CheckCancel() override {
    if (!gov_.token.active()) return Status::Ok();
    Status st = gov_.token.Check();
    if (!st.ok() && !cancel_span_emitted_) {
      cancel_span_emitted_ = true;
      TraceSpan span(kTraceCancel,
                     st.code() == StatusCode::kDeadlineExceeded
                         ? "deadline-exceeded"
                         : "cancelled");
    }
    return st;
  }

  /// Pre-step governance: poll the token, bump the LRU clock, and make room
  /// under the budget for the step's working set.
  Status GovernStep(const PlanStep& step) {
    DMAC_RETURN_NOT_OK(CheckCancel());
    TickLruClock(step);
    if (!gov_.budgeted()) return Status::Ok();
    return RebalanceBudget(step);
  }

  /// Advances the LRU clock and marks the step's nodes as just used.
  void TickLruClock(const PlanStep& step) {
    ++step_clock_;
    for (int input : step.inputs) {
      node_last_use_[static_cast<size_t>(input)] = step_clock_;
    }
    if (step.output >= 0) {
      node_last_use_[static_cast<size_t>(step.output)] = step_clock_;
    }
  }

  /// Spills cold nodes (LRU by last-touching step, ids ascending as the
  /// tiebreak) until the budget has room for the step's pinned working set
  /// — its inputs, all of which must be resident at once. Fails with
  /// kResourceExhausted when the pinned set alone exceeds the budget or no
  /// spill candidate remains.
  Status RebalanceBudget(const PlanStep& step) {
    int64_t pinned = 0;
    int64_t spilled_inputs = 0;
    for (int input : step.inputs) {
      const auto& dm = store_.nodes[static_cast<size_t>(input)];
      if (dm == nullptr) continue;
      pinned += dm->OwnedBytes();
      spilled_inputs += dm->SpilledBytes();
    }
    if (gov_.budget->ExceedsWholeBudget(pinned)) {
      return Status::ResourceExhausted(
          "step " + std::to_string(step.id) + ": working set of " +
          std::to_string(pinned) + " bytes exceeds the memory budget of " +
          std::to_string(gov_.budget->limit_bytes()) +
          " bytes; spilling cannot help");
    }
    // Free the current overage plus what restoring spilled inputs will
    // re-charge, by spilling nodes no later step has touched more recently.
    int64_t need = gov_.budget->OverBudgetBytes() + spilled_inputs;
    if (need <= 0) return Status::Ok();

    std::vector<std::pair<int, int>> candidates;  // (last_use, node id)
    for (size_t id = 0; id < store_.nodes.size(); ++id) {
      if (store_.nodes[id] == nullptr) continue;
      const int node = static_cast<int>(id);
      if (node == step.output ||
          std::find(step.inputs.begin(), step.inputs.end(), node) !=
              step.inputs.end()) {
        continue;  // pinned
      }
      candidates.emplace_back(node_last_use_[id], node);
    }
    std::sort(candidates.begin(), candidates.end());

    int64_t freed = 0;
    for (const auto& [last_use, node] : candidates) {
      if (freed >= need) break;
      auto& dm = store_.nodes[static_cast<size_t>(node)];
      TraceSpan span(kTraceSpill, "spill node " + std::to_string(node), -1,
                     TraceArg("node", int64_t{node}));
      DMAC_ASSIGN_OR_RETURN(int64_t f, dm->SpillColdBlocks(need - freed));
      freed += f;
    }
    if (gov_.budget->OverBudgetBytes() > 0) {
      return Status::ResourceExhausted(
          "memory budget of " + std::to_string(gov_.budget->limit_bytes()) +
          " bytes still exceeded by " +
          std::to_string(gov_.budget->OverBudgetBytes()) +
          " bytes after spilling every cold block");
    }
    return Status::Ok();
  }

  /// Restores any spilled input of `step` (recovery re-runs and retries hit
  /// this too, not just the main loop). No-op without a spill store.
  Status EnsureInputsResident(const PlanStep& step) {
    for (int input : step.inputs) {
      auto& dm = store_.nodes[static_cast<size_t>(input)];
      if (dm == nullptr || dm->SpilledEntries() == 0) continue;
      TraceSpan span(kTraceSpill, "restore node " + std::to_string(input),
                     -1, TraceArg("node", int64_t{input}));
      DMAC_RETURN_NOT_OK(dm->EnsureResident().status());
    }
    return Status::Ok();
  }

  int Host(int w) const { return transport_.Host(w); }

  // ---- step dispatch ------------------------------------------------------

  Status ExecuteStep(const PlanStep& step) override {
    DMAC_RETURN_NOT_OK(CheckCancel());
    if (gov_.spill != nullptr) {
      DMAC_RETURN_NOT_OK(EnsureInputsResident(step));
    }
    switch (step.kind) {
      case StepKind::kLoad:
        return ExecLoad(step);
      case StepKind::kRandom:
        return ExecRandom(step);
      case StepKind::kPartition:
        return ExecPartition(step);
      case StepKind::kBroadcast:
        return ExecBroadcast(step);
      case StepKind::kTranspose:
        return ExecTranspose(step);
      case StepKind::kExtract:
        return ExecExtract(step);
      case StepKind::kCompute:
        return ExecCompute(step);
      case StepKind::kReduce:
        return ExecReduce(step);
      case StepKind::kScalarAssign: {
        DMAC_ASSIGN_OR_RETURN(double v,
                              EvalScalar(step.scalar, store_.scalars));
        store_.scalars[step.scalar_out] = v;
        return Status::Ok();
      }
    }
    return Status::Internal("unknown step kind");
  }

  Status ExecLoad(const PlanStep& step) {
    auto it = bindings_.find(step.source);
    if (it == bindings_.end()) {
      return Status::NotFound("no binding for input matrix " + step.source);
    }
    const LocalMatrix& src = *it->second;
    if (src.shape() != step.decl_shape) {
      return Status::DimensionMismatch(
          "binding " + step.source + " is " + src.shape().ToString() +
          ", declared " + step.decl_shape.ToString());
    }
    auto dm = NewData(step.output, src.shape());
    const bool broadcast = dm->scheme() == Scheme::kBroadcast;
    Transport::Round round(
        &transport_, broadcast ? CommKind::kBroadcast : CommKind::kShuffle,
        "load " + step.source, /*span_covers_round=*/true);
    for (int64_t bi = 0; bi < dm->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
        // Non-owning pointer into the binding: the caller keeps inputs
        // alive for the duration of Execute().
        DistMatrix::BlockPtr ptr(std::shared_ptr<void>(),
                                 &src.BlockAt(bi, bj));
        const double block_bytes =
            static_cast<double>(ptr->MemoryBytes());
        if (broadcast) {
          for (int w = 0; w < opts_.num_workers; ++w) dm->Put(w, bi, bj, ptr);
          round.ChargeLoad(block_bytes * opts_.num_workers);
        } else {
          dm->Put(dm->OwnerOf(bi, bj), bi, bj, ptr);
          round.ChargeLoad(block_bytes);
        }
      }
    }
    round.Close();
    return Status::Ok();
  }

  Status ExecRandom(const PlanStep& step) {
    auto dm = NewData(step.output, step.decl_shape);
    const BlockGrid& grid = dm->grid();

    // Deterministic per-block seeds make every replica identical, so a
    // Broadcast-scheme random matrix costs no communication.
    const bool broadcast = dm->scheme() == Scheme::kBroadcast;
    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        const uint64_t seed =
            RandomBlockSeed(opts_.seed, step.source, bi, bj);
        const Shape s = grid.BlockShape(bi, bj);
        const int owner = broadcast ? 0 : dm->OwnerOf(bi, bj);
        Status st = TimedWorker(step, owner, [&] {
          auto ptr = std::make_shared<const Block>(
              RandomDenseBlock(s.rows, s.cols, seed));
          if (broadcast) {
            for (int w = 0; w < opts_.num_workers; ++w) {
              dm->Put(w, bi, bj, ptr);
            }
          } else {
            dm->Put(owner, bi, bj, ptr);
          }
          return Status::Ok();
        });
        DMAC_RETURN_NOT_OK(st);
      }
    }
    return Status::Ok();
  }

  Status ExecPartition(const PlanStep& step) {
    const DistMatrix& src = store_.Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix);
    DMAC_CHECK(dst->scheme() != Scheme::kBroadcast);
    // A repartition onto the *same* scheme (SystemML-S's hash shuffle of an
    // already-aligned matrix) keeps every block where it is.
    const bool same_scheme = src.scheme() == dst->scheme();
    Transport::Round round(&transport_, CommKind::kShuffle, "partition",
                           /*span_covers_round=*/true);
    for (int64_t bi = 0; bi < src.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < src.grid().block_cols(); ++bj) {
        const int to = dst->OwnerOf(bi, bj);
        // Under a Broadcast source every worker already holds the block.
        const int from = src.scheme() == Scheme::kBroadcast
                             ? to
                             : src.OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(auto ptr,
                              VerifiedGet(src, from, bi, bj, "partition"));
        const double bytes = static_cast<double>(ptr->MemoryBytes());
        if (same_scheme) round.ChargeRehash(bytes);  // from == to: free send
        DistMatrix* d = dst.get();
        round.Send(from, to, bytes,
                   [d, to, bi, bj, ptr] { d->Put(to, bi, bj, ptr); });
      }
    }
    round.Close();
    return round.Flush();
  }

  Status ExecBroadcast(const PlanStep& step) {
    const DistMatrix& src = store_.Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix);
    DMAC_CHECK(dst->scheme() == Scheme::kBroadcast);
    Transport::Round round(&transport_, CommKind::kBroadcast, "broadcast",
                           /*span_covers_round=*/true);
    for (int64_t bi = 0; bi < src.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < src.grid().block_cols(); ++bj) {
        const int from = src.OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(auto ptr,
                              VerifiedGet(src, from, bi, bj, "broadcast"));
        const double bytes = static_cast<double>(ptr->MemoryBytes());
        DistMatrix* d = dst.get();
        for (int w = 0; w < opts_.num_workers; ++w) {
          round.Send(from, w, bytes,
                     [d, w, bi, bj, ptr] { d->Put(w, bi, bj, ptr); });
        }
      }
    }
    round.Close();
    return round.Flush();
  }

  Status ExecTranspose(const PlanStep& step) {
    const DistMatrix& src = store_.Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix.Transposed());
    return MapBlocks(step, src, dst.get(), TaskKind::kTranspose,
                     /*transpose=*/true,
                     [](int, int64_t, int64_t, const Block& block) {
                       return Result<Block>(block.Transposed());
                     });
  }

  /// Runs `kernel(w, bi, bj, block)` over every block of `a` as engine
  /// tasks of `kind` on the block's worker, storing each result in `c` at
  /// (bi, bj), or at (bj, bi) when `transpose`. A Broadcast input is
  /// computed once, on worker 0, and the result shared by every replica.
  template <typename Kernel>
  Status MapBlocks(const PlanStep& step, const DistMatrix& a, DistMatrix* c,
                   TaskKind kind, bool transpose, const Kernel& kernel) {
    const bool broadcast = a.scheme() == Scheme::kBroadcast;
    const int workers = broadcast ? 1 : opts_.num_workers;
    for (int w = 0; w < workers; ++w) {
      auto blocks = a.WorkerBlocks(w);
      StoreSink sink(c, w);
      Status st = TimedWorker(step, w, [&] {
        std::vector<std::function<Status()>> tasks;
        tasks.reserve(blocks.size());
        for (auto& [bi, bj, ptr] : blocks) {
          tasks.push_back([&kernel, &sink, transpose, w, bi = bi, bj = bj,
                           block = ptr.get()] {
            Result<Block> out = kernel(w, bi, bj, *block);
            if (!out.ok()) return out.status();
            if (transpose) {
              sink(bj, bi, std::move(*out));
            } else {
              sink(bi, bj, std::move(*out));
            }
            return Status::Ok();
          });
        }
        return engine_.RunTasks(tasks, kind);
      });
      DMAC_RETURN_NOT_OK(st);
    }
    return broadcast ? ReplicateFromWorkerZero(c) : Status::Ok();
  }

  Status ExecExtract(const PlanStep& step) {
    const DistMatrix& src = store_.Data(step.inputs[0]);
    if (src.scheme() != Scheme::kBroadcast) {
      return Status::Internal("extract requires a Broadcast source");
    }
    auto dst = NewData(step.output, src.grid().matrix);
    // Each worker filters its owned range out of its local replica — a
    // pointer copy per block, no data movement.
    for (int64_t bi = 0; bi < dst->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < dst->grid().block_cols(); ++bj) {
        const int w = dst->OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(auto ptr,
                              VerifiedGet(src, w, bi, bj, "extract"));
        dst->Put(w, bi, bj, std::move(ptr));
      }
    }
    return Status::Ok();
  }

  // ---- compute steps ------------------------------------------------------

  Status ExecCompute(const PlanStep& step) {
    switch (step.op_kind) {
      case OpKind::kMultiply:
        return ExecMultiply(step);
      case OpKind::kAdd:
      case OpKind::kSubtract:
      case OpKind::kCellMultiply:
      case OpKind::kCellDivide:
        return ExecCellwise(step);
      case OpKind::kScalarMultiply:
      case OpKind::kScalarAdd:
        return ExecScalarOp(step);
      case OpKind::kRowSums:
      case OpKind::kColSums:
        return ExecAggregate(step);
      case OpKind::kCellUnary:
        return ExecCellUnary(step);
      default:
        return Status::Internal("unexpected compute op kind");
    }
  }

  Status ExecMultiply(const PlanStep& step) {
    const DistMatrix& a = store_.Data(step.inputs[0]);
    const DistMatrix& b = store_.Data(step.inputs[1]);
    // A transpose-fused operand is stored untransposed: its *effective*
    // shape is the stored shape flipped, its stored scheme is the opposite
    // of what the strategy requires of the effective operand, and logical
    // block (i, j) lives at stored (j, i). Block boundaries line up because
    // both grids cut every dimension with the same block side.
    const bool ta = step.trans_a;
    const bool tb = step.trans_b;
    const Shape eff_a =
        ta ? a.grid().matrix.Transposed() : a.grid().matrix;
    const Shape eff_b =
        tb ? b.grid().matrix.Transposed() : b.grid().matrix;
    if (eff_a.cols != eff_b.rows) {
      return Status::DimensionMismatch("distributed multiply " +
                                       eff_a.ToString() + " by " +
                                       eff_b.ToString());
    }
    const Shape out_shape{eff_a.rows, eff_b.cols};
    auto c = NewData(step.output, out_shape);
    const BlockGrid& out_grid = c->grid();
    const int64_t kb = ta ? a.grid().block_rows() : a.grid().block_cols();

    switch (step.mult_algo) {
      case MultAlgo::kRMM1:
      case MultAlgo::kRMM2: {
        // RMM1: A broadcast, B column-partitioned; worker w computes the
        // output block-columns it owns. RMM2 mirrors it over block-rows.
        const bool rmm1 = step.mult_algo == MultAlgo::kRMM1;
        if (rmm1) {
          DMAC_CHECK(a.scheme() == Scheme::kBroadcast);
          DMAC_CHECK(b.scheme() == (tb ? Scheme::kRow : Scheme::kCol));
        } else {
          DMAC_CHECK(a.scheme() == (ta ? Scheme::kCol : Scheme::kRow));
          DMAC_CHECK(b.scheme() == Scheme::kBroadcast);
        }
        const int64_t owned =
            rmm1 ? out_grid.block_cols() : out_grid.block_rows();
        const int64_t other =
            rmm1 ? out_grid.block_rows() : out_grid.block_cols();
        for (int w = 0; w < opts_.num_workers; ++w) {
          std::vector<MultiplyTask> tasks;
          int64_t lo, hi;
          OwnedRange(w, owned, opts_.num_workers, &lo, &hi);
          for (int64_t i = lo; i < hi; ++i) {
            for (int64_t j = 0; j < other; ++j) {
              tasks.push_back(rmm1 ? MultiplyTask{j, i, 0, kb}
                                   : MultiplyTask{i, j, 0, kb});
            }
          }
          DMAC_RETURN_NOT_OK(RunMultiplyOnWorker(step, w, out_grid, tasks,
                                                 a, b, c.get()));
        }
        return Status::Ok();
      }
      case MultAlgo::kCPMM:
        return ExecCpmm(step, a, b, c.get());
      case MultAlgo::kNone:
        break;
    }
    return Status::Internal("multiply step without an algorithm");
  }

  Status RunMultiplyOnWorker(const PlanStep& step, int worker,
                             const BlockGrid& out_grid,
                             const std::vector<MultiplyTask>& tasks,
                             const DistMatrix& a, const DistMatrix& b,
                             DistMatrix* c) {
    StoreSink sink(c, worker);
    const bool ta = step.trans_a;
    const bool tb = step.trans_b;
    const MultiplyOptions mopts{ta, tb, step.cache_csr_b};
    return TimedWorker(step, worker, [&] {
      return engine_.MultiplyBlocks(
          out_grid, tasks,
          [&a, worker, ta](int64_t bi, int64_t k) {
            return ta ? a.Get(worker, k, bi) : a.Get(worker, bi, k);
          },
          [&b, worker, tb](int64_t k, int64_t bj) {
            return tb ? b.Get(worker, bj, k) : b.Get(worker, k, bj);
          },
          [&sink](int64_t bi, int64_t bj, Block blk) {
            sink(bi, bj, std::move(blk));
          },
          mopts);
    });
  }

  Status ExecCpmm(const PlanStep& step, const DistMatrix& a,
                  const DistMatrix& b, DistMatrix* c) {
    const bool ta = step.trans_a;
    const bool tb = step.trans_b;
    DMAC_CHECK(a.scheme() == (ta ? Scheme::kRow : Scheme::kCol));
    DMAC_CHECK(b.scheme() == (tb ? Scheme::kCol : Scheme::kRow));
    const BlockGrid& out_grid = c->grid();
    const int64_t kb = ta ? a.grid().block_rows() : a.grid().block_cols();

    // Phase 1: every worker forms its partial C over its own k-range.
    // Phase 2: partial blocks are shuffled to their final owner and summed
    // (the cross-product aggregation whose cost is N·|C|, §4.1).
    const auto partial_products = [&](int w, std::vector<Partial>* partials) {
      int64_t klo, khi;
      OwnedRange(w, kb, opts_.num_workers, &klo, &khi);
      if (klo >= khi) return Status::Ok();
      std::vector<MultiplyTask> tasks;
      for (int64_t bi = 0; bi < out_grid.block_rows(); ++bi) {
        for (int64_t bj = 0; bj < out_grid.block_cols(); ++bj) {
          tasks.push_back({bi, bj, klo, khi});
        }
      }
      Mutex mu;  // guards `partials` while pool threads run
      return TimedWorker(step, w, [&] {
        return engine_.MultiplyBlocks(
            out_grid, tasks,
            [&a, w, ta](int64_t bi, int64_t k) {
              return ta ? a.Get(w, k, bi) : a.Get(w, bi, k);
            },
            [&b, w, tb](int64_t k, int64_t bj) {
              return tb ? b.Get(w, bj, k) : b.Get(w, k, bj);
            },
            [&](int64_t bi, int64_t bj, Block blk) {
              if (blk.nnz() == 0) return;  // nothing to ship
              auto ptr = std::make_shared<const Block>(std::move(blk));
              MutexLock lock(&mu);
              partials->push_back({bi, bj, std::move(ptr), w});
            },
            MultiplyOptions{ta, tb, step.cache_csr_b});
      },
      /*idempotent=*/false);  // a second run would duplicate the partials
    };
    const auto round_boundary = [&] {
      recovery_->AtRoundBoundary(step);
      // The cheapest place to notice a mid-CPMM cancel.
      return CheckCancel();
    };
    return ShuffleAndSum(step, "cpmm-shuffle", c, partial_products,
                         round_boundary, /*sum_on_idle_owners=*/false);
  }

  /// A partial of output block (bi, bj) computed by worker `from`.
  struct Partial {
    int64_t bi;
    int64_t bj;
    DistMatrix::BlockPtr block;
    int from;
  };

  /// Shuffle-and-sum, shared by CPMM and the crossed row/column sums, whose
  /// workers each hold partials of the whole output. Worker by worker,
  /// `produce(w, &partials)` computes w's partials and they are sent to the
  /// owners of their output blocks in output-block order, so the network
  /// layer's fault draws are a pure function of the plan and seed.
  /// `round_boundary()` runs between the last send and the flush. Each
  /// owner then sums its partials as kAggregate engine tasks, and output
  /// blocks that got no partial become empty blocks. Owners that received
  /// nothing skip the summation unless `sum_on_idle_owners`: every timed
  /// worker call draws from the fault injector, and the crossed sums have
  /// always timed every owner while CPMM timed only those with partials.
  template <typename Produce, typename Boundary>
  Status ShuffleAndSum(const PlanStep& step, const char* name, DistMatrix* c,
                       Produce&& produce, Boundary&& round_boundary,
                       bool sum_on_idle_owners) {
    const BlockGrid& out_grid = c->grid();
    const int64_t bcols = out_grid.block_cols();
    std::vector<std::vector<Partial>> incoming(
        static_cast<size_t>(opts_.num_workers));
    Transport::Round round(&transport_, CommKind::kShuffle, name,
                           /*span_covers_round=*/false);
    for (int w = 0; w < opts_.num_workers; ++w) {
      std::vector<Partial> partials;
      DMAC_RETURN_NOT_OK(produce(w, &partials));
      // Pool threads and hash maps hand partials over in no fixed order.
      std::sort(partials.begin(), partials.end(),
                [bcols](const Partial& x, const Partial& y) {
                  return x.bi * bcols + x.bj < y.bi * bcols + y.bj;
                });
      for (Partial& p : partials) {
        const int owner = c->OwnerOf(p.bi, p.bj);
        const double bytes = static_cast<double>(p.block->MemoryBytes());
        round.Send(w, owner, bytes,
                   [&incoming, owner, p = std::move(p)]() mutable {
                     incoming[static_cast<size_t>(owner)].push_back(
                         std::move(p));
                   });
      }
    }
    round.Close();
    DMAC_RETURN_NOT_OK(round_boundary());
    DMAC_RETURN_NOT_OK(round.Flush());

    for (int w = 0; w < opts_.num_workers; ++w) {
      auto& parts = incoming[static_cast<size_t>(w)];
      if (parts.empty() && !sum_on_idle_owners) continue;
      std::unordered_map<int64_t, std::vector<Partial>> grouped;
      for (Partial& p : parts) {
        grouped[p.bi * bcols + p.bj].push_back(std::move(p));
      }
      // Sum each output block's partials in sender order, regardless of
      // arrival order: locally-kept and network-delivered partials may
      // interleave differently, and floating-point addition is not
      // associative — the summation order must be canonical for the run to
      // stay bit-identical under reordering faults.
      for (auto& [key, group] : grouped) {
        std::sort(group.begin(), group.end(),
                  [](const Partial& x, const Partial& y) {
                    return x.from < y.from;
                  });
      }
      StoreSink sink(c, w);
      Status st = TimedWorker(step, w, [&] {
        std::vector<std::function<Status()>> tasks;
        tasks.reserve(grouped.size());
        for (auto& [key, group] : grouped) {
          tasks.push_back([this, &sink, bi = key / bcols, bj = key % bcols,
                           group = &group] {
            std::vector<const Block*> blocks;
            blocks.reserve(group->size());
            for (const Partial& p : *group) blocks.push_back(p.block.get());
            auto sum = SumBlocks(blocks, opts_.density_threshold);
            if (!sum.ok()) return sum.status();
            sink(bi, bj, std::move(*sum));
            return Status::Ok();
          });
        }
        return engine_.RunTasks(tasks, TaskKind::kAggregate);
      });
      DMAC_RETURN_NOT_OK(st);
    }

    // Output blocks with no partials anywhere are zero blocks.
    for (int64_t bi = 0; bi < out_grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < bcols; ++bj) {
        const int w = c->OwnerOf(bi, bj);
        if (c->Get(w, bi, bj) == nullptr) {
          const Shape shape = out_grid.BlockShape(bi, bj);
          c->Put(w, bi, bj,
                 std::make_shared<const Block>(
                     CscBlock(shape.rows, shape.cols)));
        }
      }
    }
    return Status::Ok();
  }

  Status ExecCellwise(const PlanStep& step) {
    const DistMatrix& a = store_.Data(step.inputs[0]);
    const DistMatrix& b = store_.Data(step.inputs[1]);
    if (a.grid().matrix != b.grid().matrix) {
      return Status::DimensionMismatch("distributed cell-wise op " +
                                       a.grid().matrix.ToString() + " vs " +
                                       b.grid().matrix.ToString());
    }
    DMAC_CHECK(a.scheme() == b.scheme());
    auto c = NewData(step.output, a.grid().matrix);
    const OpKind kind = step.op_kind;
    return MapBlocks(
        step, a, c.get(), TaskKind::kElementwise, /*transpose=*/false,
        [&b, kind](int w, int64_t bi, int64_t bj,
                   const Block& ablk) -> Result<Block> {
          const auto bblk = b.Get(w, bi, bj);
          if (bblk == nullptr) {
            return Status::Internal("cell-wise op: operand block missing");
          }
          switch (kind) {
            case OpKind::kAdd:
              return Add(ablk, *bblk);
            case OpKind::kSubtract:
              return Subtract(ablk, *bblk);
            case OpKind::kCellMultiply:
              return CellMultiply(ablk, *bblk);
            case OpKind::kCellDivide:
              return CellDivide(ablk, *bblk);
            default:
              return Status::Internal("bad cell-wise kind");
          }
        });
  }

  Status ExecScalarOp(const PlanStep& step) {
    const DistMatrix& a = store_.Data(step.inputs[0]);
    DMAC_ASSIGN_OR_RETURN(double scalar,
                          EvalScalar(step.scalar, store_.scalars));
    auto c = NewData(step.output, a.grid().matrix);
    const bool add = step.op_kind == OpKind::kScalarAdd;
    const Scalar v = static_cast<Scalar>(scalar);
    return MapBlocks(step, a, c.get(), TaskKind::kElementwise,
                     /*transpose=*/false,
                     [add, v](int, int64_t, int64_t, const Block& blk) {
                       return Result<Block>(add ? ScalarAdd(blk, v)
                                                : ScalarMultiply(blk, v));
                     });
  }

  Status ExecCellUnary(const PlanStep& step) {
    const DistMatrix& a = store_.Data(step.inputs[0]);
    auto c = NewData(step.output, a.grid().matrix);
    const UnaryFnKind fn = step.unary_fn;
    return MapBlocks(step, a, c.get(), TaskKind::kElementwise,
                     /*transpose=*/false,
                     [fn](int, int64_t, int64_t, const Block& blk) {
                       return Result<Block>(CellUnary(blk, fn));
                     });
  }

  /// Row/column sums. Three layouts (mirroring the strategy set): summing
  /// along the partitioned axis is per-worker local; a Broadcast input is
  /// reduced once and re-shared; summing across the partitioned axis leaves
  /// per-worker partial vectors that are shuffled to their owners and added
  /// (the aggregation whose plan cost is N·|out|).
  Status ExecAggregate(const PlanStep& step) {
    const DistMatrix& a = store_.Data(step.inputs[0]);
    const bool rows = step.op_kind == OpKind::kRowSums;
    const Shape out_shape =
        rows ? Shape{a.grid().matrix.rows, 1} : Shape{1, a.grid().matrix.cols};
    auto c = NewData(step.output, out_shape);
    const BlockGrid& out_grid = c->grid();

    // Sums one worker's blocks into per-output-block dense accumulators.
    auto local_partials =
        [&](int w) -> std::unordered_map<int64_t, DenseBlock> {
      std::unordered_map<int64_t, DenseBlock> acc;
      for (auto& [bi, bj, ptr] : a.WorkerBlocks(w)) {
        const int64_t out_idx = rows ? bi : bj;
        auto it = acc.find(out_idx);
        if (it == acc.end()) {
          const Shape s = rows ? out_grid.BlockShape(out_idx, 0)
                               : out_grid.BlockShape(0, out_idx);
          it = acc.emplace(out_idx, DenseBlock(s.rows, s.cols)).first;
        }
        const DenseBlock partial = rows ? RowSums(*ptr) : ColSums(*ptr);
        Status st = AddAccumulate(Block(partial), &it->second);
        DMAC_CHECK(st.ok()) << st;
      }
      return acc;
    };

    const bool broadcast = a.scheme() == Scheme::kBroadcast;
    if (broadcast || a.scheme() == (rows ? Scheme::kRow : Scheme::kCol)) {
      // Local: the worker owning a row (column) range owns every block that
      // contributes to its slice of the result. A Broadcast input is summed
      // once, on worker 0, and the result shared.
      const int workers = broadcast ? 1 : opts_.num_workers;
      for (int w = 0; w < workers; ++w) {
        Status st = TimedWorker(step, w, [&] {
          for (auto& [idx, acc] : local_partials(w)) {
            c->Put(w, rows ? idx : 0, rows ? 0 : idx,
                   std::make_shared<const Block>(
                       CompactFromDense(acc, opts_.density_threshold)));
          }
          return Status::Ok();
        });
        DMAC_RETURN_NOT_OK(st);
      }
      return broadcast ? ReplicateFromWorkerZero(c.get()) : Status::Ok();
    }

    // Crossed: every worker holds a partial over the full output; shuffle
    // partials to their owners and sum.
    const auto partial_sums = [&](int w, std::vector<Partial>* partials) {
      std::unordered_map<int64_t, DenseBlock> sums;
      DMAC_RETURN_NOT_OK(TimedWorker(step, w, [&] {
        sums = local_partials(w);
        return Status::Ok();
      }));
      for (const auto& [idx, acc] : sums) {
        partials->push_back(
            {rows ? idx : 0, rows ? 0 : idx,
             std::make_shared<const Block>(
                 CompactFromDense(acc, opts_.density_threshold)),
             w});
      }
      return Status::Ok();
    };
    return ShuffleAndSum(step, "aggregate-shuffle", c.get(), partial_sums,
                         [] { return Status::Ok(); },
                         /*sum_on_idle_owners=*/true);
  }

  /// Shares worker 0's blocks with every other replica of a Broadcast
  /// matrix (all replicas are identical by construction).
  Status ReplicateFromWorkerZero(DistMatrix* dm) {
    for (int64_t bi = 0; bi < dm->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
        auto ptr = dm->Get(0, bi, bj);
        if (ptr == nullptr) {
          return Status::Internal("broadcast result missing block");
        }
        for (int w = 1; w < opts_.num_workers; ++w) dm->Put(w, bi, bj, ptr);
      }
    }
    return Status::Ok();
  }

  Status ExecReduce(const PlanStep& step) {
    const DistMatrix& a = store_.Data(step.inputs[0]);
    const bool broadcast = a.scheme() == Scheme::kBroadcast;
    const int workers = broadcast ? 1 : opts_.num_workers;
    double total = 0;
    for (int w = 0; w < workers; ++w) {
      double partial = 0;
      Status st = TimedWorker(step, w, [&] {
        for (auto& [bi, bj, ptr] : a.WorkerBlocks(w)) {
          partial += step.reduce == ReduceKind::kNorm2 ? SumSquares(*ptr)
                                                       : Sum(*ptr);
        }
        return Status::Ok();
      },
      /*idempotent=*/false);  // a second run would double `partial`
      DMAC_RETURN_NOT_OK(st);
      total += partial;
    }
    if (step.reduce == ReduceKind::kNorm2) total = std::sqrt(total);
    store_.scalars[step.scalar_out] = total;
    transport_.ChargeReduce();  // the N partials reach the driver
    return Status::Ok();
  }

  // ---- gather -------------------------------------------------------------

  Result<LocalMatrix> Gather(int node_id) {
    DistMatrix& dm = store_.Data(node_id);
    if (gov_.spill != nullptr && dm.SpilledEntries() > 0) {
      TraceSpan span(kTraceSpill, "restore node " + std::to_string(node_id),
                     -1, TraceArg("node", int64_t{node_id}));
      DMAC_RETURN_NOT_OK(dm.EnsureResident().status());
    }
    const BlockGrid& grid = dm.grid();
    std::vector<Block> blocks;
    blocks.reserve(static_cast<size_t>(grid.num_blocks()));
    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        auto ptr = dm.GetOwned(bi, bj);
        if (ptr == nullptr) {
          return Status::Internal("gather: missing block (" +
                                  std::to_string(bi) + "," +
                                  std::to_string(bj) + ")");
        }
        blocks.push_back(*ptr);
      }
    }
    return LocalMatrix::FromBlocks(grid.matrix, grid.block_size,
                                   std::move(blocks));
  }

  ExecutorOptions opts_;
  const Plan& plan_;
  const Bindings& bindings_;
  ThreadPool pool_;
  BufferPool buffers_;
  LocalEngine engine_;
  int64_t block_size_ = 0;
  NodeStore store_;
  ExecStats stats_;

  // Governance (docs/governance.md). The token is a value sharing state
  // with the caller's copy; budget and spill store are shared with every
  // node's DistMatrix. `node_last_use_` drives LRU spill ordering.
  GovernorContext gov_;
  std::unique_ptr<FormatCache> format_cache_;  // not movable: holds a Mutex
  std::vector<int> node_last_use_;
  int step_clock_ = 0;
  bool cancel_span_emitted_ = false;

  // Fault tolerance (docs/fault_tolerance.md): lineage, checkpoints,
  // durable epochs, injection, membership and the retry loop. Declared
  // before the transport, whose network layer points into it.
  std::unique_ptr<Recovery> recovery_;
  Transport transport_;  // every block moved between worker stores

  // Cached metric instruments (stable pointers; no-ops while the registry
  // is disabled).
  Counter* metric_steps_ = MetricRegistry::Global().counter(kMetricStepsExecuted);
  Gauge* metric_stages_ = MetricRegistry::Global().gauge(kMetricStages);
  Gauge* metric_microkernel_level_ =
      MetricRegistry::Global().gauge(kMetricGemmMicroKernelLevel);
  Gauge* metric_peak_memory_ =
      MetricRegistry::Global().gauge(kMetricPeakMemoryBytes);
  Gauge* metric_estimate_drift_ =
      MetricRegistry::Global().gauge(kMetricPlanEstimateDrift);
  Counter* metric_estimate_drift_events_ =
      MetricRegistry::Global().counter(kMetricPlanEstimateDriftEvents);
  Counter* metric_fault_speculated_ =
      MetricRegistry::Global().counter(kMetricFaultSpeculatedTasks);
};

Executor::Executor(ExecutorOptions options) : options_(options) {}

Result<ExecutionResult> Executor::Execute(const Plan& plan,
                                          const Bindings& bindings) {
  Result<ExecutionResult> result = [&] {
    Impl impl(options_, plan, bindings);
    return impl.Run();
  }();  // Impl destroyed here: buffers, stores, and spill charges released
  if (options_.governor.budget != nullptr) {
    MetricRegistry::Global()
        .gauge(kMetricGovernorBudgetPeakBytes)
        ->Set(static_cast<double>(options_.governor.budget->peak_bytes()));
  }
  return result;
}

}  // namespace dmac
