#include "runtime/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/timer.h"
#include "common/thread_pool.h"
#include "fault/checkpoint.h"
#include "fault/durable_checkpoint.h"
#include "fault/durable_io.h"
#include "fault/injector.h"
#include "fault/lineage.h"
#include "fault/retry_policy.h"
#include "matrix/kernels.h"
#include "matrix/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/buffer_pool.h"
#include "runtime/membership.h"
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

/// Trace-span name of a step: "compute[multiply:RMM1]", "broadcast", ...
std::string StepSpanName(const PlanStep& step) {
  std::string name = StepKindName(step.kind);
  if (step.kind == StepKind::kCompute) {
    name += "[";
    name += OpKindName(step.op_kind);
    if (step.mult_algo != MultAlgo::kNone) {
      name += ":";
      name += MultAlgoName(step.mult_algo);
    }
    name += "]";
  }
  if (!step.source.empty()) name += " " + step.source;
  return name;
}

}  // namespace

class Executor::Impl {
 public:
  Impl(const ExecutorOptions& opts, const Plan& plan, const Bindings& bindings)
      : opts_(opts),
        plan_(plan),
        bindings_(bindings),
        pool_(static_cast<size_t>(opts.threads_per_worker)),
        buffers_(static_cast<size_t>(opts.threads_per_worker) * 2),
        engine_(&pool_, &buffers_, opts.local_mode, opts.density_threshold,
                opts.task_scheduling),
        node_data_(plan.nodes.size()),
        gov_(opts.governor),
        node_last_use_(plan.nodes.size(), -1),
        transport_(opts.num_workers, &stats_, &recovering_) {
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
    DMAC_RETURN_NOT_OK(SetUpFaultTolerance());
    DMAC_RETURN_NOT_OK(MaybeResume());
    MemTracker::Global().ResetPeak();
    const int64_t mem_before_peak = MemTracker::Global().peak_bytes();

    // Steps run in dependency order, so stage numbers may interleave; each
    // contiguous run of same-stage steps becomes one stage span (the same
    // grouping Plan::ToString uses for its "=== Stage" headers).
    int current_stage = std::numeric_limits<int>::min();
    std::optional<TraceSpan> stage_span;
    for (const PlanStep& step : plan_.steps) {
      if (step.id <= resume_skip_step_) {
        // The restored snapshot covers this step. Bump the LRU clock the
        // way an uninterrupted run would (spill ordering parity), then
        // either skip it or — for the load steps of reload-marked nodes —
        // re-execute it against the caller's bindings.
        TickLruClock(step);
        if (reload_step_ids_.count(step.id) != 0) {
          DMAC_RETURN_NOT_OK(ExecuteStep(step));
          // Lineage only: the snapshot's checkpoint counter already
          // includes this step's contribution from the original run.
          RecordLineage(step);
        }
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
      Status step_status = ft_ ? RunStepWithRecovery(step) : ExecuteStep(step);
      if (!step_status.ok() && gov_.token.active() && gov_.token.Fired()) {
        // The engine observed the token mid-kernel; surface the governance
        // status (and its one cancel span), not the kernel's unwind error.
        DropOutput(step);
        DMAC_RETURN_NOT_OK(CheckCancel());
      }
      DMAC_RETURN_NOT_OK(step_status);
      metric_steps_->Increment();
    }
    stage_span.reset();
    metric_stages_->Set(plan_.num_stages);
    metric_microkernel_level_->Set(ActiveMicroKernelLevel());

    if (injector_ != nullptr) {
      // Boundary faults injected after the last consumer of a node can
      // linger into the gather; one final recovery sweep repairs them.
      DMAC_RETURN_NOT_OK(RecoverAll());
      stats_.faults_injected = injector_->faults_drawn();
      metric_fault_injected_->Add(
          static_cast<double>(stats_.faults_injected));
    }
    ExportFaultNetworkStats();

    ExecutionResult result;
    for (const PlanOutput& out : plan_.outputs) {
      DMAC_ASSIGN_OR_RETURN(LocalMatrix m, Gather(out.node));
      if (out.transposed) m = m.Transposed();
      result.matrices.emplace(out.variable, std::move(m));
    }
    for (const auto& [var, ssa] : plan_.scalar_outputs) {
      auto it = scalars_.find(ssa);
      if (it == scalars_.end()) {
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
    for (size_t i = 0; i < node_data_.size(); ++i) {
      const auto& dm = node_data_[i];
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

  DistMatrix& Data(int node_id) {
    DMAC_CHECK(node_data_[static_cast<size_t>(node_id)] != nullptr)
        << "node " << node_id << " has no materialized data";
    return *node_data_[static_cast<size_t>(node_id)];
  }

  std::shared_ptr<DistMatrix> NewData(int node_id, Shape shape) {
    const PlanNode& node = NodeOf(node_id);
    auto dm = std::make_shared<DistMatrix>(BlockGrid{shape, block_size_},
                                           node.scheme(), opts_.num_workers);
    if (gov_.budget != nullptr || gov_.spill != nullptr) {
      dm->SetGovernor(gov_.budget, gov_.spill);
    }
    if (!host_map_.empty()) dm->SetRebalanceMap(host_map_);
    node_data_[static_cast<size_t>(node_id)] = dm;
    return dm;
  }

  /// Times `fn` and attributes the elapsed seconds to (step.stage, worker),
  /// both in ExecStats and as a worker-attributed trace span. Block tasks
  /// the engine runs inside `fn` inherit the worker id for their spans.
  ///
  /// This is also the task-launch fault-injection point: with an active
  /// injector (and outside recovery) the launch can fail transiently or
  /// straggle. `idempotent` marks whether running `fn` twice yields the
  /// same state — true for the sink-writing sites (a second run overwrites
  /// the same store keys with identical blocks), false for the accumulating
  /// closures (CPMM phase 1, reduce) — and gates straggler speculation.
  template <typename Fn>
  Status TimedWorker(const PlanStep& step, int worker, Fn&& fn,
                     bool idempotent = true) {
    // Recovery attempts are not re-injected — except a permanent fault,
    // which by definition fails every attempt until retries exhaust.
    if (injector_ != nullptr &&
        (!recovering_ ||
         step.id == injector_->spec().permanent_fail_step)) {
      if (injector_->DrawTransientFailure(step.id)) {
        return Status::Unavailable("injected transient failure on worker " +
                                   std::to_string(worker) + " in step " +
                                   std::to_string(step.id));
      }
      const double delay = injector_->DrawStragglerDelay();
      if (delay > 0) {
        return StraggledWorker(step, worker, std::forward<Fn>(fn), idempotent,
                               delay);
      }
    }
    // Logical slot `worker` may be hosted by a survivor after a permanent
    // death; timing and spans attribute to the physical host while the
    // block layout stays keyed by the logical slot (bit identity).
    const int host = Host(worker);
    TraceSpan span =
        TraceRecorder::Global().enabled()
            ? TraceSpan(recovering_ ? kTraceRecovery : kTraceWorker,
                        StepSpanName(step), host,
                        TraceArg("stage", int64_t{step.stage}))
            : TraceSpan();
    engine_.SetWorkerContext(host);
    Timer timer;
    Status st = fn();
    if (recovering_) {
      AddRecoverySeconds(step.stage, timer.ElapsedSeconds());
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
      AddRecoverySeconds(step.stage, measured + delay);
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

  void AddRecoverySeconds(int stage, double seconds) {
    stats_.AddRecoverySeconds(stage, seconds);
    metric_fault_recovery_seconds_->Add(seconds);
  }

  /// Reads a block for a cross-worker transfer, verifying integrity in
  /// fault-tolerant runs. Missing blocks are DataLoss (retryable after
  /// recovery) rather than an internal error.
  Result<DistMatrix::BlockPtr> VerifiedGet(const DistMatrix& src, int worker,
                                           int64_t bi, int64_t bj,
                                           const char* what) {
    auto ptr = src.Get(worker, bi, bj);
    if (ptr == nullptr) {
      return Status::DataLoss(std::string(what) + ": block (" +
                              std::to_string(bi) + ", " + std::to_string(bj) +
                              ") missing on worker " + std::to_string(worker));
    }
    if (ft_) DMAC_RETURN_NOT_OK(src.VerifyAt(worker, bi, bj));
    return ptr;
  }

  // ---- governance (docs/governance.md) ------------------------------------

  /// Cooperative cancellation poll. The first failed check emits one
  /// `cancel` trace span recording how the query ended.
  Status CheckCancel() {
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

  /// Drops whatever a failed step left of its output: no partial output
  /// may survive in the stores.
  void DropOutput(const PlanStep& step) {
    if (step.output >= 0) {
      node_data_[static_cast<size_t>(step.output)] = nullptr;
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
      const auto& dm = node_data_[static_cast<size_t>(input)];
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
    for (size_t id = 0; id < node_data_.size(); ++id) {
      if (node_data_[id] == nullptr) continue;
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
      auto& dm = node_data_[static_cast<size_t>(node)];
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
      auto& dm = node_data_[static_cast<size_t>(input)];
      if (dm == nullptr || dm->SpilledEntries() == 0) continue;
      TraceSpan span(kTraceSpill, "restore node " + std::to_string(input),
                     -1, TraceArg("node", int64_t{input}));
      DMAC_RETURN_NOT_OK(dm->EnsureResident().status());
    }
    return Status::Ok();
  }

  // ---- fault tolerance (docs/fault_tolerance.md) --------------------------

  Status SetUpFaultTolerance() {
    const bool durable = !opts_.checkpoint_dir.empty();
    // A durable directory implies checkpointing: default the cadence to
    // every producing step so a bare --checkpoint-dir is crash-safe.
    effective_checkpoint_every_ =
        opts_.checkpoint_every > 0 ? opts_.checkpoint_every : (durable ? 1 : 0);
    ft_ = opts_.fault.enabled || effective_checkpoint_every_ > 0;
    min_workers_ = std::min(std::max(opts_.min_workers, 1), opts_.num_workers);
    if (durable) {
      DMAC_RETURN_NOT_OK(opts_.fault.disk.Validate());
      // Salted so the disk schedule is independent of the injector's and
      // the data seed's streams (durable_io.h header comment).
      storage_io_ = std::make_shared<StorageIO>(
          opts_.fault.disk, opts_.fault.seed ^ 0x5d15c0de5d15c0deULL,
          opts_.fault.disk.crash_soft ? StorageIO::CrashMode::kSoft
                                      : StorageIO::CrashMode::kHard);
      // A run that does not resume restores nothing, so a directory with
      // no verifiable epoch (say, an older on-disk format) is as good as
      // an empty one for it.
      DMAC_ASSIGN_OR_RETURN(
          durable_store_,
          DurableCheckpointStore::Open(
              opts_.checkpoint_dir, storage_io_,
              opts_.resume
                  ? DurableCheckpointStore::OnUnverifiable::kFail
                  : DurableCheckpointStore::OnUnverifiable::kStartEmpty));
    }
    if (!ft_) return Status::Ok();
    retry_policy_ = RetryPolicy{opts_.fault.max_retries,
                                opts_.fault.backoff_base_seconds,
                                /*multiplier=*/2.0, /*cap_seconds=*/0,
                                /*jitter_fraction=*/0, opts_.fault.seed};
    if (opts_.fault.enabled) {
      DMAC_RETURN_NOT_OK(opts_.fault.Validate());
      injector_ = std::make_unique<FaultInjector>(opts_.fault);
      const bool death_possible =
          opts_.fault.death_prob > 0 || opts_.fault.death_step >= 0;
      if (death_possible || opts_.fault.net.Any()) {
        membership_ = std::make_unique<ClusterMembership>(opts_.num_workers);
        transport_.EnableNetwork(injector_.get(), membership_.get(),
                                 retry_policy_);
      }
    }
    plan_has_hints_ = false;
    for (const PlanNode& node : plan_.nodes) {
      plan_has_hints_ = plan_has_hints_ || node.checkpoint_hint;
    }
    return Status::Ok();
  }

  int Host(int w) const { return transport_.Host(w); }

  /// Copies membership and network-fault accounting into ExecStats and the
  /// metric registry at the end of a run.
  void ExportFaultNetworkStats() {
    if (storage_io_ != nullptr) {
      stats_.disk_faults_injected = storage_io_->faults_injected();
      metric_fault_disk_faults_->Add(
          static_cast<double>(stats_.disk_faults_injected));
    }
    if (membership_ != nullptr) {
      stats_.membership_epoch = membership_->epoch();
      metric_membership_epoch_->Set(
          static_cast<double>(membership_->epoch()));
      metric_membership_dead_->Set(
          static_cast<double>(membership_->dead_workers()));
      metric_membership_detection_->Add(stats_.detection_seconds);
    }
    if (transport_.network() == nullptr) return;
    const NetFaultStats& ns = transport_.network()->stats();
    stats_.net_messages = ns.messages;
    stats_.net_retransmits = ns.retransmits;
    stats_.net_retrans_bytes = ns.retrans_bytes;
    stats_.net_duplicates = ns.duplicates;
    stats_.net_reordered = ns.reordered;
    stats_.net_delay_seconds = ns.delay_seconds;
    stats_.net_partitions = ns.partitions;
    stats_.net_stale_fenced = ns.stale_fenced;
    stats_.net_stale_applied = ns.stale_applied;
    metric_net_messages_->Add(static_cast<double>(ns.messages));
    metric_net_retransmits_->Add(static_cast<double>(ns.retransmits));
    metric_net_retrans_bytes_->Add(ns.retrans_bytes);
    metric_net_duplicates_->Add(static_cast<double>(ns.duplicates));
    metric_net_reordered_->Add(static_cast<double>(ns.reordered));
    metric_net_delay_seconds_->Add(ns.delay_seconds);
    metric_net_partitions_->Add(static_cast<double>(ns.partitions));
    metric_net_stale_fenced_->Add(static_cast<double>(ns.stale_fenced));
    metric_net_stale_applied_->Add(static_cast<double>(ns.stale_applied));
  }

  /// Fault-tolerant step execution: inject boundary faults, then attempt
  /// the step up to 1 + max_retries times. A retryable failure (transient
  /// Unavailable, detected DataLoss) triggers exponential backoff and full
  /// lineage recovery before the next attempt; retried attempts run as
  /// recovery work so the useful-compute totals stay clean. On success the
  /// output's lineage manifest is recorded and checkpointing may trigger.
  Status RunStepWithRecovery(const PlanStep& step) {
    if (injector_ != nullptr) InjectBoundaryFaults(step);
    // Below quorum the run fails clean — no retries burned, no recovery
    // attempted, no partial output left behind.
    if (!quorum_status_.ok()) {
      DropOutput(step);
      return quorum_status_;
    }
    Status st;
    for (int attempt = 0;; ++attempt) {
      st = AttemptStep(step, attempt);
      if (st.ok()) break;
      // An in-flight death during the attempt may have dropped the cluster
      // below quorum; give up before the retry machinery spends anything.
      if (!quorum_status_.ok()) {
        DropOutput(step);
        return quorum_status_;
      }
      // A fired token preempts the retry path: the query exits promptly —
      // no retry counted, no simulated backoff, no recovery sweep — and no
      // partial output survives.
      if (gov_.token.active()) {
        Status cancelled = gov_.token.Check();
        if (!cancelled.ok()) {
          DropOutput(step);
          DMAC_RETURN_NOT_OK(CheckCancel());  // emits the cancel span
        }
      }
      const bool retryable = RetryPolicy::Retryable(st);
      if (!retryable || attempt >= retry_policy_.max_retries) {
        DropOutput(step);  // give up cleanly
        if (retryable) {
          const std::string msg = "step " + std::to_string(step.id) +
                                  " failed after " +
                                  std::to_string(attempt + 1) +
                                  " attempts: " + st.message();
          return st.code() == StatusCode::kUnavailable
                     ? Status::Unavailable(msg)
                     : Status::DataLoss(msg);
        }
        return st;
      }
      TraceSpan span(kTraceRecovery, "retry " + StepSpanName(step), -1,
                     TraceArg("step", int64_t{step.id}) + "," +
                         TraceArg("attempt", int64_t{attempt + 1}));
      stats_.AddRetry(step.stage);
      metric_fault_retries_->Increment();
      // Simulated exponential backoff; transient faults clear with time.
      AddRecoverySeconds(step.stage, retry_policy_.BackoffSeconds(attempt));
      DMAC_RETURN_NOT_OK(RecoverAll());
    }
    DMAC_RETURN_NOT_OK(AfterStepSuccess(step));
    return st;
  }

  Status AttemptStep(const PlanStep& step, int attempt) {
    // The first attempt is the useful one; repeats are recovery work (no
    // further injection, seconds and bytes attributed to recovery).
    recovering_ = attempt > 0;
    // A failed attempt may have left undelivered sends queued (e.g. a
    // missing block detected mid-shuffle); they must never leak into a
    // later flush.
    transport_.DropPending();
    Status st = PreflightStepInputs(step);
    if (st.ok()) st = ExecuteStep(step);
    recovering_ = false;
    return st;
  }

  /// Verifies every input node of `step` against its lineage manifest:
  /// all recorded blocks present and hashing to their recorded checksums.
  Status PreflightStepInputs(const PlanStep& step) {
    for (int input : step.inputs) {
      const NodeLineage* lin = lineage_.Find(input);
      if (lin == nullptr) continue;  // produced before fault mode engaged
      const auto& dm = node_data_[static_cast<size_t>(input)];
      if (dm == nullptr) {
        return Status::DataLoss("input node " + std::to_string(input) +
                                " has no materialized data");
      }
      const int64_t bcols = dm->grid().block_cols();
      for (const LineageBlockRecord& rec : lin->blocks) {
        DMAC_RETURN_NOT_OK(
            dm->VerifyAt(rec.worker, rec.key / bcols, rec.key % bcols));
      }
    }
    return Status::Ok();
  }

  /// Step-boundary injection: worker crashes, permanent worker deaths, and
  /// per-entry lost/corrupted blocks, applied to every live node in a
  /// deterministic sweep (nodes by id, workers ascending, store keys
  /// ascending) so a seed always yields the same schedule.
  void InjectBoundaryFaults(const PlanStep& step) {
    int victim = -1;
    if (injector_->DrawCrash(opts_.num_workers, &victim)) {
      TraceSpan span(kTraceRecovery, "inject-crash", victim);
      for (auto& dm : node_data_) {
        if (dm != nullptr) dm->ClearWorker(victim);
      }
    }
    if (membership_ != nullptr) {
      // Forced death at a chosen step boundary (death_in_flight instead
      // fires mid-CPMM, at the communication-round boundary).
      if (opts_.fault.death_step == step.id && !opts_.fault.death_in_flight &&
          !forced_death_applied_) {
        forced_death_applied_ = true;
        ApplyDeath(opts_.fault.death_worker, step.stage);
      }
      // Probabilistic deaths are quorum-budgeted: once one more death would
      // drop the cluster below min_workers, no further draw is consumed —
      // the fault schedule of the surviving spec stays deterministic.
      if (opts_.fault.death_prob > 0 &&
          membership_->live_workers() - 1 >= min_workers_ &&
          injector_->DrawWorkerDeath()) {
        const int k = injector_->DrawVictim(membership_->live_workers());
        int seen = 0;
        for (int w = 0; w < opts_.num_workers; ++w) {
          if (membership_->IsDead(w)) continue;
          if (seen++ == k) {
            ApplyDeath(w, step.stage);
            break;
          }
        }
      }
    }
    const bool per_entry = opts_.fault.lost_block_prob > 0 ||
                           opts_.fault.corrupt_prob > 0;
    if (!per_entry) return;
    for (auto& dm : node_data_) {
      if (dm == nullptr) continue;
      const int64_t bcols = dm->grid().block_cols();
      for (int w = 0; w < opts_.num_workers; ++w) {
        for (int64_t key : dm->SortedWorkerKeys(w)) {
          const int64_t bi = key / bcols;
          const int64_t bj = key % bcols;
          if (injector_->DrawLostBlock()) {
            dm->Drop(w, bi, bj);
            continue;
          }
          if (injector_->DrawCorruptBlock()) {
            auto ptr = dm->Get(w, bi, bj);
            if (ptr == nullptr) continue;  // spilled: no payload in memory
            dm->ReplacePayload(w, bi, bj,
                               std::make_shared<const Block>(CorruptedCopy(
                                   *ptr, injector_->DrawSeed())));
          }
        }
      }
    }
  }

  /// Permanently kills logical worker `victim`: the failure detector
  /// declares it dead (bumping the membership epoch, which fences any
  /// in-flight transfer it sent), its blocks vanish from every store, and
  /// its logical slot is rebalanced onto a deterministic survivor. The
  /// lost blocks are re-derived through the ordinary lineage machinery
  /// (checkpoint → replica → recompute) on the next recovery sweep. Below
  /// quorum this arms `quorum_status_` instead of attempting recovery.
  void ApplyDeath(int victim, int stage) {
    if (victim < 0 || victim >= opts_.num_workers) return;
    if (membership_->IsDead(victim)) return;  // death is permanent
    const double detection = membership_->DeclareDead(victim);
    stats_.detection_seconds += detection;
    AddRecoverySeconds(stage, detection);
    ++stats_.workers_dead;
    for (auto& dm : node_data_) {
      if (dm != nullptr) dm->ClearWorker(victim);
    }
    host_map_ = membership_->HostMap();
    for (auto& dm : node_data_) {
      if (dm != nullptr) dm->SetRebalanceMap(host_map_);
    }
    TraceSpan span(kTraceMembership, "worker-death", victim,
                   TraceArg("epoch", membership_->epoch()) + "," +
                       TraceArg("live", int64_t{membership_->live_workers()}));
    if (membership_->live_workers() < min_workers_) {
      quorum_status_ = Status::Unavailable(
          "worker " + std::to_string(victim) + " died permanently, leaving " +
          std::to_string(membership_->live_workers()) +
          " live workers below the quorum of " + std::to_string(min_workers_));
    }
  }

  /// Repairs every damaged node, cheapest source first: checkpoint restore,
  /// then a surviving Broadcast replica, then recomputation by re-running
  /// the lineage producer step. Walks nodes in producer-step order, so a
  /// recomputed step always reads already-repaired inputs. All repaired
  /// state is re-verified against the lineage manifests — recovery is only
  /// allowed to reproduce the run bit-identically.
  [[nodiscard]] Status RecoverAll() {
    TraceSpan span(kTraceRecovery, "recover-all");
    recovering_ = true;
    Status st = RecoverAllImpl();
    recovering_ = false;
    return st;
  }

  [[nodiscard]] Status RecoverAllImpl() {
    for (const PlanStep& step : plan_.steps) {
      if (step.output < 0) continue;
      const NodeLineage* lin = lineage_.Find(step.output);
      if (lin == nullptr) continue;  // not (successfully) produced yet
      DMAC_RETURN_NOT_OK(RecoverNode(step.output, *lin));
    }
    return Status::Ok();
  }

  [[nodiscard]] Status RecoverNode(int node_id, const NodeLineage& lin) {
    auto& dm = node_data_[static_cast<size_t>(node_id)];
    std::vector<LineageBlockRecord> dirty;
    if (dm == nullptr) {
      dirty = lin.blocks;
    } else {
      const int64_t bcols = dm->grid().block_cols();
      for (const LineageBlockRecord& rec : lin.blocks) {
        if (!dm->VerifyAt(rec.worker, rec.key / bcols, rec.key % bcols)
                 .ok()) {
          dirty.push_back(rec);
        }
      }
    }
    if (dirty.empty()) return Status::Ok();

    TraceSpan span =
        TraceRecorder::Global().enabled()
            ? TraceSpan(kTraceRecovery, "recover node " + NodeOf(node_id).ToString(),
                        -1, TraceArg("node", int64_t{node_id}) + "," +
                                TraceArg("dirty",
                                         static_cast<int64_t>(dirty.size())))
            : TraceSpan();

    // 1. Checkpoint restore: the payloads recorded at checkpoint time.
    if (dm != nullptr) {
      if (const auto* snap = checkpoints_.Find(node_id)) {
        std::vector<LineageBlockRecord> remaining;
        const int64_t bcols = dm->grid().block_cols();
        for (const LineageBlockRecord& rec : dirty) {
          const CheckpointBlock* found = nullptr;
          for (const CheckpointBlock& cb : *snap) {
            if (cb.worker == rec.worker && cb.key == rec.key &&
                cb.checksum == rec.checksum) {
              found = &cb;
              break;
            }
          }
          if (found != nullptr) {
            dm->Put(rec.worker, rec.key / bcols, rec.key % bcols,
                    found->block);
            ++stats_.restored_blocks;
            metric_fault_restored_->Increment();
          } else {
            remaining.push_back(rec);
          }
        }
        dirty = std::move(remaining);
      }
    }

    // 2. Broadcast replica repair: copy a surviving, verifying replica.
    if (dm != nullptr && !dirty.empty() &&
        dm->scheme() == Scheme::kBroadcast) {
      std::vector<LineageBlockRecord> remaining;
      const int64_t bcols = dm->grid().block_cols();
      for (const LineageBlockRecord& rec : dirty) {
        const int64_t bi = rec.key / bcols;
        const int64_t bj = rec.key % bcols;
        bool repaired = false;
        for (int w = 0; w < opts_.num_workers && !repaired; ++w) {
          if (w == rec.worker) continue;
          // The replica must be resident, not just verifiable: VerifyAt
          // passes spilled entries (their file carries the checksum), but
          // Get on one yields null and a null Put would tombstone the slot.
          DistMatrix::BlockPtr replica = dm->Get(w, bi, bj);
          if (replica != nullptr && dm->VerifyAt(w, bi, bj).ok()) {
            dm->Put(rec.worker, bi, bj, std::move(replica));
            ++stats_.restored_blocks;
            metric_fault_restored_->Increment();
            repaired = true;
          }
        }
        if (!repaired) remaining.push_back(rec);
      }
      dirty = std::move(remaining);
    }

    // 3. Recompute from lineage: re-run the producer step (deterministic,
    //    so the rebuilt matrix is bit-identical). Inputs were repaired by
    //    earlier iterations of the producer-order walk.
    if (!dirty.empty()) {
      const PlanStep& producer =
          plan_.steps[static_cast<size_t>(lin.producer_step)];
      DMAC_RETURN_NOT_OK(ExecuteStep(producer));
      stats_.AddRecomputed(producer.stage,
                           static_cast<int64_t>(dirty.size()));
      metric_fault_recomputed_->Add(static_cast<double>(dirty.size()));
    }

    // Re-stamp and enforce bit-identity with the recorded manifest.
    auto& repaired = node_data_[static_cast<size_t>(node_id)];
    if (repaired == nullptr) {
      return Status::Internal("recovery left node " +
                              std::to_string(node_id) + " unmaterialized");
    }
    repaired->SetChecksums();
    const int64_t bcols = repaired->grid().block_cols();
    for (const LineageBlockRecord& rec : lin.blocks) {
      if (repaired->ChecksumAt(rec.worker, rec.key / bcols,
                               rec.key % bcols) != rec.checksum) {
        return Status::Internal(
            "recovery of node " + std::to_string(node_id) +
            " diverged from its lineage manifest at block key " +
            std::to_string(rec.key) + " on worker " +
            std::to_string(rec.worker));
      }
    }
    return Status::Ok();
  }

  /// Post-success bookkeeping of a fault-tolerant step: stamp checksums,
  /// record the output's lineage manifest, and checkpoint when due.
  Status AfterStepSuccess(const PlanStep& step) {
    if (step.output < 0) return Status::Ok();
    RecordLineage(step);
    return MaybeCheckpoint(step);
  }

  /// Stamps the output's checksums and records its lineage manifest.
  void RecordLineage(const PlanStep& step) {
    DistMatrix& dm = Data(step.output);
    dm.SetChecksums();
    NodeLineage lin;
    lin.node_id = step.output;
    lin.producer_step = step.id;
    lin.inputs = step.inputs;
    const int64_t bcols = dm.grid().block_cols();
    for (int w = 0; w < opts_.num_workers; ++w) {
      for (int64_t key : dm.SortedWorkerKeys(w)) {
        lin.blocks.push_back(
            {w, key, dm.ChecksumAt(w, key / bcols, key % bcols)});
      }
    }
    lineage_.Record(std::move(lin));
  }

  [[nodiscard]] Status MaybeCheckpoint(const PlanStep& step) {
    if (effective_checkpoint_every_ <= 0) return Status::Ok();
    const PlanNode& node = NodeOf(step.output);
    if (plan_has_hints_ && !node.checkpoint_hint) return Status::Ok();
    if (++checkpoint_counter_ % effective_checkpoint_every_ != 0) {
      return Status::Ok();
    }
    TraceSpan span(kTraceCheckpoint, "checkpoint " + node.ToString(), -1,
                   TraceArg("node", int64_t{node.id}));
    const DistMatrix& dm = Data(step.output);
    const int64_t bcols = dm.grid().block_cols();
    // Blocks are immutable and fault injection replaces a payload instead
    // of mutating it, so the snapshot shares the store's pointers.
    std::vector<CheckpointBlock> blocks;
    for (int w = 0; w < opts_.num_workers; ++w) {
      for (int64_t key : dm.SortedWorkerKeys(w)) {
        blocks.push_back({w, key, dm.ChecksumAt(w, key / bcols, key % bcols),
                          dm.Get(w, key / bcols, key % bcols)});
      }
    }
    const int64_t before = checkpoints_.bytes_written();
    checkpoints_.Put(step.output, std::move(blocks));
    const int64_t written = checkpoints_.bytes_written() - before;
    stats_.checkpoint_bytes += written;
    metric_fault_checkpoint_bytes_->Add(static_cast<double>(written));
    if (durable_store_ == nullptr) return Status::Ok();
    return CommitDurable(step);
  }

  /// Commits a durable epoch covering everything a restart needs to resume
  /// after `step`: the scalar environment, reload markers for the nodes
  /// produced by kLoad steps (their blocks alias caller-owned bindings and
  /// are re-loaded instead of serialized), and every block of every other
  /// live node — the inputs of later steps plus the plan outputs.
  [[nodiscard]] Status CommitDurable(const PlanStep& step) {
    TraceSpan span(kTraceCheckpoint,
                   "commit epoch after step " + std::to_string(step.id), -1,
                   TraceArg("step", int64_t{step.id}));
    std::set<int> live;  // ordered: the manifest layout is deterministic
    for (const PlanStep& later : plan_.steps) {
      if (later.id <= step.id) continue;
      for (int input : later.inputs) live.insert(input);
    }
    for (const PlanOutput& out : plan_.outputs) live.insert(out.node);

    std::vector<int> reload_nodes;
    std::vector<PendingDurableBlock> pending;
    for (const int node_id : live) {
      auto& dm = node_data_[static_cast<size_t>(node_id)];
      if (dm == nullptr) continue;  // not produced yet
      const PlanNode& node = NodeOf(node_id);
      if (node.producer_step >= 0 &&
          plan_.steps[static_cast<size_t>(node.producer_step)].kind ==
              StepKind::kLoad) {
        reload_nodes.push_back(node_id);
        continue;
      }
      if (dm->SpilledEntries() > 0) {
        DMAC_RETURN_NOT_OK(dm->EnsureResident().status());
      }
      // Snapshot the *recorded* checksums, deliberately not re-stamping:
      // re-hashing here would launder a boundary-injected corruption into
      // the manifest. A payload that disagrees with its recorded checksum
      // either keeps the committed epoch's verified file for its position
      // or is written as a file that fails verification at Open, and the
      // epoch falls back — conservative and safe.
      const int64_t bcols = dm->grid().block_cols();
      for (int w = 0; w < opts_.num_workers; ++w) {
        for (int64_t key : dm->SortedWorkerKeys(w)) {
          auto ptr = dm->Get(w, key / bcols, key % bcols);
          if (ptr == nullptr) continue;
          pending.push_back(PendingDurableBlock{
              node_id, w, key, dm->ChecksumAt(w, key / bcols, key % bcols),
              std::move(ptr)});
        }
      }
    }
    std::vector<std::pair<std::string, double>> scalar_env(scalars_.begin(),
                                                           scalars_.end());
    std::sort(scalar_env.begin(), scalar_env.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    const int64_t before = durable_store_->bytes_written();
    const Status st = durable_store_->Commit(step.id, checkpoint_counter_,
                                             scalar_env, reload_nodes,
                                             pending);
    if (!st.ok()) {
      // A simulated process death must propagate (in hard mode the crash
      // never returns; soft mode surfaces kInternal and refuses further
      // I/O). Any other disk fault is absorbed: the run continues, covered
      // by the previous committed epoch.
      if (storage_io_->dead() || st.code() == StatusCode::kInternal) return st;
      ++stats_.checkpoint_failures;
      metric_fault_checkpoint_failures_->Increment();
      return Status::Ok();
    }
    const int64_t written = durable_store_->bytes_written() - before;
    stats_.durable_checkpoint_bytes += written;
    ++stats_.durable_epochs;
    metric_fault_durable_bytes_->Add(static_cast<double>(written));
    metric_fault_epochs_->Increment();
    return Status::Ok();
  }

  /// Restores the last committed durable snapshot when `--resume` asked for
  /// it: scalars bit-exactly, every snapshotted node's blocks (checksum-
  /// verified), lineage manifests, and the in-memory checkpoint cache (hot
  /// in-process recovery never re-reads disk). Steps the snapshot covers
  /// are skipped by the main loop, except the kLoad steps of reload-marked
  /// nodes, which re-execute against the caller's bindings. A fresh store
  /// (no committed epoch) resumes from nothing — a plain full run.
  Status MaybeResume() {
    if (!opts_.resume || durable_store_ == nullptr) return Status::Ok();
    const DurableSnapshot* snap = durable_store_->committed();
    if (snap == nullptr) return Status::Ok();
    Timer timer;
    TraceSpan span(kTraceCheckpoint,
                   "resume epoch " + std::to_string(snap->epoch), -1,
                   TraceArg("epoch", snap->epoch) + "," +
                       TraceArg("step", int64_t{snap->resume_step}));

    // The snapshot must describe *this* plan; a stale directory from a
    // different program or config must fail loudly, not half-restore.
    const auto bad = [&](const std::string& why) {
      return Status::Invalid("resume: checkpoint dir " +
                             durable_store_->dir() +
                             " does not match this plan (" + why + ")");
    };
    if (snap->resume_step < 0 ||
        static_cast<size_t>(snap->resume_step) >= plan_.steps.size()) {
      return bad("resume step " + std::to_string(snap->resume_step) +
                 " out of range");
    }
    for (const int node_id : snap->reload_nodes) {
      if (node_id < 0 || static_cast<size_t>(node_id) >= plan_.nodes.size()) {
        return bad("reload node " + std::to_string(node_id) + " out of range");
      }
      const int producer = NodeOf(node_id).producer_step;
      if (producer < 0 ||
          plan_.steps[static_cast<size_t>(producer)].kind != StepKind::kLoad) {
        return bad("reload node " + std::to_string(node_id) +
                   " is not load-produced");
      }
      reload_step_ids_.insert(producer);
    }

    for (const auto& [name, bits] : snap->scalars) {
      double value = 0;
      static_assert(sizeof(value) == sizeof(bits));
      std::memcpy(&value, &bits, sizeof(value));
      scalars_[name] = value;
    }
    checkpoint_counter_ = snap->checkpoint_counter;
    resume_skip_step_ = snap->resume_step;

    // Group the snapshot's blocks per node and rebuild each DistMatrix.
    std::map<int, std::vector<const DurableBlock*>> per_node;
    for (const DurableBlock& b : snap->blocks) {
      if (b.node_id < 0 ||
          static_cast<size_t>(b.node_id) >= plan_.nodes.size()) {
        return bad("block node " + std::to_string(b.node_id) +
                   " out of range");
      }
      if (b.worker < 0 || b.worker >= opts_.num_workers) {
        return bad("block worker " + std::to_string(b.worker) +
                   " out of range — was the snapshot taken with a different "
                   "--workers?");
      }
      per_node[b.node_id].push_back(&b);
    }
    for (const auto& [node_id, refs] : per_node) {
      const PlanNode& node = NodeOf(node_id);
      auto dm = NewData(node_id, node.stats.shape);
      const int64_t bcols = dm->grid().block_cols();
      NodeLineage lin;
      lin.node_id = node_id;
      lin.producer_step = node.producer_step;
      if (node.producer_step >= 0) {
        lin.inputs =
            plan_.steps[static_cast<size_t>(node.producer_step)].inputs;
      }
      std::vector<CheckpointBlock> cache_blocks;
      // One read per distinct file: Broadcast replicas share a payload on
      // disk exactly as they do in memory.
      std::unordered_map<std::string, std::shared_ptr<const Block>> loaded;
      for (const DurableBlock* ref : refs) {
        const int64_t bi = ref->key / bcols;
        const int64_t bj = ref->key % bcols;
        if (bi >= dm->grid().block_rows() || bj >= dm->grid().block_cols()) {
          return bad("block key " + std::to_string(ref->key) +
                     " outside node " + std::to_string(node_id) + "'s grid");
        }
        auto [it, inserted] = loaded.try_emplace(ref->file);
        if (inserted) {
          DMAC_ASSIGN_OR_RETURN(Block block, durable_store_->ReadBlock(*ref));
          it->second = std::make_shared<const Block>(std::move(block));
          ++stats_.resume_restored_blocks;
          metric_fault_resume_restored_->Increment();
        }
        dm->Put(ref->worker, bi, bj, it->second);
        lin.blocks.push_back({ref->worker, ref->key, ref->checksum});
        cache_blocks.push_back(
            {ref->worker, ref->key, ref->checksum, it->second});
      }
      dm->SetChecksums();
      lineage_.Record(std::move(lin));
      // Write-through cache hydration: post-resume in-process recovery hits
      // memory first, like it would in an uninterrupted run.
      checkpoints_.Put(node_id, std::move(cache_blocks));
    }
    stats_.resumed = true;
    stats_.resume_step = snap->resume_step;
    metric_fault_resume_seconds_->Add(timer.ElapsedSeconds());
    return Status::Ok();
  }

  // ---- step dispatch ------------------------------------------------------

  Status ExecuteStep(const PlanStep& step) {
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
        DMAC_ASSIGN_OR_RETURN(double v, EvalScalar(step.scalar, scalars_));
        scalars_[step.scalar_out] = v;
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
    const DistMatrix& src = Data(step.inputs[0]);
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
    const DistMatrix& src = Data(step.inputs[0]);
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
    const DistMatrix& src = Data(step.inputs[0]);
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
    const DistMatrix& src = Data(step.inputs[0]);
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
    const DistMatrix& a = Data(step.inputs[0]);
    const DistMatrix& b = Data(step.inputs[1]);
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
      // Partials are in flight. A death forced here (death_in_flight)
      // bumps the epoch while the victim's sends sit queued, so the flush
      // fences them — the stale-epoch path the degraded-mode tests audit.
      if (membership_ != nullptr && opts_.fault.death_in_flight &&
          opts_.fault.death_step == step.id && !forced_death_applied_ &&
          !recovering_) {
        forced_death_applied_ = true;
        ApplyDeath(opts_.fault.death_worker, step.stage);
      }
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
    const DistMatrix& a = Data(step.inputs[0]);
    const DistMatrix& b = Data(step.inputs[1]);
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
    const DistMatrix& a = Data(step.inputs[0]);
    DMAC_ASSIGN_OR_RETURN(double scalar, EvalScalar(step.scalar, scalars_));
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
    const DistMatrix& a = Data(step.inputs[0]);
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
    const DistMatrix& a = Data(step.inputs[0]);
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
    const DistMatrix& a = Data(step.inputs[0]);
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
    scalars_[step.scalar_out] = total;
    transport_.ChargeReduce();  // the N partials reach the driver
    return Status::Ok();
  }

  // ---- gather -------------------------------------------------------------

  Result<LocalMatrix> Gather(int node_id) {
    DistMatrix& dm = Data(node_id);
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
  std::vector<std::shared_ptr<DistMatrix>> node_data_;
  std::unordered_map<std::string, double> scalars_;
  ExecStats stats_;

  // Governance (docs/governance.md). The token is a value sharing state
  // with the caller's copy; budget and spill store are shared with every
  // node's DistMatrix. `node_last_use_` drives LRU spill ordering.
  GovernorContext gov_;
  std::unique_ptr<FormatCache> format_cache_;  // not movable: holds a Mutex
  std::vector<int> node_last_use_;
  int step_clock_ = 0;
  bool cancel_span_emitted_ = false;

  // Fault tolerance (docs/fault_tolerance.md). `ft_` is the master switch
  // the hot paths branch on; `injector_` is non-null only when injection is
  // configured; `recovering_` marks work that must be attributed to
  // recovery (and must not be re-injected).
  bool ft_ = false;
  bool recovering_ = false;
  bool plan_has_hints_ = false;
  int64_t checkpoint_counter_ = 0;
  std::unique_ptr<FaultInjector> injector_;
  LineageTracker lineage_;
  CheckpointStore checkpoints_;

  // Durable checkpoints & crash restart (docs/fault_tolerance.md,
  // "Durability & restart"). Both pointers are null without a
  // --checkpoint-dir; `effective_checkpoint_every_` is checkpoint_every
  // defaulted to 1 when only the directory was given. Steps with
  // id <= resume_skip_step_ are covered by the restored snapshot; the ids
  // in `reload_step_ids_` are the load steps re-executed anyway.
  std::shared_ptr<StorageIO> storage_io_;
  std::unique_ptr<DurableCheckpointStore> durable_store_;
  int effective_checkpoint_every_ = 0;
  int resume_skip_step_ = -1;
  std::set<int> reload_step_ids_;

  // Membership and degraded mode (docs/fault_tolerance.md). The pointer is
  // null, and the transport has no network layer, unless the spec can kill
  // workers or perturb messages, so clean runs deliver every block
  // directly. `retry_policy_` also drives the step retry loop (it encodes
  // the same exponential backoff the executor always used).
  std::unique_ptr<ClusterMembership> membership_;
  RetryPolicy retry_policy_;
  Transport transport_;  // every block moved between worker stores
  Status quorum_status_ = Status::Ok();
  std::vector<int> host_map_;  // cached HostMap; applied to new matrices
  bool forced_death_applied_ = false;
  int min_workers_ = 1;

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
  Counter* metric_fault_injected_ =
      MetricRegistry::Global().counter(kMetricFaultInjected);
  Counter* metric_fault_retries_ =
      MetricRegistry::Global().counter(kMetricFaultRetries);
  Counter* metric_fault_recomputed_ =
      MetricRegistry::Global().counter(kMetricFaultRecomputedBlocks);
  Counter* metric_fault_restored_ =
      MetricRegistry::Global().counter(kMetricFaultRestoredBlocks);
  Counter* metric_fault_speculated_ =
      MetricRegistry::Global().counter(kMetricFaultSpeculatedTasks);
  Counter* metric_fault_checkpoint_bytes_ =
      MetricRegistry::Global().counter(kMetricFaultCheckpointBytes);
  Counter* metric_fault_recovery_seconds_ =
      MetricRegistry::Global().counter(kMetricFaultRecoverySeconds);
  Counter* metric_fault_durable_bytes_ =
      MetricRegistry::Global().counter(kMetricFaultCheckpointDurableBytes);
  Counter* metric_fault_epochs_ =
      MetricRegistry::Global().counter(kMetricFaultCheckpointEpochs);
  Counter* metric_fault_checkpoint_failures_ =
      MetricRegistry::Global().counter(kMetricFaultCheckpointFailures);
  Counter* metric_fault_resume_restored_ =
      MetricRegistry::Global().counter(kMetricFaultResumeRestoredBlocks);
  Counter* metric_fault_resume_seconds_ =
      MetricRegistry::Global().counter(kMetricFaultResumeSeconds);
  Counter* metric_fault_disk_faults_ =
      MetricRegistry::Global().counter(kMetricFaultDiskFaults);
  Counter* metric_net_messages_ =
      MetricRegistry::Global().counter(kMetricNetMessages);
  Counter* metric_net_retransmits_ =
      MetricRegistry::Global().counter(kMetricNetRetransmits);
  Counter* metric_net_retrans_bytes_ =
      MetricRegistry::Global().counter(kMetricNetRetransBytes);
  Counter* metric_net_duplicates_ =
      MetricRegistry::Global().counter(kMetricNetDuplicates);
  Counter* metric_net_reordered_ =
      MetricRegistry::Global().counter(kMetricNetReordered);
  Counter* metric_net_delay_seconds_ =
      MetricRegistry::Global().counter(kMetricNetDelaySeconds);
  Counter* metric_net_partitions_ =
      MetricRegistry::Global().counter(kMetricNetPartitions);
  Counter* metric_net_stale_fenced_ =
      MetricRegistry::Global().counter(kMetricNetStaleFenced);
  Counter* metric_net_stale_applied_ =
      MetricRegistry::Global().counter(kMetricNetStaleApplied);
  Gauge* metric_membership_epoch_ =
      MetricRegistry::Global().gauge(kMetricMembershipEpoch);
  Gauge* metric_membership_dead_ =
      MetricRegistry::Global().gauge(kMetricMembershipWorkersDead);
  Counter* metric_membership_detection_ =
      MetricRegistry::Global().counter(kMetricMembershipDetectionSeconds);
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
