#include "runtime/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "common/timer.h"
#include "fault/durable_checkpoint.h"
#include "fault/durable_io.h"
#include "fault/injector.h"
#include "fault/lineage.h"
#include "fault/retry_policy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "runtime/membership.h"

namespace dmac {

void AddRecoverySeconds(ExecStats* stats, int stage, double seconds) {
  static Counter* metric =
      MetricRegistry::Global().counter(kMetricFaultRecoverySeconds);
  stats->AddRecoverySeconds(stage, seconds);
  metric->Add(seconds);
}

namespace {

/// Every block of `dm`'s stores in (worker, key) order with the checksum
/// its entry records; with `payloads`, also the resident payload (null
/// for a spilled entry).
std::vector<LineageBlockRecord> StoredBlocks(const DistMatrix& dm,
                                             bool payloads) {
  std::vector<LineageBlockRecord> out;
  const int64_t bcols = dm.grid().block_cols();
  for (int w = 0; w < dm.num_workers(); ++w) {
    for (int64_t key : dm.SortedWorkerKeys(w)) {
      const int64_t bi = key / bcols;
      const int64_t bj = key % bcols;
      out.push_back({w, key, dm.ChecksumAt(w, bi, bj),
                     payloads ? dm.Get(w, bi, bj) : nullptr});
    }
  }
  return out;
}

/// Verifies `rec`'s block in `dm`: present, and hashing to its stamped
/// checksum.
Status VerifyRecord(const DistMatrix& dm, const LineageBlockRecord& rec) {
  const int64_t bcols = dm.grid().block_cols();
  return dm.VerifyAt(rec.worker, rec.key / bcols, rec.key % bcols);
}

class RecoveryImpl final : public Recovery {
 public:
  RecoveryImpl(const ExecutorOptions& opts, const Plan& plan,
               NodeStore* store, ExecStats* stats, Transport* transport,
               StepRunner* runner)
      : opts_(opts),
        plan_(plan),
        store_(store),
        stats_(stats),
        transport_(transport),
        runner_(runner) {}

  Status Start() override {
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
    if (!ft_) return Status::Ok();  // nothing durable to resume either
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
        transport_->EnableNetwork(injector_.get(), membership_.get(),
                                  retry_policy_);
      }
    }
    plan_has_hints_ = false;
    for (const PlanNode& node : plan_.nodes) {
      plan_has_hints_ = plan_has_hints_ || node.checkpoint_hint;
    }
    return MaybeResume();
  }

  Result<bool> Resumed(const PlanStep& step) override {
    if (step.id > resume_skip_step_) return false;
    if (reload_step_ids_.count(step.id) != 0) {
      DMAC_RETURN_NOT_OK(runner_->ExecuteStep(step));
      // Lineage only: the snapshot's checkpoint counter already includes
      // this step's contribution from the original run.
      RecordLineage(step, /*pin=*/false);
    }
    return true;
  }

  Status RunStep(const PlanStep& step) override {
    if (!ft_) return runner_->ExecuteStep(step);
    if (injector_ != nullptr) InjectBoundaryFaults(step);
    // Below quorum the run fails clean — no retries burned, no recovery
    // attempted, no partial output left behind.
    if (!quorum_status_.ok()) {
      store_->DropOutput(step);
      return quorum_status_;
    }
    Status st;
    for (int attempt = 0;; ++attempt) {
      // The first attempt is the useful one; repeats are recovery work (no
      // further injection, seconds and bytes attributed to recovery). A
      // failed attempt may have left undelivered sends queued (e.g. a
      // missing block detected mid-shuffle); they must never leak into a
      // later flush.
      transport_->set_recovering(attempt > 0);
      transport_->DropPending();
      st = PreflightStepInputs(step);
      if (st.ok()) st = runner_->ExecuteStep(step);
      transport_->set_recovering(false);
      if (st.ok()) break;
      // An in-flight death during the attempt may have dropped the cluster
      // below quorum; give up before the retry machinery spends anything.
      if (!quorum_status_.ok()) {
        store_->DropOutput(step);
        return quorum_status_;
      }
      // A fired token preempts the retry path: the query exits promptly —
      // no retry counted, no simulated backoff, no recovery sweep — and no
      // partial output survives.
      Status cancelled = runner_->CheckCancel();
      if (!cancelled.ok()) {
        store_->DropOutput(step);
        return cancelled;
      }
      const bool retryable = RetryPolicy::Retryable(st);
      if (!retryable || attempt >= retry_policy_.max_retries) {
        store_->DropOutput(step);  // give up cleanly
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
      stats_->AddRetry(step.stage);
      metric_fault_retries_->Increment();
      // Simulated exponential backoff; transient faults clear with time.
      AddRecoverySeconds(stats_, step.stage,
                         retry_policy_.BackoffSeconds(attempt));
      DMAC_RETURN_NOT_OK(RecoverAll());
    }
    DMAC_RETURN_NOT_OK(AfterStepSuccess(step));
    return st;
  }

  Result<double> DrawLaunchFault(const PlanStep& step, int worker) override {
    // Recovery attempts are not re-injected — except a permanent fault,
    // which by definition fails every attempt until retries exhaust.
    if (injector_ == nullptr ||
        (transport_->recovering() &&
         step.id != injector_->spec().permanent_fail_step)) {
      return 0.0;
    }
    if (injector_->DrawTransientFailure(step.id)) {
      return Status::Unavailable("injected transient failure on worker " +
                                 std::to_string(worker) + " in step " +
                                 std::to_string(step.id));
    }
    return injector_->DrawStragglerDelay();
  }

  void AtRoundBoundary(const PlanStep& step) override {
    // Partials are in flight. A death forced here (death_in_flight) bumps
    // the epoch while the victim's sends sit queued, so the flush fences
    // them — the stale-epoch path the degraded-mode tests audit.
    if (membership_ != nullptr && opts_.fault.death_in_flight &&
        opts_.fault.death_step == step.id && !forced_death_applied_ &&
        !transport_->recovering()) {
      forced_death_applied_ = true;
      ApplyDeath(opts_.fault.death_worker, step.stage);
    }
  }

  Status Finish() override {
    // Metrics set once per run are looked up here rather than cached.
    MetricRegistry& metrics = MetricRegistry::Global();
    if (injector_ != nullptr) {
      // Boundary faults injected after the last consumer of a node can
      // linger into the gather; one final recovery sweep repairs them.
      DMAC_RETURN_NOT_OK(RecoverAll());
      stats_->faults_injected = injector_->faults_drawn();
      metrics.counter(kMetricFaultInjected)
          ->Add(static_cast<double>(stats_->faults_injected));
    }
    if (storage_io_ != nullptr) {
      stats_->disk_faults_injected = storage_io_->faults_injected();
      metrics.counter(kMetricFaultDiskFaults)
          ->Add(static_cast<double>(stats_->disk_faults_injected));
    }
    if (membership_ != nullptr) {
      stats_->membership_epoch = membership_->epoch();
      metrics.gauge(kMetricMembershipEpoch)
          ->Set(static_cast<double>(membership_->epoch()));
      metrics.gauge(kMetricMembershipWorkersDead)
          ->Set(static_cast<double>(membership_->dead_workers()));
      metrics.counter(kMetricMembershipDetectionSeconds)
          ->Add(stats_->detection_seconds);
    }
    if (transport_->network() == nullptr) return Status::Ok();
    const NetFaultStats& ns = transport_->network()->stats();
    stats_->net_messages = ns.messages;
    stats_->net_retransmits = ns.retransmits;
    stats_->net_retrans_bytes = ns.retrans_bytes;
    stats_->net_duplicates = ns.duplicates;
    stats_->net_reordered = ns.reordered;
    stats_->net_delay_seconds = ns.delay_seconds;
    stats_->net_partitions = ns.partitions;
    stats_->net_stale_fenced = ns.stale_fenced;
    stats_->net_stale_applied = ns.stale_applied;
    const std::pair<const char*, double> net_metrics[] = {
        {kMetricNetMessages, static_cast<double>(ns.messages)},
        {kMetricNetRetransmits, static_cast<double>(ns.retransmits)},
        {kMetricNetRetransBytes, ns.retrans_bytes},
        {kMetricNetDuplicates, static_cast<double>(ns.duplicates)},
        {kMetricNetReordered, static_cast<double>(ns.reordered)},
        {kMetricNetDelaySeconds, ns.delay_seconds},
        {kMetricNetPartitions, static_cast<double>(ns.partitions)},
        {kMetricNetStaleFenced, static_cast<double>(ns.stale_fenced)},
        {kMetricNetStaleApplied, static_cast<double>(ns.stale_applied)}};
    for (const auto& [name, value] : net_metrics) {
      metrics.counter(name)->Add(value);
    }
    return Status::Ok();
  }

 private:
  const PlanNode& NodeOf(int id) const {
    return plan_.nodes[static_cast<size_t>(id)];
  }

  /// Verifies every input node of `step` against its lineage manifest:
  /// all recorded blocks present and hashing to their recorded checksums.
  Status PreflightStepInputs(const PlanStep& step) {
    for (int input : step.inputs) {
      const NodeLineage* lin = lineage_.Find(input);
      if (lin == nullptr) continue;  // produced before fault mode engaged
      const auto& dm = store_->nodes[static_cast<size_t>(input)];
      if (dm == nullptr) {
        return Status::DataLoss("input node " + std::to_string(input) +
                                " has no materialized data");
      }
      for (const LineageBlockRecord& rec : lin->blocks) {
        DMAC_RETURN_NOT_OK(VerifyRecord(*dm, rec));
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
      for (auto& dm : store_->nodes) {
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
    for (auto& dm : store_->nodes) {
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
    stats_->detection_seconds += detection;
    AddRecoverySeconds(stats_, stage, detection);
    ++stats_->workers_dead;
    for (auto& dm : store_->nodes) {
      if (dm != nullptr) dm->ClearWorker(victim);
    }
    store_->host_map = membership_->HostMap();
    for (auto& dm : store_->nodes) {
      if (dm != nullptr) dm->SetRebalanceMap(store_->host_map);
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
    transport_->set_recovering(true);
    Status st = Status::Ok();
    for (const PlanStep& step : plan_.steps) {
      // Nodes without a manifest were not (successfully) produced yet.
      const NodeLineage* lin =
          step.output < 0 ? nullptr : lineage_.Find(step.output);
      if (lin != nullptr) st = RecoverNode(step.output, *lin);
      if (!st.ok()) break;
    }
    transport_->set_recovering(false);
    return st;
  }

  [[nodiscard]] Status RecoverNode(int node_id, const NodeLineage& lin) {
    auto& dm = store_->nodes[static_cast<size_t>(node_id)];
    std::vector<const LineageBlockRecord*> dirty;
    for (const LineageBlockRecord& rec : lin.blocks) {
      if (dm == nullptr || !VerifyRecord(*dm, rec).ok()) dirty.push_back(&rec);
    }
    if (dirty.empty()) return Status::Ok();

    TraceSpan span =
        TraceRecorder::Global().enabled()
            ? TraceSpan(kTraceRecovery,
                        "recover node " + NodeOf(node_id).ToString(), -1,
                        TraceArg("node", int64_t{node_id}) + "," +
                            TraceArg("dirty",
                                     static_cast<int64_t>(dirty.size())))
            : TraceSpan();

    // 1. Checkpoint restore: the payload pinned on the record, and
    // 2. Broadcast replica repair: copy a surviving, verifying replica.
    if (dm != nullptr) {
      std::vector<const LineageBlockRecord*> remaining;
      const int64_t bcols = dm->grid().block_cols();
      const bool broadcast = dm->scheme() == Scheme::kBroadcast;
      for (const LineageBlockRecord* rec : dirty) {
        const int64_t bi = rec->key / bcols;
        const int64_t bj = rec->key % bcols;
        if (rec->pinned != nullptr) {
          dm->Put(rec->worker, bi, bj, rec->pinned);
          ++stats_->restored_blocks;
          metric_fault_restored_->Increment();
        } else if (!broadcast || !RepairFromReplica(dm.get(), *rec)) {
          remaining.push_back(rec);
        }
      }
      dirty = std::move(remaining);
    }

    // 3. Recompute from lineage: re-run the producer step (deterministic,
    //    so the rebuilt matrix is bit-identical). Inputs were repaired by
    //    earlier iterations of the producer-order walk.
    if (!dirty.empty()) {
      const PlanStep& producer =
          plan_.steps[static_cast<size_t>(lin.producer_step)];
      DMAC_RETURN_NOT_OK(runner_->ExecuteStep(producer));
      stats_->AddRecomputed(producer.stage,
                            static_cast<int64_t>(dirty.size()));
      metric_fault_recomputed_->Add(static_cast<double>(dirty.size()));
    }

    // Re-stamp and enforce bit-identity with the recorded manifest.
    auto& repaired = store_->nodes[static_cast<size_t>(node_id)];
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

  /// Copies a surviving, verifying replica of `rec`'s block into its slot
  /// of Broadcast matrix `dm`; false when no replica qualifies.
  bool RepairFromReplica(DistMatrix* dm, const LineageBlockRecord& rec) {
    const int64_t bcols = dm->grid().block_cols();
    const int64_t bi = rec.key / bcols;
    const int64_t bj = rec.key % bcols;
    for (int w = 0; w < opts_.num_workers; ++w) {
      if (w == rec.worker) continue;
      // The replica must be resident, not just verifiable: VerifyAt passes
      // spilled entries (their file carries the checksum), but Get on one
      // yields null and a null Put would tombstone the slot.
      DistMatrix::BlockPtr replica = dm->Get(w, bi, bj);
      if (replica != nullptr && dm->VerifyAt(w, bi, bj).ok()) {
        dm->Put(rec.worker, bi, bj, std::move(replica));
        ++stats_->restored_blocks;
        metric_fault_restored_->Increment();
        return true;
      }
    }
    return false;
  }

  /// Post-success bookkeeping of a fault-tolerant step: stamp checksums,
  /// record the output's lineage manifest (pinning its payloads when a
  /// checkpoint is due), and commit a durable epoch with the checkpoint.
  Status AfterStepSuccess(const PlanStep& step) {
    if (step.output < 0) return Status::Ok();
    const PlanNode& node = NodeOf(step.output);
    // Only hinted nodes count toward the cadence when the plan has hints.
    const bool checkpoint =
        effective_checkpoint_every_ > 0 &&
        (!plan_has_hints_ || node.checkpoint_hint) &&
        ++checkpoint_counter_ % effective_checkpoint_every_ == 0;
    const NodeLineage& lin = RecordLineage(step, checkpoint);
    if (!checkpoint) return Status::Ok();
    TraceSpan span(kTraceCheckpoint, "checkpoint " + node.ToString(), -1,
                   TraceArg("node", int64_t{node.id}));
    const int64_t written = PinnedBytes(lin);
    stats_->checkpoint_bytes += written;
    metric_fault_checkpoint_bytes_->Add(static_cast<double>(written));
    if (durable_store_ == nullptr) return Status::Ok();
    return CommitDurable(step);
  }

  /// Stamps the output's checksums and records its lineage manifest; with
  /// `pin` the manifest also pins the output's payloads (a checkpoint).
  const NodeLineage& RecordLineage(const PlanStep& step, bool pin) {
    DistMatrix& dm = store_->Data(step.output);
    dm.SetChecksums();
    NodeLineage lin;
    lin.node_id = step.output;
    lin.producer_step = step.id;
    lin.blocks = StoredBlocks(dm, pin);
    return lineage_.Record(std::move(lin));
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
      auto& dm = store_->nodes[static_cast<size_t>(node_id)];
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
      for (LineageBlockRecord& rec : StoredBlocks(*dm, /*payloads=*/true)) {
        if (rec.pinned == nullptr) continue;
        pending.push_back(PendingDurableBlock{node_id, rec.worker, rec.key,
                                              rec.checksum,
                                              std::move(rec.pinned)});
      }
    }
    std::vector<std::pair<std::string, double>> scalar_env(
        store_->scalars.begin(), store_->scalars.end());
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
      ++stats_->checkpoint_failures;
      metric_fault_checkpoint_failures_->Increment();
      return Status::Ok();
    }
    const int64_t written = durable_store_->bytes_written() - before;
    stats_->durable_checkpoint_bytes += written;
    ++stats_->durable_epochs;
    metric_fault_durable_bytes_->Add(static_cast<double>(written));
    metric_fault_epochs_->Increment();
    return Status::Ok();
  }

  /// Restores the last committed durable snapshot when `--resume` asked for
  /// it: scalars bit-exactly, and every snapshotted node's blocks
  /// (checksum-verified) with a lineage manifest that pins them, so hot
  /// in-process recovery never re-reads disk. Steps the snapshot covers
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
      store_->scalars[name] = value;
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
      auto dm = runner_->NewData(node_id, node.stats.shape);
      const int64_t bcols = dm->grid().block_cols();
      NodeLineage lin;
      lin.node_id = node_id;
      lin.producer_step = node.producer_step;
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
          ++stats_->resume_restored_blocks;
          metric_fault_resume_restored_->Increment();
        }
        dm->Put(ref->worker, bi, bj, it->second);
        lin.blocks.push_back(
            {ref->worker, ref->key, ref->checksum, it->second});
      }
      dm->SetChecksums();
      lineage_.Record(std::move(lin));
    }
    stats_->resumed = true;
    stats_->resume_step = snap->resume_step;
    metric_fault_resume_seconds_->Add(timer.ElapsedSeconds());
    return Status::Ok();
  }

  const ExecutorOptions& opts_;
  const Plan& plan_;
  NodeStore* store_;
  ExecStats* stats_;
  Transport* transport_;  // also carries the recovering flag
  StepRunner* runner_;

  // `ft_` is the master switch; `injector_` is non-null only when
  // injection is configured. Lineage records double as checkpoints: a
  // checkpointed node's records pin its payloads.
  bool ft_ = false;
  bool plan_has_hints_ = false;
  int64_t checkpoint_counter_ = 0;
  std::unique_ptr<FaultInjector> injector_;
  LineageTracker lineage_;

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
  // directly. `retry_policy_` also drives the step retry loop.
  std::unique_ptr<ClusterMembership> membership_;
  RetryPolicy retry_policy_;
  Status quorum_status_ = Status::Ok();
  bool forced_death_applied_ = false;
  int min_workers_ = 1;

  // Cached metric instruments (stable pointers; no-ops while the registry
  // is disabled).
  Counter* metric_fault_retries_ =
      MetricRegistry::Global().counter(kMetricFaultRetries);
  Counter* metric_fault_recomputed_ =
      MetricRegistry::Global().counter(kMetricFaultRecomputedBlocks);
  Counter* metric_fault_restored_ =
      MetricRegistry::Global().counter(kMetricFaultRestoredBlocks);
  Counter* metric_fault_checkpoint_bytes_ =
      MetricRegistry::Global().counter(kMetricFaultCheckpointBytes);
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
};

}  // namespace

std::unique_ptr<Recovery> Recovery::Create(const ExecutorOptions& opts,
                                           const Plan& plan, NodeStore* store,
                                           ExecStats* stats,
                                           Transport* transport,
                                           StepRunner* runner) {
  return std::make_unique<RecoveryImpl>(opts, plan, store, stats, transport,
                                        runner);
}

}  // namespace dmac
