// Execution statistics: communication accounting and timing.
//
// Communication bytes are counted exactly as blocks cross worker stores —
// this is the metric of the paper's Fig. 6(b). Wall-clock time on a real
// cluster is modeled as measured compute (max over workers per stage, since
// stages are barriers) plus simulated network transfer time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dmac {

/// Network cost model of the simulated cluster.
struct NetworkModel {
  /// Effective per-link bandwidth (bytes/second). Default ~1 Gbit/s, the
  /// class of interconnect used in the paper's cluster.
  double bandwidth_bytes_per_sec = 125e6;
  /// Fixed startup cost per communication event (one shuffle or broadcast
  /// round — roughly a Spark stage boundary).
  double latency_sec = 0.01;
};

/// Statistics of one plan execution.
struct ExecStats {
  double shuffle_bytes = 0;
  double broadcast_bytes = 0;
  int64_t shuffle_events = 0;
  int64_t broadcast_events = 0;

  /// Measured local compute seconds, per stage and per worker. Stages are
  /// numbered 1-based everywhere they are user-visible (plans, --stats
  /// output, AddWorkerSeconds), but this vector is 0-indexed:
  /// stage_worker_seconds[s][w] is worker w's busy time in stage number
  /// s + 1. See docs/runtime.md.
  std::vector<std::vector<double>> stage_worker_seconds;

  /// Peak tracked block memory over the run (process-wide).
  int64_t peak_memory_bytes = 0;

  // --- Fault tolerance (docs/fault_tolerance.md). All zero in a fault-free
  // run. Recovery work is kept out of the useful-compute and useful-comm
  // totals above so TotalComputeSeconds()/comm_bytes() still measure the
  // algorithm, not the failure handling; the recovery side is accounted
  // separately below.
  int64_t faults_injected = 0;
  int64_t retries = 0;            // step attempts repeated after a failure
  int64_t recomputed_blocks = 0;  // rebuilt by re-running lineage producers
  int64_t restored_blocks = 0;    // restored from checkpoint / replica
  int64_t speculated_tasks = 0;   // straggler tasks re-run on a backup
  int64_t checkpoint_bytes = 0;   // recorded in the checkpoint store
  double recovery_bytes = 0;      // comm bytes moved by retried/recovery work
  int64_t recovery_events = 0;    // comm rounds of retried/recovery work
  /// Worker busy seconds attributed to recovery per stage (1-based stages
  /// stored 0-indexed like stage_worker_seconds, but summed over workers).
  std::vector<double> stage_recovery_seconds;
  /// Step attempts repeated, per stage (same indexing).
  std::vector<int64_t> stage_retries;
  /// Blocks rebuilt from lineage, per stage (same indexing).
  std::vector<int64_t> stage_recomputed_blocks;

  // --- Membership / permanent worker loss (docs/fault_tolerance.md).
  int64_t workers_dead = 0;        // permanent deaths over the run
  int64_t membership_epoch = 0;    // final epoch (0 = membership not built)
  double detection_seconds = 0;    // simulated failure-detection latency

  // --- Message-level network faults. All zero when the network layer is
  // off; none of them perturb the useful-comm totals above — drop /
  // duplicate / reorder / delay only ever add *recovery-side* accounting.
  int64_t net_messages = 0;      // transfers routed through the layer
  int64_t net_retransmits = 0;   // dropped sends retried to delivery
  double net_retrans_bytes = 0;  // bytes moved again by retransmits
  int64_t net_duplicates = 0;    // duplicate deliveries absorbed
  int64_t net_reordered = 0;     // out-of-order arrivals absorbed
  double net_delay_seconds = 0;  // simulated latency from delays + backoff
  int64_t net_partitions = 0;    // transient partitions opened
  int64_t net_stale_fenced = 0;  // dead-sender transfers fenced by epoch
  int64_t net_stale_applied = 0;  // audit: fenced-class transfers applied

  // --- Durable checkpoints & crash restart (docs/fault_tolerance.md,
  // "Durability & restart"). All zero without --checkpoint-dir.
  int64_t durable_checkpoint_bytes = 0;  // written (new blocks+manifests)
  int64_t durable_epochs = 0;            // checkpoint epochs committed
  int64_t checkpoint_failures = 0;       // durable commits that failed (run continued)
  int64_t disk_faults_injected = 0;      // faults drawn by the StorageIO layer
  bool resumed = false;                  // this run restored a durable snapshot
  int64_t resume_step = -1;              // last step the snapshot covered
  int64_t resume_restored_blocks = 0;    // blocks read back from disk on resume

  // --- Plan-estimate drift (docs/planner.md). The §5.1 size estimator is
  // deliberately worst-case (s_C = 1 after every multiply), which makes
  // chained-multiply estimates wildly pessimistic; these fields record what
  // actually happened so the planner.estimate.drift metric can surface it.
  /// Measured nonzeros of every plan matrix still resident when the run
  /// finished, keyed by its plan rendering ("W#3", "V^T", ...).
  std::map<std::string, int64_t> matrix_nnz;
  /// The §4.1 communication estimate the executed plan carried.
  double estimated_comm_bytes = 0;
  /// max(estimated, measured) / min(estimated, measured) communication
  /// bytes: always >= 1 once both sides are nonzero; 0 = not computed.
  double estimate_drift = 0;

  double comm_bytes() const { return shuffle_bytes + broadcast_bytes; }
  int64_t comm_events() const { return shuffle_events + broadcast_events; }

  /// Adds `seconds` of busy time for `worker` in stage number `stage`
  /// (1-based, i.e. stored at stage_worker_seconds[stage - 1]).
  void AddWorkerSeconds(int stage, int worker, double seconds) {
    if (stage < 1) stage = 1;
    if (static_cast<size_t>(stage) > stage_worker_seconds.size()) {
      stage_worker_seconds.resize(static_cast<size_t>(stage));
    }
    auto& per_worker = stage_worker_seconds[static_cast<size_t>(stage - 1)];
    if (static_cast<size_t>(worker) >= per_worker.size()) {
      per_worker.resize(static_cast<size_t>(worker) + 1, 0.0);
    }
    per_worker[static_cast<size_t>(worker)] += seconds;
  }

  /// Cluster-equivalent compute wall time: stages are barriers, so each
  /// stage costs its slowest worker.
  double ComputeWallSeconds() const {
    double total = 0;
    for (const auto& per_worker : stage_worker_seconds) {
      double mx = 0;
      for (double s : per_worker) mx = std::max(mx, s);
      total += mx;
    }
    return total;
  }

  /// Total busy CPU time across all stages and workers — the cluster's
  /// aggregate compute, as opposed to ComputeWallSeconds()' critical path.
  /// Their ratio is a direct read on per-worker skew.
  double TotalComputeSeconds() const {
    double total = 0;
    for (const auto& per_worker : stage_worker_seconds) {
      for (double s : per_worker) total += s;
    }
    return total;
  }

  /// Adds recovery-attributed busy time in stage number `stage` (1-based).
  void AddRecoverySeconds(int stage, double seconds) {
    GrowStage(&stage_recovery_seconds, stage) += seconds;
  }

  /// Counts one repeated attempt of a step in stage number `stage`.
  void AddRetry(int stage) {
    ++retries;
    ++GrowStage(&stage_retries, stage);
  }

  /// Counts blocks rebuilt from lineage while recovering in `stage`.
  void AddRecomputed(int stage, int64_t blocks) {
    recomputed_blocks += blocks;
    GrowStage(&stage_recomputed_blocks, stage) += blocks;
  }

  /// Aggregate worker time spent on recovery instead of useful compute.
  double TotalRecoverySeconds() const {
    double total = 0;
    for (double s : stage_recovery_seconds) total += s;
    return total;
  }

  /// Modeled network transfer time under `net`.
  double CommSeconds(const NetworkModel& net) const {
    return comm_bytes() / net.bandwidth_bytes_per_sec +
           static_cast<double>(comm_events()) * net.latency_sec;
  }

  /// Modeled end-to-end time: compute + network.
  double SimulatedSeconds(const NetworkModel& net) const {
    return ComputeWallSeconds() + CommSeconds(net);
  }

  /// Merges another run's statistics (for accumulating over iterations).
  void Merge(const ExecStats& other) {
    shuffle_bytes += other.shuffle_bytes;
    broadcast_bytes += other.broadcast_bytes;
    shuffle_events += other.shuffle_events;
    broadcast_events += other.broadcast_events;
    for (size_t s = 0; s < other.stage_worker_seconds.size(); ++s) {
      for (size_t w = 0; w < other.stage_worker_seconds[s].size(); ++w) {
        AddWorkerSeconds(static_cast<int>(s) + 1, static_cast<int>(w),
                         other.stage_worker_seconds[s][w]);
      }
    }
    peak_memory_bytes = std::max(peak_memory_bytes, other.peak_memory_bytes);
    faults_injected += other.faults_injected;
    retries += other.retries;
    recomputed_blocks += other.recomputed_blocks;
    restored_blocks += other.restored_blocks;
    speculated_tasks += other.speculated_tasks;
    checkpoint_bytes += other.checkpoint_bytes;
    recovery_bytes += other.recovery_bytes;
    recovery_events += other.recovery_events;
    MergeStage(&stage_recovery_seconds, other.stage_recovery_seconds);
    MergeStage(&stage_retries, other.stage_retries);
    MergeStage(&stage_recomputed_blocks, other.stage_recomputed_blocks);
    workers_dead += other.workers_dead;
    // Epochs are monotone counters, not additive quantities.
    membership_epoch = std::max(membership_epoch, other.membership_epoch);
    detection_seconds += other.detection_seconds;
    net_messages += other.net_messages;
    net_retransmits += other.net_retransmits;
    net_retrans_bytes += other.net_retrans_bytes;
    net_duplicates += other.net_duplicates;
    net_reordered += other.net_reordered;
    net_delay_seconds += other.net_delay_seconds;
    net_partitions += other.net_partitions;
    net_stale_fenced += other.net_stale_fenced;
    net_stale_applied += other.net_stale_applied;
    durable_checkpoint_bytes += other.durable_checkpoint_bytes;
    durable_epochs += other.durable_epochs;
    checkpoint_failures += other.checkpoint_failures;
    disk_faults_injected += other.disk_faults_injected;
    for (const auto& [name, nnz] : other.matrix_nnz) matrix_nnz[name] = nnz;
    estimated_comm_bytes += other.estimated_comm_bytes;
    // Drift is a ratio, not an additive quantity; keep the worst seen.
    estimate_drift = std::max(estimate_drift, other.estimate_drift);
    resumed = resumed || other.resumed;
    // A resume point is a position, not a quantity.
    resume_step = std::max(resume_step, other.resume_step);
    resume_restored_blocks += other.resume_restored_blocks;
  }

 private:
  /// Element for 1-based stage number `stage`, growing the vector as needed.
  template <typename T>
  static T& GrowStage(std::vector<T>* v, int stage) {
    if (stage < 1) stage = 1;
    if (static_cast<size_t>(stage) > v->size()) {
      v->resize(static_cast<size_t>(stage), T(0));
    }
    return (*v)[static_cast<size_t>(stage - 1)];
  }

  template <typename T>
  static void MergeStage(std::vector<T>* into, const std::vector<T>& from) {
    for (size_t s = 0; s < from.size(); ++s) {
      GrowStage(into, static_cast<int>(s) + 1) += from[s];
    }
  }
};

}  // namespace dmac
