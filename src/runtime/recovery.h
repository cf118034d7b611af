// Fault tolerance of plan execution (docs/fault_tolerance.md): lineage
// manifests whose checkpoints pin block payloads, durable epochs and
// resume, fault injection, worker membership and death, and the step retry
// loop.
//
// The executor's step runner (runtime/executor.cc) reaches this code only
// through the Recovery interface below. The two share the node store,
// ExecStats, the Transport and the plan; recovery calls back into the
// runner through the StepRunner interface.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "plan/plan.h"
#include "runtime/dist_matrix.h"
#include "runtime/exec_stats.h"
#include "runtime/transport.h"

namespace dmac {

struct ExecutorOptions;

/// The state the step runner computes and recovery repairs, checkpoints
/// and resumes: every plan node's data and the scalar environment.
struct NodeStore {
  /// Indexed by node id; null until the node is produced.
  std::vector<std::shared_ptr<DistMatrix>> nodes;
  std::unordered_map<std::string, double> scalars;
  /// Slot → host map once a permanent death rebalanced a slot, else empty.
  /// Matrices created later adopt it.
  std::vector<int> host_map;

  DistMatrix& Data(int node_id) {
    DMAC_CHECK(nodes[static_cast<size_t>(node_id)] != nullptr)
        << "node " << node_id << " has no materialized data";
    return *nodes[static_cast<size_t>(node_id)];
  }

  /// Drops whatever a failed step left of its output: no partial output
  /// may survive in the stores.
  void DropOutput(const PlanStep& step) {
    if (step.output >= 0) nodes[static_cast<size_t>(step.output)] = nullptr;
  }
};

/// What recovery calls back into the step runner for.
class StepRunner {
 public:
  /// Runs one plan step; recovery re-runs lineage producers through it.
  virtual Status ExecuteStep(const PlanStep& step) = 0;
  /// Creates node `node_id`'s empty matrix of `shape` in the store.
  virtual std::shared_ptr<DistMatrix> NewData(int node_id, Shape shape) = 0;
  /// The governance poll: fails once the query is cancelled or past its
  /// deadline.
  virtual Status CheckCancel() = 0;

 protected:
  ~StepRunner() = default;
};

/// Adds recovery-attributed seconds to `stats` and the fault metrics.
void AddRecoverySeconds(ExecStats* stats, int stage, double seconds);

/// The recovery side of one execution. Driver-thread only.
class Recovery {
 public:
  static std::unique_ptr<Recovery> Create(const ExecutorOptions& opts,
                                          const Plan& plan, NodeStore* store,
                                          ExecStats* stats,
                                          Transport* transport,
                                          StepRunner* runner);

  Recovery() = default;
  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;
  virtual ~Recovery() = default;

  /// Sets up injection, membership and the durable store, then restores
  /// the last committed snapshot when the options ask to resume.
  virtual Status Start() = 0;

  /// True when the resumed snapshot covers `step`, which then must not
  /// run. A covered load step whose output the snapshot marked for reload
  /// is re-executed here against the caller's bindings, lineage only.
  virtual Result<bool> Resumed(const PlanStep& step) = 0;

  /// Runs `step`. With fault tolerance on (fault injection enabled or a
  /// checkpoint cadence set): injects the step-boundary faults, then
  /// attempts the step up to 1 + max_retries times. A retryable failure
  /// (transient kUnavailable, detected kDataLoss) triggers simulated
  /// exponential backoff and a full lineage recovery sweep before the next
  /// attempt; repeated attempts count as recovery work. On success the
  /// output's lineage manifest is recorded, pinning its payloads when a
  /// checkpoint is due.
  virtual Status RunStep(const PlanStep& step) = 0;

  /// The launch fault of `step`'s task on `worker`: kUnavailable for an
  /// injected transient failure, else the straggler delay in simulated
  /// seconds (0 = none).
  virtual Result<double> DrawLaunchFault(const PlanStep& step,
                                         int worker) = 0;

  /// Called between a CPMM round's sends and its flush, where a
  /// death_in_flight death lands.
  virtual void AtRoundBoundary(const PlanStep& step) = 0;

  /// The final recovery sweep, then the fault, disk, network and
  /// membership stats export.
  virtual Status Finish() = 0;
};

}  // namespace dmac
