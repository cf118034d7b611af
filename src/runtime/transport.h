// Block transport between simulated workers (docs/runtime.md, "Transport").
//
// Every block the executor moves between worker stores goes through a
// Transport::Round, and transport.cc is the only code that decides what a
// move costs and how it is delivered:
//  * a block is charged only when it crosses hosts (Host(from) !=
//    Host(to)), so slots rebalanced onto one survivor trade blocks for
//    free; blocks read from storage are always charged, and a repartition
//    onto an unchanged scheme charges the (N-1)/N a real hash shuffle moves;
//  * a round counts once, as a shuffle or a broadcast event, in ExecStats
//    and the runtime metrics, or only in recovery_bytes / recovery_events
//    while recovery runs (set_recovering);
//  * on the useful attempt of a run with a SimNetwork, a send between two
//    slots is queued on the network (which draws its faults at send time)
//    and delivered by Flush; every other send is delivered at once;
//  * each round emits one `comm` trace span carrying its bytes and kind.
// Driver-thread only, like SimNetwork.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/exec_stats.h"
#include "runtime/network.h"

namespace dmac {

/// The communication total a round is billed to.
enum class CommKind { kShuffle, kBroadcast };

class Transport {
 public:
  class Round;

  /// `stats` receives the byte and round totals.
  Transport(int num_workers, ExecStats* stats)
      : num_workers_(num_workers), stats_(stats) {}

  /// Marks recovery work: while set, every charge and round counts only
  /// toward the recovery totals and every send is direct.
  void set_recovering(bool recovering) { recovering_ = recovering; }
  bool recovering() const { return recovering_; }

  /// Routes useful-attempt sends through a fault-injecting network layer
  /// and maps slots to hosts through `membership`. Without this call every
  /// send is direct and every slot hosts itself.
  void EnableNetwork(FaultInjector* injector, ClusterMembership* membership,
                     RetryPolicy policy);

  /// The network layer, or null on a clean run.
  const SimNetwork* network() const { return net_.get(); }

  /// Drops sends a failed attempt left queued, so they cannot leak into a
  /// later round's flush.
  void DropPending() {
    if (net_ != nullptr) net_->Clear();
  }

  /// Physical host of logical slot `w` (identity until a death rebalances).
  int Host(int w) const {
    return membership_ != nullptr ? membership_->HostOf(w) : w;
  }

  /// Charges the driver-side reduce: one double from each worker. It rides
  /// the stage boundary, so it adds bytes but no round.
  void ChargeReduce();

 private:
  void Count(CommKind kind, double bytes);

  int num_workers_;
  ExecStats* stats_;
  bool recovering_ = false;
  const ClusterMembership* membership_ = nullptr;  // not owned; may be null
  std::unique_ptr<SimNetwork> net_;  // null unless EnableNetwork ran
  Counter* metric_shuffle_bytes_ =
      MetricRegistry::Global().counter(kMetricShuffleBytes);
  Counter* metric_broadcast_bytes_ =
      MetricRegistry::Global().counter(kMetricBroadcastBytes);
  Counter* metric_shuffle_rounds_ =
      MetricRegistry::Global().counter(kMetricShuffleRounds);
  Counter* metric_broadcast_rounds_ =
      MetricRegistry::Global().counter(kMetricBroadcastRounds);
};

/// One communication round: the sends of one exchange, counted as a single
/// event by Close() and delivered by one Flush().
class Transport::Round {
 public:
  /// `name` labels the round's span and its Flush errors. With
  /// `span_covers_round` the span opens now and ends with the Round;
  /// otherwise Close() records it at the round boundary.
  Round(Transport* transport, CommKind kind, std::string name,
        bool span_covers_round);

  /// Charges a block read from storage; storage is off the cluster.
  void ChargeLoad(double bytes) { bytes_ += bytes; }

  /// Charges a block whose repartition keeps its scheme and placement.
  void ChargeRehash(double bytes);

  /// Moves a `bytes`-sized block from slot `from` to slot `to`; `deliver()`
  /// places it. A direct delivery calls `deliver` at once and allocates
  /// nothing.
  template <typename Deliver>
  void Send(int from, int to, double bytes, Deliver&& deliver) {
    if (Charge(from, to, bytes)) {
      Enqueue(from, to, bytes, std::forward<Deliver>(deliver));
    } else {
      deliver();
    }
  }

  /// Ends the sends: counts the round and gives its span the byte total.
  void Close();

  /// Delivers the queued sends. kDataLoss when stale-epoch sends from a
  /// dead worker were fenced; lineage recovery then rebuilds the step.
  [[nodiscard]] Status Flush();

 private:
  /// Charges a from→to transfer; true when it goes through the network.
  bool Charge(int from, int to, double bytes);
  void Enqueue(int from, int to, double bytes, std::function<void()> deliver);

  Transport* transport_;
  CommKind kind_;
  std::string name_;
  double bytes_ = 0;
  std::optional<TraceSpan> span_;
};

}  // namespace dmac
