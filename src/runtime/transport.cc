#include "runtime/transport.h"

namespace dmac {

namespace {

std::string SpanArgs(CommKind kind, double bytes) {
  return TraceArg("bytes", bytes) + "," +
         TraceArg("kind", kind == CommKind::kBroadcast ? "broadcast"
                                                       : "shuffle");
}

}  // namespace

void Transport::EnableNetwork(FaultInjector* injector,
                              ClusterMembership* membership,
                              RetryPolicy policy) {
  membership_ = membership;
  net_ = std::make_unique<SimNetwork>(injector, membership, policy);
}

void Transport::ChargeReduce() {
  const double bytes = 8.0 * num_workers_;
  if (recovering_) {
    stats_->recovery_bytes += bytes;
  } else {
    stats_->shuffle_bytes += bytes;
    metric_shuffle_bytes_->Add(bytes);
  }
  if (TraceRecorder::Global().enabled()) {
    TraceSpan span(kTraceComm, "reduce", -1,
                   SpanArgs(CommKind::kShuffle, bytes));
  }
}

void Transport::Count(CommKind kind, double bytes) {
  // Recovery traffic stays out of the useful-communication totals.
  if (recovering_) {
    stats_->recovery_bytes += bytes;
    ++stats_->recovery_events;
  } else if (kind == CommKind::kShuffle) {
    stats_->shuffle_bytes += bytes;
    ++stats_->shuffle_events;
    metric_shuffle_bytes_->Add(bytes);
    metric_shuffle_rounds_->Increment();
  } else {
    stats_->broadcast_bytes += bytes;
    ++stats_->broadcast_events;
    metric_broadcast_bytes_->Add(bytes);
    metric_broadcast_rounds_->Increment();
  }
}

Transport::Round::Round(Transport* transport, CommKind kind, std::string name,
                        bool span_covers_round)
    : transport_(transport), kind_(kind), name_(std::move(name)) {
  if (span_covers_round && TraceRecorder::Global().enabled()) {
    span_.emplace(kTraceComm, name_);
  }
}

void Transport::Round::ChargeRehash(double bytes) {
  // A real hash shuffle still sends an expected (N-1)/N of the data away.
  const int n = transport_->num_workers_;
  bytes_ += bytes * (static_cast<double>(n - 1) / n);
}

bool Transport::Round::Charge(int from, int to, double bytes) {
  if (transport_->Host(from) != transport_->Host(to)) bytes_ += bytes;
  // Retries and lineage recovery deliver directly, so a bounded retry
  // budget is guaranteed to converge.
  return from != to && transport_->net_ != nullptr &&
         !transport_->recovering_;
}

void Transport::Round::Enqueue(int from, int to, double bytes,
                               std::function<void()> deliver) {
  transport_->net_->Send(from, to, bytes, std::move(deliver));
}

void Transport::Round::Close() {
  transport_->Count(kind_, bytes_);
  if (span_.has_value()) {
    span_->set_args(SpanArgs(kind_, bytes_));
  } else if (TraceRecorder::Global().enabled()) {
    TraceSpan span(kTraceComm, name_, -1, SpanArgs(kind_, bytes_));
  }
}

Status Transport::Round::Flush() {
  if (transport_->net_ == nullptr || transport_->recovering_) {
    return Status::Ok();
  }
  return transport_->net_->Flush(name_.c_str());
}

}  // namespace dmac
