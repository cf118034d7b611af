// Per-node lineage manifests for lost-partition recovery
// (docs/fault_tolerance.md).
//
// After each successful producing step the executor records, per plan node,
// which step produced it, which nodes it consumed, and the exact (worker,
// block key, checksum) layout of its partition store. The manifest is the
// ground truth the recovery path compares the cluster against: a store
// entry that is missing or hashes differently from its manifest record is
// damage, and the producer-step chain recorded here is the recipe for
// rebuilding it.
//
// A checkpoint is the same manifest with every record's payload pinned.
// Blocks are immutable and fault injection replaces a payload rather than
// mutating it, so a pinned payload stays exactly what was checkpointed
// while the cluster's stores move on, and a damaged block is restored from
// its own record instead of re-running the producer chain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "matrix/block.h"

namespace dmac {

/// One block of a node's partition store at record time.
struct LineageBlockRecord {
  int worker = 0;
  int64_t key = 0;
  uint64_t checksum = 0;
  /// The checkpointed payload; null when the node was not checkpointed.
  std::shared_ptr<const Block> pinned;
};

/// A node's recorded provenance and healthy store layout.
struct NodeLineage {
  int node_id = -1;
  /// Plan step whose re-execution rebuilds this node (its inputs are the
  /// step's).
  int producer_step = -1;
  /// Healthy layout, sorted by (worker, key) for deterministic comparison.
  std::vector<LineageBlockRecord> blocks;
};

/// Bytes of the payloads `lineage` pins. Records sharing one payload
/// (replicas of a Broadcast matrix) count it once.
int64_t PinnedBytes(const NodeLineage& lineage);

/// Driver-side registry of NodeLineage records, keyed by node id. Recording
/// a node again (an iterative app rebinding a variable, or a recovery
/// rebuild) replaces the previous manifest and its pins.
class LineageTracker {
 public:
  /// Records (or replaces) a node's manifest and returns the stored copy.
  /// `blocks` is sorted here.
  const NodeLineage& Record(NodeLineage lineage);

  /// The manifest for `node_id`, or nullptr if never recorded.
  const NodeLineage* Find(int node_id) const;

  size_t size() const { return records_.size(); }

 private:
  std::unordered_map<int, NodeLineage> records_;
};

}  // namespace dmac
