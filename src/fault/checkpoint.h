// Driver-side checkpoint store (docs/fault_tolerance.md).
//
// Checkpointing a node records its blocks' payload pointers in this store.
// Blocks are immutable and fault injection replaces a payload rather than
// mutating it, so the recorded payloads stay exactly what was checkpointed
// while the cluster's stores move on. A checkpointed node can be restored
// directly instead of re-running its producer chain, which is what keeps
// recovery cost bounded in iterative apps (GNMF, PageRank) whose lineage
// otherwise grows with the iteration count.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "matrix/block.h"

namespace dmac {

/// One checkpointed block: where it lived and its immutable payload.
struct CheckpointBlock {
  int worker = 0;
  int64_t key = 0;
  uint64_t checksum = 0;
  std::shared_ptr<const Block> block;
};

/// Immutable snapshots of designated nodes. Checkpointing the same node
/// again (a later iteration) replaces the previous snapshot.
class CheckpointStore {
 public:
  /// Stores (or replaces) a node's snapshot. Counts payload bytes.
  void Put(int node_id, std::vector<CheckpointBlock> blocks);

  /// The snapshot for `node_id`, or nullptr if never checkpointed.
  const std::vector<CheckpointBlock>* Find(int node_id) const;

  /// Drops a node's snapshot.
  void Forget(int node_id);

  /// Payload bytes currently held (latest snapshot of each node).
  int64_t total_bytes() const { return total_bytes_; }

  /// Payload bytes written over the store's lifetime (metric source).
  int64_t bytes_written() const { return bytes_written_; }

  size_t size() const { return snapshots_.size(); }

 private:
  std::unordered_map<int, std::vector<CheckpointBlock>> snapshots_;
  int64_t total_bytes_ = 0;
  int64_t bytes_written_ = 0;
};

}  // namespace dmac
