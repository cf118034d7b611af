#include "fault/checkpoint.h"

#include <unordered_set>

namespace dmac {

namespace {

/// Payload bytes of a snapshot. Entries sharing one payload (replicas of a
/// Broadcast matrix) are counted once.
int64_t PayloadBytes(const std::vector<CheckpointBlock>& blocks) {
  int64_t bytes = 0;
  std::unordered_set<const Block*> seen;
  for (const CheckpointBlock& b : blocks) {
    if (b.block && seen.insert(b.block.get()).second) {
      bytes += b.block->MemoryBytes();
    }
  }
  return bytes;
}

}  // namespace

void CheckpointStore::Put(int node_id, std::vector<CheckpointBlock> blocks) {
  const int64_t bytes = PayloadBytes(blocks);
  auto it = snapshots_.find(node_id);
  if (it != snapshots_.end()) total_bytes_ -= PayloadBytes(it->second);
  total_bytes_ += bytes;
  bytes_written_ += bytes;
  snapshots_[node_id] = std::move(blocks);
}

const std::vector<CheckpointBlock>* CheckpointStore::Find(int node_id) const {
  auto it = snapshots_.find(node_id);
  return it == snapshots_.end() ? nullptr : &it->second;
}

void CheckpointStore::Forget(int node_id) {
  auto it = snapshots_.find(node_id);
  if (it == snapshots_.end()) return;
  total_bytes_ -= PayloadBytes(it->second);
  snapshots_.erase(it);
}

}  // namespace dmac
