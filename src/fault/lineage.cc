#include "fault/lineage.h"

#include <algorithm>
#include <unordered_set>

namespace dmac {

int64_t PinnedBytes(const NodeLineage& lineage) {
  int64_t bytes = 0;
  std::unordered_set<const Block*> seen;
  for (const LineageBlockRecord& rec : lineage.blocks) {
    if (rec.pinned && seen.insert(rec.pinned.get()).second) {
      bytes += rec.pinned->MemoryBytes();
    }
  }
  return bytes;
}

const NodeLineage& LineageTracker::Record(NodeLineage lineage) {
  std::sort(lineage.blocks.begin(), lineage.blocks.end(),
            [](const LineageBlockRecord& a, const LineageBlockRecord& b) {
              return a.worker != b.worker ? a.worker < b.worker
                                          : a.key < b.key;
            });
  NodeLineage& stored = records_[lineage.node_id];
  stored = std::move(lineage);
  return stored;
}

const NodeLineage* LineageTracker::Find(int node_id) const {
  auto it = records_.find(node_id);
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace dmac
