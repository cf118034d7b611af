// LineageTracker manifests and the checkpoint payloads they pin.
#include "fault/lineage.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/checksum.h"
#include "matrix/block.h"

namespace dmac {
namespace {

NodeLineage MakeLineage(int node_id) {
  NodeLineage lin;
  lin.node_id = node_id;
  lin.producer_step = 3;
  lin.blocks = {{1, 7, 0xbeef, nullptr},
                {0, 2, 0xcafe, nullptr},
                {0, 5, 0xfeed, nullptr}};
  return lin;
}

TEST(LineageTrackerTest, RecordFindRoundTrip) {
  LineageTracker tracker;
  EXPECT_EQ(tracker.Find(4), nullptr);
  tracker.Record(MakeLineage(4));
  const NodeLineage* found = tracker.Find(4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->producer_step, 3);
  EXPECT_EQ(tracker.size(), 1u);
}

TEST(LineageTrackerTest, BlocksAreSortedForDeterministicComparison) {
  LineageTracker tracker;
  tracker.Record(MakeLineage(9));
  const NodeLineage* found = tracker.Find(9);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->blocks.size(), 3u);
  EXPECT_EQ(found->blocks[0].worker, 0);
  EXPECT_EQ(found->blocks[0].key, 2);
  EXPECT_EQ(found->blocks[1].worker, 0);
  EXPECT_EQ(found->blocks[1].key, 5);
  EXPECT_EQ(found->blocks[2].worker, 1);
  EXPECT_EQ(found->blocks[2].key, 7);
}

TEST(LineageTrackerTest, ReRecordingReplacesTheManifest) {
  LineageTracker tracker;
  tracker.Record(MakeLineage(4));
  NodeLineage updated = MakeLineage(4);
  updated.producer_step = 8;
  updated.blocks.clear();
  tracker.Record(std::move(updated));
  const NodeLineage* found = tracker.Find(4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->producer_step, 8);
  EXPECT_TRUE(found->blocks.empty());
  EXPECT_EQ(tracker.size(), 1u);
}

// ---- checkpoint pins ----------------------------------------------------

std::shared_ptr<const Block> Payload(uint64_t seed) {
  return std::make_shared<const Block>(RandomDenseBlock(4, 4, seed));
}

TEST(LineageTrackerTest, PinnedPayloadsSurviveRecordAndFind) {
  LineageTracker tracker;
  NodeLineage lin = MakeLineage(2);
  for (LineageBlockRecord& rec : lin.blocks) {
    rec.pinned = Payload(static_cast<uint64_t>(rec.key));
    rec.checksum = BlockChecksum(*rec.pinned);
  }
  tracker.Record(std::move(lin));
  const NodeLineage* found = tracker.Find(2);
  ASSERT_NE(found, nullptr);
  for (const LineageBlockRecord& rec : found->blocks) {
    ASSERT_NE(rec.pinned, nullptr);
    EXPECT_EQ(rec.checksum, BlockChecksum(*rec.pinned));
  }
}

TEST(LineageTrackerTest, PinnedBytesCountASharedPayloadOnce) {
  NodeLineage lin = MakeLineage(2);
  EXPECT_EQ(PinnedBytes(lin), 0);  // not checkpointed
  // Two replicas of one Broadcast block share a payload; the third record
  // pins its own.
  const auto shared = Payload(1);
  const auto own = Payload(2);
  lin.blocks[0].pinned = shared;
  lin.blocks[1].pinned = shared;
  lin.blocks[2].pinned = own;
  EXPECT_EQ(PinnedBytes(lin), shared->MemoryBytes() + own->MemoryBytes());

  // Re-recording the node (a later iteration) replaces the pins.
  LineageTracker tracker;
  tracker.Record(lin);
  NodeLineage next = MakeLineage(2);
  next.blocks[0].pinned = own;
  const NodeLineage& stored = tracker.Record(std::move(next));
  EXPECT_EQ(&stored, tracker.Find(2));
  EXPECT_EQ(PinnedBytes(stored), own->MemoryBytes());
}

}  // namespace
}  // namespace dmac
