// FaultInjector determinism and budgets; checksums and CorruptedCopy.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/checksum.h"
#include "matrix/block.h"

namespace dmac {
namespace {

FaultSpec NoisySpec(uint64_t seed) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = seed;
  spec.crash_prob = 0.2;
  spec.lost_block_prob = 0.1;
  spec.corrupt_prob = 0.1;
  spec.transient_prob = 0.3;
  spec.straggler_prob = 0.2;
  spec.straggler_delay_seconds = 0.05;
  return spec;
}

/// Replays a fixed draw sequence and serializes every verdict.
std::string DrawTranscript(const FaultSpec& spec) {
  FaultInjector injector(spec);
  std::string transcript;
  for (int step = 0; step < 20; ++step) {
    int worker = -1;
    transcript += injector.DrawCrash(4, &worker) ? 'C' : '.';
    transcript += std::to_string(worker);
    transcript += injector.DrawLostBlock() ? 'L' : '.';
    transcript += injector.DrawCorruptBlock() ? 'X' : '.';
    transcript += injector.DrawTransientFailure(step) ? 'T' : '.';
    transcript += std::to_string(injector.DrawStragglerDelay() > 0);
  }
  return transcript;
}

TEST(FaultInjectorTest, SameSeedReplaysTheSameSchedule) {
  const std::string a = DrawTranscript(NoisySpec(11));
  const std::string b = DrawTranscript(NoisySpec(11));
  EXPECT_EQ(a, b);
}

TEST(FaultInjectorTest, DifferentSeedsDrawDifferentSchedules) {
  // With 120 Bernoulli draws per transcript, a collision across all five
  // seeds would mean the RNG ignores its seed.
  const std::string base = DrawTranscript(NoisySpec(1));
  bool any_different = false;
  for (uint64_t seed : {2u, 3u, 4u, 5u, 6u}) {
    any_different = any_different || DrawTranscript(NoisySpec(seed)) != base;
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultInjectorTest, ZeroProbabilitiesNeverFire) {
  FaultSpec spec;
  spec.enabled = true;
  FaultInjector injector(spec);
  for (int i = 0; i < 100; ++i) {
    int worker = -1;
    EXPECT_FALSE(injector.DrawCrash(4, &worker));
    EXPECT_FALSE(injector.DrawLostBlock());
    EXPECT_FALSE(injector.DrawCorruptBlock());
    EXPECT_FALSE(injector.DrawTransientFailure(0));
    EXPECT_DOUBLE_EQ(injector.DrawStragglerDelay(), 0);
  }
  EXPECT_EQ(injector.faults_drawn(), 0);
}

TEST(FaultInjectorTest, TransientBudgetStopsAtMaxRetries) {
  FaultSpec spec;
  spec.enabled = true;
  spec.transient_prob = 1.0;  // would otherwise fail every launch forever
  spec.max_retries = 3;
  FaultInjector injector(spec);
  int failures = 0;
  for (int launch = 0; launch < 50; ++launch) {
    if (injector.DrawTransientFailure(/*step_id=*/7)) ++failures;
  }
  // The budget guarantees a transient fault resolves within the retry
  // bound: at most max_retries injected failures per step.
  EXPECT_EQ(failures, 3);
  // Other steps have their own budget.
  EXPECT_TRUE(injector.DrawTransientFailure(/*step_id=*/8));
}

TEST(FaultInjectorTest, PermanentFailStepBypassesTheBudget) {
  FaultSpec spec;
  spec.enabled = true;
  spec.max_retries = 2;
  spec.permanent_fail_step = 5;
  FaultInjector injector(spec);
  for (int launch = 0; launch < 20; ++launch) {
    EXPECT_TRUE(injector.DrawTransientFailure(5));
  }
  EXPECT_FALSE(injector.DrawTransientFailure(4));
}

TEST(FaultInjectorTest, CrashPicksAValidWorker) {
  FaultSpec spec;
  spec.enabled = true;
  spec.crash_prob = 1.0;
  FaultInjector injector(spec);
  for (int i = 0; i < 50; ++i) {
    int worker = -1;
    ASSERT_TRUE(injector.DrawCrash(3, &worker));
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 3);
  }
}

// ---- checksums ----------------------------------------------------------

TEST(ChecksumTest, SensitiveToEveryPayloadByte) {
  Block block = RandomDenseBlock(8, 8, 42);
  const uint64_t before = BlockChecksum(block);
  EXPECT_NE(before, kNoChecksum);
  block.dense().Set(3, 4, block.dense().At(3, 4) + 1e-6f);
  EXPECT_NE(BlockChecksum(block), before);
}

/// Flips bit `bit` of the array `v` in place.
template <typename T>
void FlipBitOf(std::vector<T>* v, size_t bit) {
  auto* bytes = reinterpret_cast<unsigned char*>(v->data());
  bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
}

TEST(ChecksumTest, EveryDensePayloadBitFlipChangesTheChecksum) {
  // 5x3 floats: 60 bytes, so the hash sees full 32-byte rounds, whole
  // trailing words, and a partial last word.
  const Block original = RandomDenseBlock(5, 3, 11);
  const uint64_t before = BlockChecksum(original);
  const size_t bits = sizeof(Scalar) * 15 * 8;
  for (size_t bit = 0; bit < bits; ++bit) {
    DenseBlock d = original.dense();
    auto* bytes = reinterpret_cast<unsigned char*>(d.data());
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(BlockChecksum(Block(std::move(d))), before) << "bit " << bit;
  }
}

TEST(ChecksumTest, EverySparsePayloadBitFlipChangesTheChecksum) {
  const Block original = RandomSparseBlock(12, 9, 0.3, 12);
  const CscBlock& s = original.sparse();
  ASSERT_GT(s.nnz(), 8);
  const uint64_t before = BlockChecksum(original);
  const auto rebuild = [&](std::vector<int32_t> col_ptr,
                           std::vector<int32_t> row_idx,
                           std::vector<Scalar> values) {
    return BlockChecksum(Block(CscBlock(s.rows(), s.cols(), std::move(col_ptr),
                                        std::move(row_idx),
                                        std::move(values))));
  };
  for (size_t bit = 0; bit < 8 * sizeof(Scalar) * s.values().size(); ++bit) {
    std::vector<Scalar> values = s.values();
    FlipBitOf(&values, bit);
    EXPECT_NE(rebuild(s.col_ptr(), s.row_idx(), std::move(values)), before)
        << "values bit " << bit;
  }
  for (size_t bit = 0; bit < 8 * sizeof(int32_t) * s.row_idx().size(); ++bit) {
    std::vector<int32_t> row_idx = s.row_idx();
    FlipBitOf(&row_idx, bit);
    EXPECT_NE(rebuild(s.col_ptr(), std::move(row_idx), s.values()), before)
        << "row_idx bit " << bit;
  }
  // Column pointers must stay a valid CSC structure to build a block at
  // all; every flip that does is checked.
  int col_ptr_flips = 0;
  for (size_t bit = 0; bit < 8 * sizeof(int32_t) * s.col_ptr().size(); ++bit) {
    std::vector<int32_t> col_ptr = s.col_ptr();
    FlipBitOf(&col_ptr, bit);
    if (col_ptr.front() != 0 || col_ptr.back() != s.nnz() ||
        !std::is_sorted(col_ptr.begin(), col_ptr.end())) {
      continue;
    }
    ++col_ptr_flips;
    EXPECT_NE(rebuild(std::move(col_ptr), s.row_idx(), s.values()), before)
        << "col_ptr bit " << bit;
  }
  EXPECT_GT(col_ptr_flips, 0);
}

TEST(ChecksumTest, RepresentationIsPartOfTheHash) {
  const Block sparse = RandomSparseBlock(16, 16, 0.2, 9);
  const Block dense = Block(sparse.ToDense());
  // Same values, different storage: a block must round-trip bit-identically
  // (including its representation) to verify.
  EXPECT_NE(BlockChecksum(sparse), BlockChecksum(dense));
  EXPECT_EQ(BlockChecksum(sparse), BlockChecksum(Block(dense.ToSparse())));
}

TEST(ChecksumTest, FnvIsStableAndOrderSensitive) {
  const char data[] = "abcd";
  const uint64_t h1 = Fnv1a(data, 4, 1469598103934665603ull);
  EXPECT_EQ(h1, Fnv1a(data, 4, 1469598103934665603ull));
  const char swapped[] = "abdc";
  EXPECT_NE(h1, Fnv1a(swapped, 4, 1469598103934665603ull));
}

// ---- corrupted copies ---------------------------------------------------

TEST(CorruptedCopyTest, DenseCorruptionIsDetectableOnlyByChecksum) {
  const Block original = RandomDenseBlock(8, 6, 3);
  const Block corrupt = CorruptedCopy(original, 77);
  EXPECT_EQ(corrupt.rows(), original.rows());
  EXPECT_EQ(corrupt.cols(), original.cols());
  EXPECT_EQ(corrupt.kind(), original.kind());
  EXPECT_NE(BlockChecksum(corrupt), BlockChecksum(original));
}

TEST(CorruptedCopyTest, SparseCorruptionChangesTheChecksum) {
  const Block original = RandomSparseBlock(16, 16, 0.2, 5);
  const Block corrupt = CorruptedCopy(original, 13);
  EXPECT_EQ(corrupt.kind(), BlockKind::kSparse);
  EXPECT_NE(BlockChecksum(corrupt), BlockChecksum(original));
}

TEST(CorruptedCopyTest, EmptySparseBlockStillCorrupts) {
  const Block original = RandomSparseBlock(8, 8, 0.0, 5);
  ASSERT_EQ(original.nnz(), 0);
  const Block corrupt = CorruptedCopy(original, 21);
  EXPECT_NE(BlockChecksum(corrupt), BlockChecksum(original));
}

TEST(CorruptedCopyTest, DoesNotMutateTheOriginal) {
  const Block original = RandomDenseBlock(4, 4, 8);
  const uint64_t before = BlockChecksum(original);
  (void)CorruptedCopy(original, 99);
  EXPECT_EQ(BlockChecksum(original), before);
}

}  // namespace
}  // namespace dmac
