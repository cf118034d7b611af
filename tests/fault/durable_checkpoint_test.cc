// DurableCheckpointStore contract: the manifest rename is the commit
// point. Commits either land whole or roll back whole and write only the
// blocks that changed; Open() recovers the newest fully-verifiable epoch,
// treats footer-invalid manifests as corruption (fall back or fail
// kDataLoss — never a partial restore), and garbage-collects every store
// file it does not keep, and nothing else.
#include "fault/durable_checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "fault/checksum.h"
#include "fault/fault_spec.h"
#include "fault/injector.h"
#include "matrix/block.h"

namespace dmac {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("dmac_durable_ckpt_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

Result<std::unique_ptr<DurableCheckpointStore>> OpenStore(
    const std::string& dir,
    std::shared_ptr<StorageIO> io = std::make_shared<StorageIO>()) {
  return DurableCheckpointStore::Open(dir, std::move(io));
}

/// `lhs = ` the store OpenStore(args...) opens. A failed Open fails and
/// returns from the current test only; the rest of the binary still runs.
#define ASSERT_OPEN(lhs, ...)                                       \
  auto DMAC_CONCAT_(opened_, __LINE__) = OpenStore(__VA_ARGS__);   \
  ASSERT_TRUE(DMAC_CONCAT_(opened_, __LINE__).ok())                \
      << DMAC_CONCAT_(opened_, __LINE__).status();                 \
  lhs = std::move(*DMAC_CONCAT_(opened_, __LINE__))

PendingDurableBlock Pending(int node, int worker, int64_t key,
                            std::shared_ptr<const Block> block) {
  PendingDurableBlock pb;
  pb.node_id = node;
  pb.worker = worker;
  pb.key = key;
  pb.checksum = BlockChecksum(*block);
  pb.block = std::move(block);
  return pb;
}

std::set<std::string> FileNames(const std::string& dir) {
  std::set<std::string> names;
  std::error_code ec;
  for (auto it = fs::directory_iterator(dir, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    names.insert(it->path().filename().string());
  }
  return names;
}

/// One committed epoch with two distinct blocks (one shared by two
/// cluster positions) and a scalar.
void CommitSample(DurableCheckpointStore* store, int resume_step,
                  double scalar_value) {
  auto b1 = std::make_shared<const Block>(RandomDenseBlock(8, 8, resume_step));
  auto b2 = std::make_shared<const Block>(
      RandomSparseBlock(16, 16, 0.3, resume_step + 100));
  Status st = store->Commit(
      resume_step, /*checkpoint_counter=*/resume_step + 1,
      {{"err", scalar_value}}, /*reload_nodes=*/{7},
      {Pending(1, 0, 0, b1), Pending(1, 1, 3, b1), Pending(2, 2, 5, b2)});
  ASSERT_TRUE(st.ok()) << st;
}

TEST(DurableCheckpointTest, CommitAndReopenRoundTrips) {
  TempDir dir("roundtrip");
  ASSERT_OPEN(auto store, dir.path);
  EXPECT_EQ(store->committed(), nullptr);
  CommitSample(store.get(), /*resume_step=*/4, 0.5);
  EXPECT_EQ(store->epochs_committed(), 1);
  EXPECT_GT(store->bytes_written(), 0);

  ASSERT_OPEN(auto reopened, dir.path);
  const DurableSnapshot* snap = reopened->committed();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->resume_step, 4);
  EXPECT_EQ(snap->checkpoint_counter, 5);
  ASSERT_EQ(snap->scalars.size(), 1u);
  EXPECT_EQ(snap->scalars[0].first, "err");
  double restored;
  static_assert(sizeof(restored) == sizeof(snap->scalars[0].second));
  std::memcpy(&restored, &snap->scalars[0].second, sizeof(restored));
  EXPECT_EQ(restored, 0.5);
  ASSERT_EQ(snap->reload_nodes, std::vector<int>{7});
  ASSERT_EQ(snap->blocks.size(), 3u);
  // The shared payload was deduplicated into one file.
  EXPECT_EQ(snap->blocks[0].file, snap->blocks[1].file);
  EXPECT_NE(snap->blocks[0].file, snap->blocks[2].file);
  for (const DurableBlock& ref : snap->blocks) {
    auto block = reopened->ReadBlock(ref);
    ASSERT_TRUE(block.ok()) << block.status();
    EXPECT_EQ(BlockChecksum(*block), ref.checksum);
  }
}

TEST(DurableCheckpointTest, NewEpochGarbageCollectsThePrevious) {
  TempDir dir("gc");
  ASSERT_OPEN(auto store, dir.path);
  CommitSample(store.get(), 4, 0.5);
  const std::set<std::string> first = FileNames(dir.path);
  CommitSample(store.get(), 9, 0.25);
  const std::set<std::string> second = FileNames(dir.path);
  // No file of the first epoch survives; exactly one manifest remains.
  for (const std::string& name : first) {
    EXPECT_EQ(second.count(name), 0u) << name << " survived GC";
  }
  int manifests = 0;
  for (const std::string& name : second) {
    if (name.rfind("manifest-", 0) == 0) ++manifests;
  }
  EXPECT_EQ(manifests, 1);
  ASSERT_OPEN(auto reopened, dir.path);
  ASSERT_NE(reopened->committed(), nullptr);
  EXPECT_EQ(reopened->committed()->resume_step, 9);
}

TEST(DurableCheckpointTest, FailedCommitRollsBackAndKeepsPreviousEpoch) {
  TempDir dir("rollback");
  // First epoch lands fault-free.
  {
    ASSERT_OPEN(auto store, dir.path);
    CommitSample(store.get(), 4, 0.5);
  }
  const std::set<std::string> before = FileNames(dir.path);
  // Every write fails with ENOSPC: the commit must roll back whole.
  DiskFaultSpec spec;
  spec.enospc_prob = 1.0;
  auto io = std::make_shared<StorageIO>(spec, /*seed=*/1);
  ASSERT_OPEN(auto store, dir.path, io);
  auto block = std::make_shared<const Block>(RandomDenseBlock(8, 8, 77));
  Status st = store->Commit(9, 10, {}, {}, {Pending(1, 0, 0, block)});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_EQ(store->epochs_committed(), 0);
  // Disk state is exactly what it was before the attempt.
  EXPECT_EQ(FileNames(dir.path), before);
  ASSERT_NE(store->committed(), nullptr);
  EXPECT_EQ(store->committed()->resume_step, 4);
}

TEST(DurableCheckpointTest, SoftCrashDebrisIsRolledBackOnReopen) {
  TempDir dir("debris");
  std::set<std::string> committed;
  // Crash at every write point of the next commit in turn, each time from
  // a freshly committed epoch 1; whatever debris each crash leaves,
  // reopening must recover epoch 1 (or the new epoch, if the crash came
  // after the manifest rename) and GC the rest.
  int crashed = 0;
  int crashed_before_commit = 0;
  for (int crash_at = 1; crash_at <= 12; ++crash_at) {
    fs::remove_all(dir.path);
    {
      ASSERT_OPEN(auto fresh, dir.path);
      CommitSample(fresh.get(), 4, 0.5);
    }
    if (crash_at == 1) committed = FileNames(dir.path);
    ASSERT_EQ(FileNames(dir.path), committed) << "crash_at " << crash_at;

    DiskFaultSpec spec;
    spec.crash_at = crash_at;
    auto io = std::make_shared<StorageIO>(spec, /*seed=*/1,
                                          StorageIO::CrashMode::kSoft);
    ASSERT_OPEN(auto store, dir.path, io);
    auto block =
        std::make_shared<const Block>(RandomDenseBlock(8, 8, crash_at));
    Status st = store->Commit(9, 10, {{"err", 0.1}}, {},
                              {Pending(1, 0, 0, block)});
    if (st.ok()) continue;  // crash point past this commit's writes
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
    ++crashed;

    ASSERT_OPEN(auto reopened, dir.path);
    ASSERT_NE(reopened->committed(), nullptr) << "crash_at " << crash_at;
    // Either the old epoch survived (crash before the manifest rename) or
    // the new one committed (crash after it) — never anything partial.
    const int resume = reopened->committed()->resume_step;
    EXPECT_TRUE(resume == 4 || resume == 9)
        << "crash_at " << crash_at << " resume_step " << resume;
    if (resume == 4) {
      ++crashed_before_commit;
      EXPECT_EQ(FileNames(dir.path), committed) << "crash_at " << crash_at;
    }
    for (const DurableBlock& ref : reopened->committed()->blocks) {
      EXPECT_TRUE(reopened->ReadBlock(ref).ok()) << "crash_at " << crash_at;
    }
  }
  // The commit's write points: the new block file's write, fsync and
  // rename, then the manifest's. crash_at 4 changes nothing (its block
  // equals epoch 1's, so the file is reused and only the manifest's 3
  // points exist), and points 7–12 lie past every commit's writes.
  EXPECT_EQ(crashed, 5);
  EXPECT_GT(crashed_before_commit, 0);
}

/// Satellite: fuzzed torn manifests. Truncating the committed manifest at
/// every byte length (and flipping every byte) must either fall back to
/// the previous verified epoch or fail with a clean kDataLoss — never a
/// partial restore — and Open must GC the damaged files it rejects.
TEST(DurableCheckpointTest, FuzzedManifestRollsBackOrFailsClean) {
  TempDir dir("fuzz");
  {
    ASSERT_OPEN(auto store, dir.path);
    CommitSample(store.get(), 4, 0.5);
    CommitSample(store.get(), 9, 0.25);
  }
  // Locate the (single) committed manifest.
  std::string manifest_name;
  for (const std::string& name : FileNames(dir.path)) {
    if (name.rfind("manifest-", 0) == 0) manifest_name = name;
  }
  ASSERT_FALSE(manifest_name.empty());
  const std::string manifest_path = dir.path + "/" + manifest_name;
  std::string good;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::set<std::string> intact = FileNames(dir.path);

  auto restore_dir = [&]() {
    for (const std::string& name : FileNames(dir.path)) {
      if (intact.count(name) == 0) fs::remove(dir.path + "/" + name);
    }
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out.write(good.data(), static_cast<std::streamsize>(good.size()));
  };
  auto check = [&](const std::string& damaged, const std::string& what) {
    {
      std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    auto store = DurableCheckpointStore::Open(dir.path,
                                              std::make_shared<StorageIO>());
    if (store.ok()) {
      // Fallback (or the damage kept the manifest valid): whatever epoch
      // was chosen must verify completely.
      const DurableSnapshot* snap = (*store)->committed();
      if (snap != nullptr) {
        EXPECT_TRUE(snap->resume_step == 4 || snap->resume_step == 9)
            << what;
        for (const DurableBlock& ref : snap->blocks) {
          EXPECT_TRUE((*store)->ReadBlock(ref).ok()) << what;
        }
      }
    } else {
      EXPECT_EQ(store.status().code(), StatusCode::kDataLoss)
          << what << ": " << store.status();
    }
    restore_dir();
  };

  for (size_t len = 0; len < good.size(); ++len) {
    check(good.substr(0, len), "truncated at " + std::to_string(len));
  }
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x08);
    check(bad, "flipped byte " + std::to_string(pos));
  }
}

TEST(DurableCheckpointTest, CorruptBlockFileFallsBackToPreviousEpoch) {
  TempDir dir("blockcorrupt");
  {
    ASSERT_OPEN(auto store, dir.path);
    CommitSample(store.get(), 4, 0.5);
  }
  // Hand-plant a *newer* bogus epoch: a valid-looking manifest referencing
  // a block file whose bytes do not match. Open must reject epoch 99 as
  // corrupt... but since only epoch 99's manifest exists alongside epoch
  // 1's, verification of 99 fails and 1 is recovered.
  // Simplest corruption: flip a payload byte of a committed block file.
  std::string block_name;
  for (const std::string& name : FileNames(dir.path)) {
    if (name.rfind("blk-", 0) == 0) block_name = name;
  }
  ASSERT_FALSE(block_name.empty());
  {
    std::fstream f(dir.path + "/" + block_name,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(40);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(40);
    f.write(&byte, 1);
  }
  // The only epoch is now corrupt: clean kDataLoss, no partial restore.
  auto store =
      DurableCheckpointStore::Open(dir.path, std::make_shared<StorageIO>());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss) << store.status();
}

std::set<std::string> BlockFiles(const std::string& dir) {
  std::set<std::string> names;
  for (const std::string& name : FileNames(dir)) {
    if (name.rfind("blk-", 0) == 0) names.insert(name);
  }
  return names;
}

std::set<std::string> ReferencedFiles(const DurableSnapshot& snap) {
  std::set<std::string> files;
  for (const DurableBlock& b : snap.blocks) files.insert(b.file);
  return files;
}

int64_t FileSize(const std::string& path) {
  return static_cast<int64_t>(fs::file_size(path));
}

/// Writes `data` over `path`.
void Overwrite(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// The two epochs of an incremental commit: `unchanged` is shared by two
/// positions of node 1 in both; node 2's block changes between them; node
/// 3 appears only in the second.
struct IncrementalSample {
  std::shared_ptr<const Block> unchanged =
      std::make_shared<const Block>(RandomDenseBlock(8, 8, 1));
  std::shared_ptr<const Block> old_sparse =
      std::make_shared<const Block>(RandomSparseBlock(16, 16, 0.3, 2));
  std::shared_ptr<const Block> new_sparse =
      std::make_shared<const Block>(RandomSparseBlock(16, 16, 0.3, 3));
  std::shared_ptr<const Block> added =
      std::make_shared<const Block>(RandomDenseBlock(4, 4, 4));

  Status CommitFirst(DurableCheckpointStore* store) const {
    return store->Commit(4, 5, {{"err", 0.5}}, {},
                         {Pending(1, 0, 0, unchanged),
                          Pending(1, 1, 3, unchanged),
                          Pending(2, 2, 5, old_sparse)});
  }
  Status CommitSecond(DurableCheckpointStore* store) const {
    return store->Commit(9, 10, {{"err", 0.25}}, {},
                         {Pending(1, 0, 0, unchanged),
                          Pending(1, 1, 3, unchanged),
                          Pending(2, 2, 5, new_sparse),
                          Pending(3, 0, 1, added)});
  }
};

TEST(DurableCheckpointTest, UnchangedBlockIsWrittenOnceAndKeepsItsFile) {
  TempDir dir("incremental");
  const IncrementalSample sample;
  ASSERT_OPEN(auto store, dir.path);
  ASSERT_TRUE(sample.CommitFirst(store.get()).ok());
  const std::string shared = store->committed()->blocks[0].file;
  const std::string old_sparse = store->committed()->blocks[2].file;
  const int64_t after_first = store->bytes_written();

  ASSERT_TRUE(sample.CommitSecond(store.get()).ok());
  const DurableSnapshot& snap = *store->committed();
  ASSERT_EQ(snap.blocks.size(), 4u);
  // The unchanged payload keeps epoch 1's file at both of its positions.
  EXPECT_EQ(snap.blocks[0].file, shared);
  EXPECT_EQ(snap.blocks[1].file, shared);
  // Only the manifest and the two changed blocks were written.
  const std::string manifest = "manifest-" + std::to_string(snap.epoch);
  EXPECT_EQ(store->bytes_written() - after_first,
            FileSize(dir.path + "/" + manifest) +
                static_cast<int64_t>(SerializeBlock(*sample.new_sparse).size() +
                                     SerializeBlock(*sample.added).size()));
  // GC kept the shared file and dropped the superseded one.
  EXPECT_EQ(BlockFiles(dir.path), ReferencedFiles(snap));
  EXPECT_EQ(BlockFiles(dir.path).count(old_sparse), 0u);

  // A third epoch with nothing changed writes only its manifest, and the
  // file names survive another GC and a reopen.
  const int64_t after_second = store->bytes_written();
  ASSERT_TRUE(sample.CommitSecond(store.get()).ok());
  const std::string third =
      "manifest-" + std::to_string(store->committed()->epoch);
  EXPECT_EQ(store->bytes_written() - after_second,
            FileSize(dir.path + "/" + third));
  EXPECT_EQ(ReferencedFiles(*store->committed()), ReferencedFiles(snap));
  ASSERT_OPEN(auto reopened, dir.path);
  ASSERT_NE(reopened->committed(), nullptr);
  EXPECT_EQ(reopened->committed()->blocks[0].file, shared);
  EXPECT_EQ(BlockFiles(dir.path), ReferencedFiles(*reopened->committed()));
  for (const DurableBlock& ref : reopened->committed()->blocks) {
    EXPECT_TRUE(reopened->ReadBlock(ref).ok()) << ref.file;
  }
}

TEST(DurableCheckpointTest, ChangedChecksumWritesANewFile) {
  TempDir dir("changed");
  const IncrementalSample sample;
  ASSERT_OPEN(auto store, dir.path);
  ASSERT_TRUE(sample.CommitFirst(store.get()).ok());
  const std::string old_file = store->committed()->blocks[2].file;
  ASSERT_TRUE(sample.CommitSecond(store.get()).ok());
  const std::string new_file = store->committed()->blocks[2].file;
  EXPECT_NE(new_file, old_file);
  EXPECT_EQ(new_file.rfind("blk-2-", 0), 0u) << new_file;
  auto block = store->ReadBlock(store->committed()->blocks[2]);
  ASSERT_TRUE(block.ok()) << block.status();
  EXPECT_EQ(BlockChecksum(*block), BlockChecksum(*sample.new_sparse));
}

TEST(DurableCheckpointTest, FileOfAMismatchingPayloadIsNeverReused) {
  TempDir dir("mismatch");
  const auto good = std::make_shared<const Block>(RandomDenseBlock(8, 8, 5));
  // Epoch 1 records good's checksum over a corrupt payload: the file it
  // writes cannot verify, so it must not be carried forward.
  PendingDurableBlock corrupt = Pending(1, 0, 0, good);
  corrupt.block = std::make_shared<const Block>(CorruptedCopy(*good, 7));
  ASSERT_OPEN(auto store, dir.path);
  ASSERT_TRUE(store->Commit(4, 5, {}, {}, {corrupt}).ok());
  const std::string bad_file = store->committed()->blocks[0].file;
  EXPECT_FALSE(store->ReadBlock(store->committed()->blocks[0]).ok());

  // Epoch 2 has the same position and checksum over the repaired payload:
  // it writes a fresh file, and the store verifies again.
  ASSERT_TRUE(store->Commit(9, 10, {}, {}, {Pending(1, 0, 0, good)}).ok());
  EXPECT_NE(store->committed()->blocks[0].file, bad_file);
  EXPECT_EQ(BlockFiles(dir.path).count(bad_file), 0u);
  ASSERT_OPEN(auto reopened, dir.path);
  ASSERT_NE(reopened->committed(), nullptr);
  EXPECT_EQ(reopened->committed()->resume_step, 9);
}

TEST(DurableCheckpointTest, EnospcRollbackOfIncrementalCommitRestoresTheDir) {
  TempDir dir("incremental_rollback");
  const IncrementalSample sample;
  int rolled_back_after_a_write = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    fs::remove_all(dir.path);
    {
      ASSERT_OPEN(auto store, dir.path);
      ASSERT_TRUE(sample.CommitFirst(store.get()).ok());
    }
    const std::set<std::string> before = FileNames(dir.path);
    DiskFaultSpec spec;
    spec.enospc_prob = 0.5;
    auto io = std::make_shared<StorageIO>(spec, seed);
    ASSERT_OPEN(auto store, dir.path, io);
    const Status st = sample.CommitSecond(store.get());
    if (st.ok()) continue;
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
    // Each completed write crosses three write points: this commit wrote
    // a file before failing, and rolling it back must not touch the files
    // the previous epoch shares with it.
    if (io->write_points() > 0) ++rolled_back_after_a_write;
    EXPECT_EQ(FileNames(dir.path), before) << "seed " << seed;
    ASSERT_NE(store->committed(), nullptr);
    EXPECT_EQ(store->committed()->resume_step, 4);
    for (const DurableBlock& ref : store->committed()->blocks) {
      EXPECT_TRUE(store->ReadBlock(ref).ok()) << "seed " << seed;
    }
  }
  EXPECT_GT(rolled_back_after_a_write, 0);
}

TEST(DurableCheckpointTest, CrashDuringIncrementalCommitNeverLosesASharedFile) {
  TempDir dir("incremental_crash");
  const IncrementalSample sample;
  bool completed = false;
  for (int crash_at = 1; !completed; ++crash_at) {
    ASSERT_LE(crash_at, 30) << "commit never completed";
    fs::remove_all(dir.path);
    std::string shared;
    {
      ASSERT_OPEN(auto store, dir.path);
      ASSERT_TRUE(sample.CommitFirst(store.get()).ok());
      shared = store->committed()->blocks[0].file;
    }
    const std::set<std::string> before = FileNames(dir.path);
    DiskFaultSpec spec;
    spec.crash_at = crash_at;
    auto io = std::make_shared<StorageIO>(spec, /*seed=*/1,
                                          StorageIO::CrashMode::kSoft);
    ASSERT_OPEN(auto store, dir.path, io);
    const Status st = sample.CommitSecond(store.get());
    completed = st.ok();
    if (!completed) {
      EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
    }

    ASSERT_OPEN(auto reopened, dir.path);
    const DurableSnapshot* snap = reopened->committed();
    ASSERT_NE(snap, nullptr) << "crash_at " << crash_at;
    const int resume = snap->resume_step;
    EXPECT_TRUE(resume == 4 || resume == 9)
        << "crash_at " << crash_at << " resume_step " << resume;
    if (resume == 4) {
      EXPECT_EQ(FileNames(dir.path), before) << "crash_at " << crash_at;
    }
    EXPECT_EQ(snap->blocks[0].file, shared) << "crash_at " << crash_at;
    EXPECT_EQ(BlockFiles(dir.path), ReferencedFiles(*snap))
        << "crash_at " << crash_at;
    for (const DurableBlock& ref : snap->blocks) {
      EXPECT_TRUE(reopened->ReadBlock(ref).ok())
          << "crash_at " << crash_at << " " << ref.file;
    }
  }
}

TEST(DurableCheckpointTest, GcLeavesForeignFilesAlone) {
  TempDir dir("foreign");
  fs::create_directories(dir.path + "/results");
  fs::create_directories(dir.path + "/empty");
  Overwrite(dir.path + "/results/run.csv", "a,b\n");
  const std::vector<std::string> foreign = {
      "notes.txt", "results.csv", "blk-notes.bin", "manifest-x",
      "blk-1-2.bin.bak", "manifest-3.old"};
  for (const std::string& name : foreign) {
    Overwrite(dir.path + "/" + name, "not a checkpoint file\n");
  }
  // Stale store files of an epoch no manifest commits are collected.
  Overwrite(dir.path + "/blk-7-0.bin", "stale");
  Overwrite(dir.path + "/manifest-8.tmp", "torn");
  {
    ASSERT_OPEN(auto store, dir.path);
    CommitSample(store.get(), 4, 0.5);
    CommitSample(store.get(), 9, 0.25);
  }
  ASSERT_OPEN(auto store, dir.path);
  CommitSample(store.get(), 12, 0.125);
  ASSERT_OPEN(store, dir.path);
  ASSERT_NE(store->committed(), nullptr);
  EXPECT_EQ(store->committed()->resume_step, 12);

  std::set<std::string> names = FileNames(dir.path);
  for (const std::string& name : foreign) {
    EXPECT_EQ(names.erase(name), 1u) << name << " was deleted";
  }
  EXPECT_TRUE(fs::is_directory(dir.path + "/empty"));
  EXPECT_TRUE(fs::exists(dir.path + "/results/run.csv"));
  names.erase("empty");
  names.erase("results");
  // What remains is exactly the store's committed epoch.
  std::set<std::string> want = ReferencedFiles(*store->committed());
  want.insert("manifest-" + std::to_string(store->committed()->epoch));
  EXPECT_EQ(names, want);
}

TEST(DurableCheckpointTest, VersionOneManifestFailsCleanAndDeletesNothing) {
  TempDir dir("v1");
  {
    ASSERT_OPEN(auto store, dir.path);
    CommitSample(store.get(), 4, 0.5);
  }
  // Re-tag the committed manifest as the previous format, with a valid
  // footer: the block files it names hold checksums of another hash, so
  // the store must refuse it rather than verify against them.
  std::string manifest_name;
  for (const std::string& name : FileNames(dir.path)) {
    if (name.rfind("manifest-", 0) == 0) manifest_name = name;
  }
  ASSERT_FALSE(manifest_name.empty());
  const std::string path = dir.path + "/" + manifest_name;
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(data.rfind("DMACCKPT2\n", 0), 0u);
  data[8] = '1';
  std::string body = data.substr(0, data.rfind("end "));
  char footer[32];
  std::snprintf(footer, sizeof(footer), "end %016llx\n",
                static_cast<unsigned long long>(
                    Fnv1a(body.data(), body.size(), 0)));
  Overwrite(path, body + footer);
  const std::set<std::string> before = FileNames(dir.path);

  auto store =
      DurableCheckpointStore::Open(dir.path, std::make_shared<StorageIO>());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss) << store.status();
  EXPECT_EQ(FileNames(dir.path), before);
}

TEST(DurableCheckpointTest, FreshDirectoryIsAFreshStart) {
  TempDir dir("fresh");
  ASSERT_OPEN(auto store, dir.path);
  EXPECT_EQ(store->committed(), nullptr);
  EXPECT_EQ(store->epochs_committed(), 0);
}

}  // namespace
}  // namespace dmac
