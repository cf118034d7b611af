// Crash-restart resumption: a run killed at *every* durable write point in
// turn, then resumed, must converge to outputs bit-identical to an
// uninterrupted run — across workloads and seeds — leaving zero stale or
// partial checkpoint files behind. Plus the disk-fault identity sweep:
// write-side faults may fail epoch commits, but a run that completes must
// still be bit-identical.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "common/status.h"
#include "fault/durable_checkpoint.h"
#include "fault_test_util.h"

namespace dmac {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("dmac_resume_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

RunConfig BaseConfig(uint64_t seed) {
  RunConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.block_size = kFaultBs;
  config.seed = seed;
  return config;
}

/// The in-process analogue of the crash-loop harness: run with a soft
/// crash at write point n = 1, 2, ... resuming each time, until a run
/// completes. Returns the completed result.
ExecutionResult CrashLoop(const FaultAppCase& app, const RunConfig& base,
                          const std::string& ckpt_dir, int* iterations) {
  for (int n = 1; n <= 500; ++n) {
    RunConfig config = base;
    config.checkpoint_dir = ckpt_dir;
    config.resume = true;
    config.fault.disk.crash_at = n;
    config.fault.disk.crash_soft = true;
    auto run = RunProgram(app.program, app.MakeBindings(), config);
    if (run.ok()) {
      *iterations = n;
      return std::move(run->result);
    }
    // Anything but the injected crash is a harness failure.
    EXPECT_EQ(run.status().code(), StatusCode::kInternal)
        << "crash point " << n << ": " << run.status();
  }
  ADD_FAILURE() << "crash loop did not converge within 500 points";
  return {};
}

TEST(ResumeTest, KillAtEveryWritePointConvergesBitIdentically) {
  for (const FaultAppCase& app : {MakeSmallGnmf(), MakeSmallPageRank()}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{17}}) {
      const RunConfig base = BaseConfig(seed);
      auto clean = RunProgram(app.program, app.MakeBindings(), base);
      ASSERT_TRUE(clean.ok()) << clean.status();

      TempDir dir(app.name + "_s" + std::to_string(seed));
      int iterations = 0;
      ExecutionResult resumed = CrashLoop(app, base, dir.path, &iterations);
      EXPECT_GT(iterations, 1)
          << app.name << " seed " << seed
          << ": the loop never actually crashed (no durable writes?)";
      ExpectBitIdentical(clean->result, resumed,
                         app.name + " seed " + std::to_string(seed) +
                             " after " + std::to_string(iterations) +
                             " crash-resume iterations");

      // Zero stale or partial files: only the final epoch's manifest and
      // its referenced blocks remain — no orphan block file, and no block
      // the manifest names is missing. The listing is taken before Open,
      // whose GC would hide an orphan.
      int64_t manifests = 0;
      std::set<std::string> block_files;
      for (const auto& entry : fs::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.find(".tmp"), std::string::npos)
            << "partial file " << name << " leaked";
        if (name.rfind("manifest-", 0) == 0) ++manifests;
        if (name.rfind("blk-", 0) == 0) block_files.insert(name);
      }
      EXPECT_EQ(manifests, 1);
      auto store = DurableCheckpointStore::Open(dir.path,
                                                std::make_shared<StorageIO>());
      ASSERT_TRUE(store.ok()) << store.status();
      ASSERT_NE((*store)->committed(), nullptr);
      std::set<std::string> referenced;
      for (const DurableBlock& b : (*store)->committed()->blocks) {
        referenced.insert(b.file);
      }
      EXPECT_EQ(block_files, referenced) << app.name << " seed " << seed;
    }
  }
}

TEST(ResumeTest, ResumeAfterCompletionReExecutesNothing) {
  const FaultAppCase app = MakeSmallGnmf();
  const RunConfig base = BaseConfig(3);
  TempDir dir("completed");

  RunConfig durable = base;
  durable.checkpoint_dir = dir.path;
  auto first = RunProgram(app.program, app.MakeBindings(), durable);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->result.stats.durable_epochs, 0);

  durable.resume = true;
  auto again = RunProgram(app.program, app.MakeBindings(), durable);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->result.stats.resumed);
  // Everything came off disk: no compute steps re-ran, no new epochs.
  EXPECT_EQ(again->result.stats.durable_epochs, 0);
  EXPECT_EQ(again->result.stats.comm_bytes(), 0);
  ExpectBitIdentical(first->result, again->result, "resume after completion");
}

/// After a resume the checkpointed payloads come from disk: a worker crash
/// in the resumed run must bring every resumed block back by restore, not
/// by recomputation (recovery_test.cc has the same case without a resume).
TEST(ResumeTest, CrashAfterResumeRestoresFromTheDiskSnapshot) {
  const FaultAppCase app = MakeSmallRandomIteration();
  const RunConfig base = BaseConfig(13);
  auto clean = RunProgram(app.program, app.MakeBindings(), base);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(PlanHasRowNode(app.program, base));

  TempDir dir("restore");
  RunConfig killed = base;
  killed.checkpoint_dir = dir.path;
  killed.fault.disk.crash_at = 120;
  killed.fault.disk.crash_soft = true;
  auto first = RunProgram(app.program, app.MakeBindings(), killed);
  ASSERT_FALSE(first.ok()) << "the run finished before write point 120";
  ASSERT_EQ(first.status().code(), StatusCode::kInternal) << first.status();

  RunConfig config = base;
  config.checkpoint_dir = dir.path;
  config.resume = true;
  config.fault.enabled = true;
  config.fault.seed = 7;
  config.fault.crash_prob = 1;
  auto run = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(run.ok()) << run.status();
  const ExecStats& stats = run->result.stats;
  ASSERT_TRUE(stats.resumed);
  EXPECT_GT(stats.resume_step, 0);
  EXPECT_GT(stats.faults_injected, 0);
  EXPECT_GT(stats.restored_blocks, 0);
  EXPECT_EQ(stats.recomputed_blocks, 0);
  ExpectBitIdentical(clean->result, run->result, "restore after resume");
}

TEST(ResumeTest, ResumeWithFreshDirectoryIsAPlainFullRun) {
  const FaultAppCase app = MakeSmallPageRank();
  const RunConfig base = BaseConfig(5);
  auto clean = RunProgram(app.program, app.MakeBindings(), base);
  ASSERT_TRUE(clean.ok()) << clean.status();

  TempDir dir("freshdir");
  RunConfig config = base;
  config.checkpoint_dir = dir.path;
  config.resume = true;
  auto run = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->result.stats.resumed);
  ExpectBitIdentical(clean->result, run->result, "resume from fresh dir");
}

/// A directory whose only epoch does not verify (here a manifest in the
/// earlier DMACCKPT1 format): a run without --resume restores nothing, so
/// it runs as on an empty directory and deletes none of those files; a
/// resume of that directory still fails kDataLoss. Once the run has
/// committed, a resume restores its epoch and collects the old files.
TEST(ResumeTest, RunWithoutResumeStartsOverAnUnverifiableDirectory) {
  const FaultAppCase app = MakeSmallGnmf();
  const RunConfig base = BaseConfig(31);
  auto clean = RunProgram(app.program, app.MakeBindings(), base);
  ASSERT_TRUE(clean.ok()) << clean.status();

  TempDir dir("unverifiable");
  fs::create_directories(dir.path);
  const std::set<std::string> seeded = {"manifest-3", "blk-3-0.bin"};
  for (const std::string& name : seeded) {
    std::ofstream(dir.path + "/" + name, std::ios::binary)
        << "DMACCKPT1\nepoch 3\n";
  }
  const auto names = [&dir] {
    std::set<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      out.insert(entry.path().filename().string());
    }
    return out;
  };
  RunConfig durable = base;
  durable.checkpoint_dir = dir.path;

  RunConfig resume = durable;
  resume.resume = true;
  auto refused = RunProgram(app.program, app.MakeBindings(), resume);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status();
  EXPECT_EQ(names(), seeded);

  auto run = RunProgram(app.program, app.MakeBindings(), durable);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectBitIdentical(clean->result, run->result, "run over old files");
  EXPECT_GT(run->result.stats.durable_epochs, 0);
  for (const std::string& name : seeded) {
    EXPECT_EQ(names().count(name), 1u) << name << " was deleted";
  }

  auto resumed = RunProgram(app.program, app.MakeBindings(), resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->result.stats.resumed);
  ExpectBitIdentical(clean->result, resumed->result, "resume of that run");
  for (const std::string& name : seeded) {
    EXPECT_EQ(names().count(name), 0u) << name << " outlived a good epoch";
  }
}

TEST(ResumeTest, ResumeFromTheWrongPlanFailsClean) {
  const FaultAppCase gnmf = MakeSmallGnmf();
  const FaultAppCase pagerank = MakeSmallPageRank();
  const RunConfig base = BaseConfig(11);
  TempDir dir("wrongplan");

  RunConfig durable = base;
  durable.checkpoint_dir = dir.path;
  ASSERT_TRUE(
      RunProgram(gnmf.program, gnmf.MakeBindings(), durable).ok());

  durable.resume = true;
  auto run = RunProgram(pagerank.program, pagerank.MakeBindings(), durable);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
      << run.status();
}

/// Disk-fault identity sweep: write-side faults (short writes, ENOSPC,
/// fsync failures) fail individual epoch commits, which the run absorbs by
/// carrying on from the previous epoch. Completed runs must stay
/// bit-identical; the commit failures must be visible in the stats.
TEST(ResumeTest, WriteFaultSweepKeepsCompletedRunsBitIdentical) {
  for (const FaultAppCase& app : {MakeSmallGnmf(), MakeSmallPageRank()}) {
    const RunConfig base = BaseConfig(23);
    auto clean = RunProgram(app.program, app.MakeBindings(), base);
    ASSERT_TRUE(clean.ok()) << clean.status();

    int64_t failures_seen = 0;
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      TempDir dir(app.name + "_sweep" + std::to_string(seed));
      RunConfig config = base;
      config.checkpoint_dir = dir.path;
      config.fault.seed = seed;
      config.fault.disk.short_write_prob = 0.2;
      config.fault.disk.enospc_prob = 0.1;
      config.fault.disk.fsync_fail_prob = 0.1;
      auto run = RunProgram(app.program, app.MakeBindings(), config);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_GT(run->result.stats.disk_faults_injected, 0);
      failures_seen += run->result.stats.checkpoint_failures;
      ExpectBitIdentical(clean->result, run->result,
                         app.name + " disk-fault seed " +
                             std::to_string(seed));
    }
    EXPECT_GT(failures_seen, 0) << app.name;
  }
}

/// A read-side bit flip at resume is detected by checksum verification:
/// Open falls back or fails kDataLoss — a resumed run never silently
/// diverges.
TEST(ResumeTest, ReadFlipAtResumeNeverSilentlyDiverges) {
  const FaultAppCase app = MakeSmallGnmf();
  const RunConfig base = BaseConfig(29);
  auto clean = RunProgram(app.program, app.MakeBindings(), base);
  ASSERT_TRUE(clean.ok()) << clean.status();

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    TempDir dir("flip" + std::to_string(seed));
    RunConfig durable = base;
    durable.checkpoint_dir = dir.path;
    ASSERT_TRUE(RunProgram(app.program, app.MakeBindings(), durable).ok());

    RunConfig config = durable;
    config.resume = true;
    config.fault.seed = seed;
    config.fault.disk.read_flip_prob = 0.3;
    auto run = RunProgram(app.program, app.MakeBindings(), config);
    if (run.ok()) {
      ExpectBitIdentical(clean->result, run->result,
                         "read-flip seed " + std::to_string(seed));
    } else {
      EXPECT_EQ(run.status().code(), StatusCode::kDataLoss) << run.status();
    }
  }
}

}  // namespace
}  // namespace dmac
