// Disk spill store for cold blocks (docs/governance.md).
//
// When a query's resident set exceeds its MemoryBudget, the executor spills
// least-recently-used blocks here and drops the in-memory payload. A spill
// file is a self-describing snapshot of one block in the shared serialized
// block format (fault/durable_io.h):
//
//   magic "DMACSPL2" | kind u32 | rows i64 | cols i64
//   dense:  scalar payload (rows*cols floats, column-major)
//   sparse: nnz i64 | col_ptr i32[cols+1] | row_idx i32[nnz] | values f32[nnz]
//   checksum u64   — word-parallel BlockChecksum of the block
//                    (fault/checksum.h)
//
// Every byte moves through a StorageIO, so disk faults (short writes,
// ENOSPC, read-side bit flips, crash points) inject here too, and error
// codes follow the disk-fault taxonomy: kResourceExhausted when the disk is
// full, kUnavailable for short writes and fsync failures — resource
// pressure and flaky storage are not corruption. Restore rebuilds the
// block, recomputes the checksum, and fails with `kDataLoss` on mismatch —
// a spilled block must round-trip bit-identically, the same contract the
// partition stores enforce in memory. Restore consumes the file, so
// `live_files()` counts exactly the blocks currently on disk; the
// destructor removes any remaining files and the store directory, which is
// how "no leaked spill files" is guaranteed on every exit path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/sync.h"
#include "fault/durable_io.h"
#include "matrix/block.h"

namespace dmac {

/// One query's spill directory. Thread-safe; in practice only the driver
/// thread spills/restores (at step boundaries).
class SpillStore {
 public:
  /// Invalid spill handle.
  static constexpr int64_t kNoHandle = -1;

  /// Opens a store rooted at `dir`, or at a fresh unique directory under the
  /// system temp path when `dir` is empty. `io` is the storage layer every
  /// byte moves through (fault injection included); fault-free by default.
  static Result<std::shared_ptr<SpillStore>> Create(
      std::string dir = "", std::shared_ptr<StorageIO> io = nullptr);

  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Writes `block` to a new spill file. Returns its handle. Error codes
  /// follow the disk-fault taxonomy (kResourceExhausted on a full disk,
  /// kUnavailable on a short write or fsync failure).
  [[nodiscard]] Result<int64_t> Spill(const Block& block) DMAC_EXCLUDES(mu_);

  /// Reads the block back, verifies its checksum, and deletes the file.
  /// `kDataLoss` on corruption or a missing/truncated file (the file is
  /// still consumed, so a damaged block never leaks).
  [[nodiscard]] Result<Block> Restore(int64_t handle) DMAC_EXCLUDES(mu_);

  /// Deletes a spilled file without reading it (its owner was dropped).
  void Remove(int64_t handle) DMAC_EXCLUDES(mu_);

  /// Number of spill files currently on disk.
  int64_t live_files() const DMAC_EXCLUDES(mu_);

  /// Total payload bytes written / read back over the store's lifetime.
  int64_t spilled_bytes() const DMAC_EXCLUDES(mu_);
  int64_t restored_bytes() const DMAC_EXCLUDES(mu_);

  const std::string& dir() const { return dir_; }

 private:
  SpillStore(std::string dir, bool owns_dir, std::shared_ptr<StorageIO> io);

  std::string PathFor(int64_t handle) const;

  const std::string dir_;
  const bool owns_dir_;
  const std::shared_ptr<StorageIO> io_;

  mutable Mutex mu_;
  int64_t next_handle_ DMAC_GUARDED_BY(mu_) = 0;
  /// handle -> payload bytes of the file (for accounting on Remove).
  std::unordered_map<int64_t, int64_t> live_ DMAC_GUARDED_BY(mu_);
  int64_t spilled_bytes_ DMAC_GUARDED_BY(mu_) = 0;
  int64_t restored_bytes_ DMAC_GUARDED_BY(mu_) = 0;
};

}  // namespace dmac
