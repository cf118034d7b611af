// Durable, crash-consistent checkpoint store (docs/fault_tolerance.md,
// "Durability & restart").
//
// A checkpoint directory holds per-block files in the shared serialized
// block format (fault/durable_io.h) plus versioned manifests:
//
//   blk-<epoch>-<seq>.bin   one serialized block payload (deduplicated:
//                           Broadcast replicas share one file), named for
//                           the epoch that wrote it
//   manifest-<epoch>        text manifest (header DMACCKPT2) naming every
//                           block of the epoch, the scalar environment, and
//                           the resume step, ending in `end <fnv64>` over
//                           the body
//
// Epochs are incremental: a block whose cluster position and checksum are
// unchanged since the committed epoch keeps that epoch's file, so a later
// manifest may reference files written by earlier epochs, and while two
// manifests coexist they can share files. A file is reused only when it is
// known to hash to its checksum — this store wrote it from a payload whose
// checksum matched the recorded one, or Open verified it. Reusing it is
// then byte-for-byte what rewriting a payload that matches its recorded
// checksum would produce, and a corrupt file is never carried forward.
//
// Commit protocol: write every changed block file, then the manifest, each
// by write-temp → fsync → atomic-rename. The manifest rename *is* the
// commit point — a crash anywhere earlier leaves the previous epoch intact
// and only `*.tmp` / unreferenced debris behind, which Open()
// garbage-collects. Only after the rename are the previous manifest and
// the previous files the new manifest no longer references removed. This
// is crash-consistent for process death; the directory is not fsynced
// after a rename, so durability across power loss is not claimed.
//
// Open() scans manifests newest-first: a manifest without a valid footer
// is crash debris and is skipped (rolled back); a footer-valid manifest
// whose body or block files fail verification is *corruption* — Open falls
// back to the previous committed epoch if one verifies, and otherwise fails
// with a clean kDataLoss, deleting nothing. It never yields a
// partially-restorable snapshot. Its GC removes only the store's own names
// (manifests, block files and their `*.tmp`), never a foreign file.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "fault/durable_io.h"
#include "matrix/block.h"

namespace dmac {

/// One block of a committed snapshot: where it lived in the cluster, its
/// content checksum, and the (directory-relative) file holding its bytes.
struct DurableBlock {
  int node_id = -1;
  int worker = 0;
  int64_t key = 0;
  uint64_t checksum = 0;
  std::string file;
};

/// A committed consistent cut of one execution: every live node's blocks,
/// the scalar environment (bit-exact), and the plan step the cut covers.
struct DurableSnapshot {
  int64_t epoch = 0;
  /// Last plan step id whose effects the snapshot covers; resume skips
  /// every step with id <= resume_step.
  int resume_step = -1;
  /// Checkpoint-cadence counter at commit time, restored on resume so the
  /// resumed run checkpoints at the same steps the clean run would.
  int64_t checkpoint_counter = 0;
  /// Scalar environment as (name, IEEE-754 bit pattern) — doubles round-
  /// trip bit-exactly, which text formatting would not guarantee.
  std::vector<std::pair<std::string, uint64_t>> scalars;
  /// Nodes produced by kLoad steps: they alias caller-owned bindings and
  /// are not serialized; resume re-executes their load steps instead.
  std::vector<int> reload_nodes;
  std::vector<DurableBlock> blocks;
};

/// A block queued for Commit(): the cluster position plus a reference to
/// the (immutable) payload. Entries sharing a payload pointer share one
/// block file.
struct PendingDurableBlock {
  int node_id = -1;
  int worker = 0;
  int64_t key = 0;
  uint64_t checksum = 0;
  std::shared_ptr<const Block> block;
};

/// Driver-side durable checkpoint store. Not thread-safe: only the driver
/// thread checkpoints and resumes, at step boundaries.
class DurableCheckpointStore {
 public:
  /// What Open does when the directory holds manifests and none of them
  /// verifies (corrupt, or written in an earlier on-disk format).
  enum class OnUnverifiable {
    kFail,        // kDataLoss: a resume must never silently start over
    kStartEmpty,  // open with no committed epoch and delete nothing: for
                  // callers that restore nothing (a run without --resume)
  };

  /// Opens (creating if needed) the store at `dir`, recovering the last
  /// committed epoch: partial manifests roll back, corrupt committed state
  /// falls back to the previous epoch or is handled per `on_unverifiable`,
  /// and stale / partial files are garbage-collected. `io` is the
  /// fault-injection choke point every byte moves through.
  static Result<std::unique_ptr<DurableCheckpointStore>> Open(
      std::string dir, std::shared_ptr<StorageIO> io,
      OnUnverifiable on_unverifiable = OnUnverifiable::kFail);

  /// The last committed snapshot, or nullptr if the store is fresh.
  const DurableSnapshot* committed() const {
    return committed_.has_value() ? &*committed_ : nullptr;
  }

  /// Reads one block of the committed snapshot and verifies its checksum.
  /// kDataLoss on a missing, corrupt, or mismatching file.
  [[nodiscard]] Result<Block> ReadBlock(const DurableBlock& ref) const;

  /// Commits a new epoch: writes every changed (deduplicated) block file,
  /// reusing the committed epoch's known-good file for each block whose
  /// position and checksum are unchanged, then the manifest — the atomic
  /// rename of which is the commit point. On any disk error the files this
  /// epoch wrote are rolled back, the previous committed epoch stays
  /// intact, and the error is returned. On success the previous manifest
  /// and the previous files no longer referenced are garbage-collected.
  [[nodiscard]] Status Commit(
      int resume_step, int64_t checkpoint_counter,
      const std::vector<std::pair<std::string, double>>& scalars,
      const std::vector<int>& reload_nodes,
      const std::vector<PendingDurableBlock>& blocks);

  /// Bytes written by successful commits (new block files + manifests) so
  /// far; reused files cost nothing.
  int64_t bytes_written() const { return bytes_written_; }

  /// Epochs committed by this instance (not counting the one recovered by
  /// Open).
  int64_t epochs_committed() const { return epochs_committed_; }

  const std::string& dir() const { return dir_; }

 private:
  DurableCheckpointStore(std::string dir, std::shared_ptr<StorageIO> io)
      : dir_(std::move(dir)), io_(std::move(io)) {}

  std::string PathFor(const std::string& name) const {
    return dir_ + "/" + name;
  }

  const std::string dir_;
  const std::shared_ptr<StorageIO> io_;
  std::optional<DurableSnapshot> committed_;
  /// Every block file of the committed epoch, mapped to the checksum its
  /// bytes are known to hash to (what Commit may reuse).
  std::unordered_map<std::string, uint64_t> content_checksum_;
  int64_t next_epoch_ = 1;
  int64_t bytes_written_ = 0;
  int64_t epochs_committed_ = 0;
};

}  // namespace dmac
