// Durable storage abstraction + disk-fault injection (docs/fault_tolerance.md).
//
// StorageIO is the single choke point through which the durable layers
// (DurableCheckpointStore, SpillStore) touch the filesystem, and therefore
// the single place disk faults are injected: short/torn writes, read-side
// bit flips, ENOSPC, fsync failure, and deterministic crash points. Every
// atomic write follows the write-temp → fsync → atomic-rename protocol, so
// a file named by its final path is always complete — torn writes can only
// ever leave `*.tmp` debris behind, which readers ignore and Open-time GC
// removes.
//
// Crash points: each WriteFileAtomic enumerates three deterministic write
// points (torn temp, synced temp before rename, after rename). The
// `DiskFaultSpec::crash_at` knob kills the process at the Nth point — by
// `std::_Exit(42)` in kHard mode (the crash-loop harness keys on that exit
// code), or by returning kInternal and refusing all further I/O in kSoft
// mode (so in-process tests can simulate the death without dying).
//
// Determinism note: StorageIO draws its probabilistic faults from a private
// RNG rather than the FaultInjector, deviating from the injector-owns-the-
// only-RNG rule (fault/injector.h) because spill stores exist before an
// injector does and must not perturb its draw sequence. The stream is
// seeded from `FaultSpec::seed` xor a fixed salt, so a (spec, seed) pair
// still yields exactly one disk-fault schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/sync.h"
#include "fault/fault_spec.h"
#include "matrix/block.h"

namespace dmac {

/// Serializes `block` in the self-describing spill format (the byte layout
/// documented in governor/spill_store.h — magic "DMACSPL2", kind, dims,
/// payload, trailing BlockChecksum). SpillStore files and durable
/// checkpoint block files share this format bit-for-bit. The magic's
/// version names the checksum function, so a file hashed with another one
/// fails to parse instead of failing verification. When `checksum` is
/// non-null it receives the trailing checksum, so a caller can compare the
/// payload against a recorded checksum without hashing it twice.
std::string SerializeBlock(const Block& block, uint64_t* checksum = nullptr);

/// Parses a serialized block. `kDataLoss` on a corrupt or truncated buffer
/// or a checksum mismatch; a corrupt header is size-guarded against the
/// buffer length so it can never drive a giant allocation.
Result<Block> DeserializeBlock(const std::string& data, const std::string& context);

/// Filesystem facade with deterministic fault injection. Thread-safe (the
/// fault-draw state is mutex-guarded); in practice only the driver thread
/// writes. One instance per store keeps the write-point enumeration and
/// fault schedule independent of unrelated stores.
class StorageIO {
 public:
  /// What an injected `crash_at` does when it fires.
  enum class CrashMode {
    kHard,  // std::_Exit(42): the crash-loop harness's contract
    kSoft,  // return kInternal and fail all subsequent ops (for tests)
  };

  /// Fault-free storage.
  StorageIO();

  /// Storage with the given fault distribution. `seed` fixes the fault
  /// schedule (pass FaultSpec::seed xor a salt, see the header comment).
  StorageIO(const DiskFaultSpec& spec, uint64_t seed,
            CrashMode mode = CrashMode::kHard);

  /// Creates `dir` (and parents). Idempotent.
  [[nodiscard]] Status CreateDir(const std::string& dir) DMAC_EXCLUDES(mu_);

  /// Atomically replaces `path` with `data`: write `path.tmp`, fsync,
  /// rename. On any failure the temp file is removed and `path` is
  /// untouched (except after an injected crash, which by design leaves the
  /// torn temp behind). Error codes follow the disk-fault taxonomy:
  /// kResourceExhausted for ENOSPC, kUnavailable for short writes and
  /// fsync failures, kInternal after an injected (soft) crash.
  [[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                       const std::string& data)
      DMAC_EXCLUDES(mu_);

  /// Reads the whole file. kNotFound if missing, kUnavailable on a read
  /// error. A drawn read-side bit flip corrupts one bit of the returned
  /// buffer — detection is the caller's checksum's job.
  [[nodiscard]] Result<std::string> ReadFile(const std::string& path)
      DMAC_EXCLUDES(mu_);

  /// Removes a file if it exists (best-effort, never fails).
  void Remove(const std::string& path);

  /// Sorted file names (not paths) directly under `dir`; empty if the
  /// directory does not exist.
  [[nodiscard]] Result<std::vector<std::string>> List(
      const std::string& dir) const;

  /// Write points enumerated so far (the domain of `crash_at`).
  int64_t write_points() const DMAC_EXCLUDES(mu_);

  /// Probabilistic disk faults drawn so far (not counting the crash).
  int64_t faults_injected() const DMAC_EXCLUDES(mu_);

  /// True after a soft injected crash: every further op fails kInternal,
  /// modeling that the process died at the crash point — nothing may be
  /// written (or cleaned up) after it.
  bool dead() const DMAC_EXCLUDES(mu_);

 private:
  /// Advances the write-point counter; returns the point number when the
  /// crash fires at this site (0 otherwise). The call site prepares the
  /// on-disk state the crash should leave behind, then calls Crash().
  [[nodiscard]] int64_t AdvanceWritePoint() DMAC_EXCLUDES(mu_);

  /// Fires the injected crash: std::_Exit(42) in kHard mode, or marks the
  /// instance dead and returns kInternal in kSoft mode.
  [[nodiscard]] Status Crash(int64_t point) DMAC_EXCLUDES(mu_);

  [[nodiscard]] bool Draw(double prob) DMAC_EXCLUDES(mu_);
  [[nodiscard]] Status DeadCheck() const DMAC_EXCLUDES(mu_);

  const DiskFaultSpec spec_;
  const CrashMode mode_;

  mutable Mutex mu_;
  Rng rng_ DMAC_GUARDED_BY(mu_);
  int64_t write_points_ DMAC_GUARDED_BY(mu_) = 0;
  int64_t faults_injected_ DMAC_GUARDED_BY(mu_) = 0;
  bool dead_ DMAC_GUARDED_BY(mu_) = false;
};

}  // namespace dmac
