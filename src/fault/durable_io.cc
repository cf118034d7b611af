#include "fault/durable_io.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "fault/checksum.h"

namespace dmac {

namespace {

constexpr char kMagic[8] = {'D', 'M', 'A', 'C', 'S', 'P', 'L', '2'};
constexpr uint32_t kKindDense = 0;
constexpr uint32_t kKindSparse = 1;

/// Exit code of a hard injected crash; scripts/crash_loop.sh keys on it to
/// distinguish "crashed as scheduled" from a real failure.
constexpr int kCrashExitCode = 42;

void Append(std::string* out, const void* data, size_t len) {
  out->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendOne(std::string* out, T v) {
  Append(out, &v, sizeof(T));
}

/// Sequential reader over a serialized block buffer.
class Cursor {
 public:
  explicit Cursor(const std::string& data) : data_(data) {}

  bool Read(void* out, size_t len) {
    if (len > data_.size() - pos_) return false;
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  template <typename T>
  bool ReadOne(T* out) {
    return Read(out, sizeof(T));
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

Status MapWriteErrno(int err, const std::string& path) {
  if (err == ENOSPC) {
    return Status::ResourceExhausted("disk: out of space writing " + path);
  }
  return Status::Unavailable("disk: short write to " + path);
}

}  // namespace

std::string SerializeBlock(const Block& block, uint64_t* checksum) {
  std::string out;
  Append(&out, kMagic, sizeof(kMagic));
  AppendOne<uint32_t>(&out, block.IsDense() ? kKindDense : kKindSparse);
  AppendOne<int64_t>(&out, block.rows());
  AppendOne<int64_t>(&out, block.cols());
  if (block.IsDense()) {
    const DenseBlock& d = block.dense();
    Append(&out, d.data(),
           sizeof(Scalar) * static_cast<size_t>(d.rows() * d.cols()));
  } else {
    const CscBlock& s = block.sparse();
    AppendOne<int64_t>(&out, s.nnz());
    Append(&out, s.col_ptr().data(), sizeof(int32_t) * s.col_ptr().size());
    Append(&out, s.row_idx().data(), sizeof(int32_t) * s.row_idx().size());
    Append(&out, s.values().data(), sizeof(Scalar) * s.values().size());
  }
  const uint64_t sum = BlockChecksum(block);
  AppendOne<uint64_t>(&out, sum);
  if (checksum != nullptr) *checksum = sum;
  return out;
}

Result<Block> DeserializeBlock(const std::string& data,
                               const std::string& context) {
  const auto corrupt = [&context]() {
    return Status::DataLoss(context + ": corrupt or truncated block data");
  };
  Cursor cur(data);
  char magic[8];
  uint32_t kind = 0;
  int64_t rows = 0, cols = 0;
  if (!cur.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      !cur.ReadOne(&kind) || !cur.ReadOne(&rows) || !cur.ReadOne(&cols) ||
      rows < 0 || cols < 0) {
    return corrupt();
  }
  // Every size below is guarded against the buffer length before it drives
  // an allocation: a corrupt header must fail clean, not OOM. The products
  // are computed division-side so they cannot themselves overflow.
  Block block;
  if (kind == kKindDense) {
    if (cols > 0 &&
        static_cast<uint64_t>(rows) >
            cur.remaining() / (sizeof(Scalar) * static_cast<uint64_t>(cols))) {
      return corrupt();
    }
    DenseBlock d(rows, cols);
    if (!cur.Read(d.data(), sizeof(Scalar) * static_cast<size_t>(rows * cols))) {
      return corrupt();
    }
    block = Block(std::move(d));
  } else if (kind == kKindSparse) {
    int64_t nnz = 0;
    if (!cur.ReadOne(&nnz) || nnz < 0 ||
        static_cast<uint64_t>(nnz) >
            cur.remaining() / (sizeof(int32_t) + sizeof(Scalar)) ||
        static_cast<uint64_t>(cols) >= cur.remaining() / sizeof(int32_t)) {
      return corrupt();
    }
    std::vector<int32_t> col_ptr(static_cast<size_t>(cols) + 1);
    std::vector<int32_t> row_idx(static_cast<size_t>(nnz));
    std::vector<Scalar> values(static_cast<size_t>(nnz));
    if (!cur.Read(col_ptr.data(), sizeof(int32_t) * col_ptr.size()) ||
        !cur.Read(row_idx.data(), sizeof(int32_t) * row_idx.size()) ||
        !cur.Read(values.data(), sizeof(Scalar) * values.size())) {
      return corrupt();
    }
    // Validate the CSC structure softly before handing the arrays to the
    // checking constructor, so a corrupt buffer surfaces as kDataLoss
    // instead of an invariant abort.
    bool ok = col_ptr.front() == 0 && col_ptr.back() == nnz;
    for (size_t c = 0; ok && c + 1 < col_ptr.size(); ++c) {
      ok = col_ptr[c] <= col_ptr[c + 1];
      for (int32_t i = col_ptr[c]; ok && i < col_ptr[c + 1]; ++i) {
        ok = row_idx[i] >= 0 && row_idx[i] < rows &&
             (i == col_ptr[c] || row_idx[i - 1] < row_idx[i]);
      }
    }
    if (!ok) return corrupt();
    block = Block(CscBlock(rows, cols, std::move(col_ptr), std::move(row_idx),
                           std::move(values)));
  } else {
    return corrupt();
  }
  uint64_t stored_checksum = kNoChecksum;
  if (!cur.ReadOne(&stored_checksum)) return corrupt();
  if (BlockChecksum(block) != stored_checksum) {
    return Status::DataLoss(context + ": checksum mismatch");
  }
  return block;
}

StorageIO::StorageIO() : StorageIO(DiskFaultSpec{}, 1) {}

StorageIO::StorageIO(const DiskFaultSpec& spec, uint64_t seed, CrashMode mode)
    : spec_(spec), mode_(mode), rng_(seed) {}

Status StorageIO::DeadCheck() const {
  MutexLock lock(&mu_);
  if (dead_) {
    return Status::Internal("storage io refused: dead after injected crash");
  }
  return Status::Ok();
}

bool StorageIO::Draw(double prob) {
  if (prob <= 0) return false;
  bool fired;
  {
    MutexLock lock(&mu_);
    fired = rng_.NextDouble() < prob;
    if (fired) ++faults_injected_;
  }
  return fired;
}

int64_t StorageIO::AdvanceWritePoint() {
  MutexLock lock(&mu_);
  const int64_t point = ++write_points_;
  return (spec_.crash_at >= 1 && point == spec_.crash_at) ? point : 0;
}

Status StorageIO::Crash(int64_t point) {
  if (mode_ == CrashMode::kHard) std::_Exit(kCrashExitCode);
  {
    MutexLock lock(&mu_);
    dead_ = true;
  }
  return Status::Internal("injected crash at write point " +
                          std::to_string(point));
}

Status StorageIO::CreateDir(const std::string& dir) {
  DMAC_RETURN_NOT_OK(DeadCheck());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Unavailable("disk: cannot create directory " + dir + ": " +
                               ec.message());
  }
  return Status::Ok();
}

Status StorageIO::WriteFileAtomic(const std::string& path,
                                  const std::string& data) {
  DMAC_RETURN_NOT_OK(DeadCheck());
  const std::string tmp = path + ".tmp";
  const auto rollback = [&tmp]() {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  };
  if (Draw(spec_.enospc_prob)) {
    rollback();
    return Status::ResourceExhausted("disk: out of space writing " + path +
                                     " (injected)");
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return MapWriteErrno(errno, tmp);

  // Write point 1: crash mid-write, leaving a torn temp file behind. The
  // final path is untouched — that is the whole point of the protocol.
  if (const int64_t point = AdvanceWritePoint()) {
    (void)std::fwrite(data.data(), 1, data.size() / 2, f);
    std::fclose(f);  // flushes the torn prefix so the "crash" leaves it
    return Crash(point);
  }
  if (Draw(spec_.short_write_prob)) {
    (void)std::fwrite(data.data(), 1, data.size() / 2, f);
    std::fclose(f);
    rollback();
    return Status::Unavailable("disk: short write to " + path + " (injected)");
  }
  if (std::fwrite(data.data(), 1, data.size(), f) != data.size()) {
    const int err = errno;
    std::fclose(f);
    rollback();
    return MapWriteErrno(err, path);
  }
  std::fflush(f);
  if (Draw(spec_.fsync_fail_prob)) {
    std::fclose(f);
    rollback();
    return Status::Unavailable("disk: fsync failed for " + path +
                               " (injected)");
  }
  if (::fsync(fileno(f)) != 0) {
    const int err = errno;
    std::fclose(f);
    rollback();
    return err == ENOSPC
               ? Status::ResourceExhausted("disk: out of space syncing " + path)
               : Status::Unavailable("disk: fsync failed for " + path);
  }
  // Write point 2: crash with a complete, synced temp — still not renamed,
  // so readers never see it.
  if (const int64_t point = AdvanceWritePoint()) {
    std::fclose(f);
    return Crash(point);
  }
  std::fclose(f);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    rollback();
    return Status::Unavailable("disk: cannot rename " + tmp + " to " + path +
                               ": " + ec.message());
  }
  // Write point 3: crash after the rename — the file is durable and a
  // restart must observe it.
  if (const int64_t point = AdvanceWritePoint()) return Crash(point);
  return Status::Ok();
}

Result<std::string> StorageIO::ReadFile(const std::string& path) {
  DMAC_RETURN_NOT_OK(DeadCheck());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return errno == ENOENT
               ? Status::NotFound("disk: no such file " + path)
               : Status::Unavailable("disk: cannot open " + path);
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return Status::Unavailable("disk: read error on " + path);
  if (!data.empty() && Draw(spec_.read_flip_prob)) {
    uint64_t bit;
    {
      MutexLock lock(&mu_);
      bit = rng_.NextBounded(static_cast<uint64_t>(data.size()) * 8);
    }
    data[static_cast<size_t>(bit / 8)] ^=
        static_cast<char>(1u << (bit % 8));
  }
  return data;
}

void StorageIO::Remove(const std::string& path) {
  {
    MutexLock lock(&mu_);
    if (dead_) return;  // a dead process cleans nothing up
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

Result<std::vector<std::string>> StorageIO::List(const std::string& dir) const {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return names;  // missing directory = empty listing
  for (const auto& entry : it) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

int64_t StorageIO::write_points() const {
  MutexLock lock(&mu_);
  return write_points_;
}

int64_t StorageIO::faults_injected() const {
  MutexLock lock(&mu_);
  return faults_injected_;
}

bool StorageIO::dead() const {
  MutexLock lock(&mu_);
  return dead_;
}

}  // namespace dmac
