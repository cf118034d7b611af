#include "fault/durable_checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "fault/checksum.h"

namespace dmac {

namespace {

constexpr char kManifestHeader[] = "DMACCKPT2";
constexpr char kManifestPrefix[] = "manifest-";

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

bool ParseHex64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  char* end = nullptr;
  errno = 0;
  const uint64_t v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Parses the decimal epoch out of a `manifest-<epoch>` file name; -1 when
/// the name is not a manifest.
int64_t ManifestEpoch(const std::string& name) {
  const size_t prefix = sizeof(kManifestPrefix) - 1;
  if (name.rfind(kManifestPrefix, 0) != 0 || name.size() == prefix) return -1;
  char* end = nullptr;
  const long long epoch = std::strtoll(name.c_str() + prefix, &end, 10);
  if (end != name.c_str() + name.size() || epoch < 1) return -1;
  return epoch;
}

bool AllDigits(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

/// True for the names this store creates — `manifest-<n>`,
/// `blk-<epoch>-<seq>.bin`, and the `.tmp` files their atomic writes stage.
/// Open's GC removes only these, so foreign files sharing the directory
/// survive.
bool IsStoreFile(std::string_view name) {
  if (name.ends_with(".tmp")) name.remove_suffix(4);
  if (ManifestEpoch(std::string(name)) >= 1) return true;
  if (!name.starts_with("blk-") || !name.ends_with(".bin")) return false;
  name = name.substr(4, name.size() - 8);
  const size_t dash = name.find('-');
  return dash != std::string_view::npos && AllDigits(name.substr(0, dash)) &&
         AllDigits(name.substr(dash + 1));
}

/// Serializes a snapshot as the text manifest: header, body lines, and the
/// `end <fnv64>` footer over every body byte. The footer is what makes a
/// manifest *committed* — a file that fails the footer check is treated as
/// corruption (an atomically-renamed manifest can never be torn).
std::string BuildManifest(const DurableSnapshot& snap) {
  std::ostringstream body;
  body << kManifestHeader << "\n";
  body << "epoch " << snap.epoch << "\n";
  body << "resume_step " << snap.resume_step << "\n";
  body << "counter " << snap.checkpoint_counter << "\n";
  for (const auto& [name, bits] : snap.scalars) {
    body << "scalar " << name << " " << Hex64(bits) << "\n";
  }
  for (const int node : snap.reload_nodes) {
    body << "reload " << node << "\n";
  }
  for (const DurableBlock& b : snap.blocks) {
    body << "block " << b.node_id << " " << b.worker << " " << b.key << " "
         << Hex64(b.checksum) << " " << b.file << "\n";
  }
  std::string out = body.str();
  out += "end " + Hex64(Fnv1a(out.data(), out.size(), 0)) + "\n";
  return out;
}

/// Parses and verifies a manifest read back from disk. False on any
/// structural or checksum problem; `expected_epoch` guards against a
/// manifest file renamed to the wrong epoch.
bool ParseManifest(const std::string& data, int64_t expected_epoch,
                   DurableSnapshot* out) {
  if (data.empty() || data.back() != '\n') return false;
  size_t footer_start = data.rfind('\n', data.size() - 2);
  footer_start = footer_start == std::string::npos ? 0 : footer_start + 1;
  std::istringstream footer(
      data.substr(footer_start, data.size() - 1 - footer_start));
  std::string tag, hex;
  uint64_t want = 0;
  if (!(footer >> tag >> hex) || tag != "end" || !ParseHex64(hex, &want)) {
    return false;
  }
  const std::string body = data.substr(0, footer_start);
  if (Fnv1a(body.data(), body.size(), 0) != want) return false;

  *out = DurableSnapshot{};
  std::istringstream lines(body);
  std::string line;
  int lineno = 0;
  bool saw_epoch = false, saw_step = false, saw_counter = false;
  while (std::getline(lines, line)) {
    ++lineno;
    if (lineno == 1) {
      if (line != kManifestHeader) return false;
      continue;
    }
    std::istringstream ls(line);
    if (!(ls >> tag)) return false;
    if (tag == "epoch") {
      if (!(ls >> out->epoch)) return false;
      saw_epoch = true;
    } else if (tag == "resume_step") {
      if (!(ls >> out->resume_step)) return false;
      saw_step = true;
    } else if (tag == "counter") {
      if (!(ls >> out->checkpoint_counter)) return false;
      saw_counter = true;
    } else if (tag == "scalar") {
      std::string name;
      if (!(ls >> name >> hex)) return false;
      uint64_t bits = 0;
      if (!ParseHex64(hex, &bits)) return false;
      out->scalars.emplace_back(std::move(name), bits);
    } else if (tag == "reload") {
      int node = -1;
      if (!(ls >> node)) return false;
      out->reload_nodes.push_back(node);
    } else if (tag == "block") {
      DurableBlock b;
      if (!(ls >> b.node_id >> b.worker >> b.key >> hex >> b.file)) {
        return false;
      }
      if (!ParseHex64(hex, &b.checksum)) return false;
      out->blocks.push_back(std::move(b));
    } else {
      return false;
    }
  }
  return saw_epoch && saw_step && saw_counter &&
         out->epoch == expected_epoch;
}

}  // namespace

Result<std::unique_ptr<DurableCheckpointStore>> DurableCheckpointStore::Open(
    std::string dir, std::shared_ptr<StorageIO> io,
    OnUnverifiable on_unverifiable) {
  std::unique_ptr<DurableCheckpointStore> store(
      new DurableCheckpointStore(std::move(dir), std::move(io)));
  DMAC_RETURN_NOT_OK(store->io_->CreateDir(store->dir_));
  DMAC_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                        store->io_->List(store->dir_));

  std::vector<int64_t> epochs;
  for (const std::string& name : names) {
    const int64_t epoch = ManifestEpoch(name);
    if (epoch >= 1) epochs.push_back(epoch);
  }
  std::sort(epochs.rbegin(), epochs.rend());

  // Recover the newest fully-verifiable epoch. A manifest at its final name
  // that fails verification is corruption (atomic rename means it cannot be
  // torn), so a lower committed epoch — if one verifies — is the truth;
  // with no verifiable fallback the store is lost, and that must surface as
  // a clean error rather than a silent fresh start — unless the caller
  // restores nothing anyway (kStartEmpty).
  bool saw_corrupt = false;
  for (const int64_t epoch : epochs) {
    auto data = store->io_->ReadFile(
        store->PathFor(kManifestPrefix + std::to_string(epoch)));
    if (!data.ok()) {
      saw_corrupt = true;
      continue;
    }
    DurableSnapshot snap;
    if (!ParseManifest(*data, epoch, &snap)) {
      saw_corrupt = true;
      continue;
    }
    // Fully verify every referenced block now: resume must never start
    // restoring and then hit a corrupt block halfway through.
    bool blocks_ok = true;
    for (const DurableBlock& b : snap.blocks) {
      if (!store->ReadBlock(b).ok()) {
        blocks_ok = false;
        break;
      }
    }
    if (!blocks_ok) {
      saw_corrupt = true;
      continue;
    }
    store->committed_ = std::move(snap);
    for (const DurableBlock& b : store->committed_->blocks) {
      store->content_checksum_[b.file] = b.checksum;
    }
    break;
  }
  const bool unverifiable = !store->committed_.has_value() && saw_corrupt;
  if (unverifiable && on_unverifiable == OnUnverifiable::kFail) {
    return Status::DataLoss("checkpoint dir " + store->dir_ +
                            ": no committed epoch survives verification");
  }

  // Garbage-collect every store file the chosen epoch does not reference:
  // older and partially-written epochs, unreferenced block files, and
  // `*.tmp` crash debris. After Open the store's files are exactly one
  // committed snapshot (or nothing); anything else in the directory is
  // not ours and stays. An unverifiable directory is left as it is: the
  // first commit's epoch numbers past its manifests, and a later Open,
  // finding that epoch, collects them.
  std::set<std::string> keep;
  if (store->committed_.has_value()) {
    keep.insert(kManifestPrefix + std::to_string(store->committed_->epoch));
    for (const DurableBlock& b : store->committed_->blocks) {
      keep.insert(b.file);
    }
  }
  for (const std::string& name : names) {
    if (!unverifiable && IsStoreFile(name) && keep.count(name) == 0) {
      store->io_->Remove(store->PathFor(name));
    }
  }

  // Epochs count monotonically past everything ever seen in the directory,
  // so a GC'd (corrupt or stale) epoch number is never reused even if its
  // removal failed.
  store->next_epoch_ =
      1 + std::max<int64_t>(epochs.empty() ? 0 : epochs.front(),
                            store->committed_.has_value()
                                ? store->committed_->epoch
                                : 0);
  return store;
}

Result<Block> DurableCheckpointStore::ReadBlock(const DurableBlock& ref) const {
  const std::string context = "checkpoint block " + ref.file;
  auto data = io_->ReadFile(PathFor(ref.file));
  if (!data.ok()) {
    if (data.status().code() == StatusCode::kNotFound) {
      return Status::DataLoss(context + ": missing block file");
    }
    return data.status();
  }
  DMAC_ASSIGN_OR_RETURN(Block block, DeserializeBlock(*data, context));
  if (BlockChecksum(block) != ref.checksum) {
    return Status::DataLoss(context + ": does not match manifest checksum");
  }
  return block;
}

Status DurableCheckpointStore::Commit(
    int resume_step, int64_t checkpoint_counter,
    const std::vector<std::pair<std::string, double>>& scalars,
    const std::vector<int>& reload_nodes,
    const std::vector<PendingDurableBlock>& blocks) {
  DurableSnapshot snap;
  snap.epoch = next_epoch_;
  snap.resume_step = resume_step;
  snap.checkpoint_counter = checkpoint_counter;
  for (const auto& [name, value] : scalars) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    snap.scalars.emplace_back(name, bits);
  }
  snap.reload_nodes = reload_nodes;

  // Files of the committed epoch that may be referenced again: keyed by the
  // cluster position and checksum they were written for, and only when
  // their bytes are known to hash to that checksum. A file written from a
  // payload that disagreed with its recorded checksum is never reused, so
  // the next epoch rewrites (and heals) it.
  using Position = std::tuple<int, int, int64_t, uint64_t>;
  std::map<Position, const std::string*> reusable;
  if (committed_.has_value()) {
    for (const DurableBlock& b : committed_->blocks) {
      const auto it = content_checksum_.find(b.file);
      if (it != content_checksum_.end() && it->second == b.checksum) {
        reusable.emplace(Position{b.node_id, b.worker, b.key, b.checksum},
                         &b.file);
      }
    }
  }

  // Write the changed (payload-deduplicated) block files first, then the
  // manifest: its atomic rename is the commit point. On any failure, roll
  // back the files this epoch wrote — never a reused one. When the failure
  // is an injected crash the Remove calls are no-ops (a dead process cleans
  // nothing up) and the debris is left for the next Open's GC, exactly like
  // a real crash.
  std::vector<std::string> written;
  const auto rollback = [this, &written]() {
    for (const std::string& name : written) io_->Remove(PathFor(name));
  };
  std::unordered_map<const Block*, std::string> file_of;
  std::unordered_map<std::string, uint64_t> content_checksum;
  int64_t pending_bytes = 0;
  int seq = 0;
  for (const PendingDurableBlock& pb : blocks) {
    auto [it, inserted] = file_of.try_emplace(pb.block.get());
    if (inserted) {
      // A reused file is claimed by one payload only, so the manifest
      // groups positions into files exactly as a full rewrite would.
      const auto reuse =
          reusable.find(Position{pb.node_id, pb.worker, pb.key, pb.checksum});
      if (reuse != reusable.end() &&
          content_checksum.try_emplace(*reuse->second, pb.checksum).second) {
        it->second = *reuse->second;
      } else {
        it->second = "blk-" + std::to_string(snap.epoch) + "-" +
                     std::to_string(seq++) + ".bin";
        uint64_t sum = kNoChecksum;
        const std::string data = SerializeBlock(*pb.block, &sum);
        const Status st = io_->WriteFileAtomic(PathFor(it->second), data);
        if (!st.ok()) {
          rollback();
          return st;
        }
        written.push_back(it->second);
        content_checksum.emplace(it->second, sum);
        pending_bytes += static_cast<int64_t>(data.size());
      }
    }
    snap.blocks.push_back(
        DurableBlock{pb.node_id, pb.worker, pb.key, pb.checksum, it->second});
  }
  const std::string manifest = BuildManifest(snap);
  const Status st = io_->WriteFileAtomic(
      PathFor(kManifestPrefix + std::to_string(snap.epoch)), manifest);
  if (!st.ok()) {
    rollback();
    return st;
  }
  pending_bytes += static_cast<int64_t>(manifest.size());

  // Committed: the previous manifest, and every previous block file the new
  // manifest no longer references, are now garbage.
  if (committed_.has_value()) {
    io_->Remove(PathFor(kManifestPrefix + std::to_string(committed_->epoch)));
    for (const auto& [name, sum] : content_checksum_) {
      if (content_checksum.count(name) == 0) io_->Remove(PathFor(name));
    }
  }
  committed_ = std::move(snap);
  content_checksum_ = std::move(content_checksum);
  next_epoch_ = committed_->epoch + 1;
  bytes_written_ += pending_bytes;
  ++epochs_committed_;
  return Status::Ok();
}

}  // namespace dmac
