// Block payload checksums for corruption detection (docs/fault_tolerance.md).
//
// The partition stores attach a 64-bit hash to every block they hold so
// that silent payload corruption (injected by the fault framework, or on a
// real cluster a flipped bit on disk or the wire) is *detected* rather than
// computed through. The hash covers the storage kind, the dimensions, and
// every payload array, so dense/sparse re-encodings of the same values hash
// differently — a block must round-trip bit-identically to verify.
//
// Payload arrays are hashed word-parallel: 8-byte words in four independent
// lanes, every step a bijection in both the lane state and the word. Any
// change confined to one word — every single-bit flip — therefore changes
// the checksum; this is a guarantee, not a probability. Serialized blocks
// and checkpoint manifests record these values, so changing the hash is an
// on-disk format change (fault/durable_io.h, fault/durable_checkpoint.h).
#pragma once

#include <cstdint>

#include "matrix/block.h"

namespace dmac {

/// The "never stamped" checksum marker (the partition stores, the durable
/// store). A real block hashes to it only with probability 2^-64.
inline constexpr uint64_t kNoChecksum = 0;

/// 64-bit FNV-1a over `len` bytes, continuing from `seed` (0 starts from
/// the FNV offset basis). Byte-serial and slow; used for the small
/// checkpoint manifest footer, not for block payloads.
uint64_t Fnv1a(const void* data, size_t len, uint64_t seed);

/// Checksum of a block: kind tag, dimensions, and payload arrays.
uint64_t BlockChecksum(const Block& block);

}  // namespace dmac
