#include "fault/checksum.h"

#include <algorithm>
#include <cstring>

namespace dmac {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// Odd multipliers (the xxHash64 primes), so every multiply is invertible.
constexpr uint64_t kMulA = 0x9e3779b185ebca87ULL;
constexpr uint64_t kMulB = 0xc2b2ae3d27d4eb4fULL;

/// One mixing step. For a fixed `acc` it is a bijection of `word` and for
/// a fixed `word` a bijection of `acc`: add, odd multiply and rotate are
/// all invertible mod 2^64.
uint64_t Mix(uint64_t acc, uint64_t word) {
  acc += word * kMulB;
  acc = (acc << 31) | (acc >> 33);
  return acc * kMulA;
}

/// Hashes `len` bytes as 8-byte words in four independent lanes (word i
/// feeds lane i % 4), zero-padding the final partial word. The lanes carry
/// no dependency on each other, so the loop runs at multiply throughput
/// rather than latency. Every step being a bijection in both arguments
/// means a change confined to one word changes exactly one lane and hence
/// the result.
uint64_t WordHash(const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t lane[4] = {kMulA, kMulB, ~kMulA, ~kMulB};
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    for (size_t l = 0; l < 4; ++l) {
      uint64_t word;
      std::memcpy(&word, bytes + i + 8 * l, sizeof(word));
      lane[l] = Mix(lane[l], word);
    }
  }
  for (size_t l = 0; i < len; i += 8, ++l) {
    uint64_t word = 0;
    std::memcpy(&word, bytes + i, std::min<size_t>(sizeof(word), len - i));
    lane[l] = Mix(lane[l], word);
  }
  uint64_t h = len;
  for (const uint64_t v : lane) h = Mix(h, v);
  return h;
}

}  // namespace

uint64_t Fnv1a(const void* data, size_t len, uint64_t seed) {
  uint64_t h = seed == 0 ? kFnvOffset : seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t BlockChecksum(const Block& block) {
  uint64_t h = kFnvOffset;
  const auto add_array = [&h](const void* data, size_t len) {
    h = Mix(h, WordHash(data, len));
  };
  h = Mix(h, block.IsDense() ? 1 : 2);
  h = Mix(h, static_cast<uint64_t>(block.rows()));
  h = Mix(h, static_cast<uint64_t>(block.cols()));
  if (block.IsDense()) {
    const DenseBlock& d = block.dense();
    add_array(d.data(),
              sizeof(Scalar) * static_cast<size_t>(d.rows() * d.cols()));
  } else {
    const CscBlock& s = block.sparse();
    add_array(s.col_ptr().data(), sizeof(int32_t) * s.col_ptr().size());
    add_array(s.row_idx().data(), sizeof(int32_t) * s.row_idx().size());
    add_array(s.values().data(), sizeof(Scalar) * s.values().size());
  }
  return h;
}

}  // namespace dmac
