// Deterministic file contents. Byte p of a file written under `key` is a
// pure function of (key, p), so the bytes expected at any file, offset and
// generation can be regenerated from the model alone: writers fill with
// fill(), readers compare with matches().
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perfbench {

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A content key for (a, b, c): file slot, generation, workload seed, ...
inline std::uint64_t content_key(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) {
  return mix64(a ^ mix64(b ^ mix64(c)));
}

/// Fill `out` with the bytes at file offsets [off, off + out.size()).
inline void fill(std::span<std::byte> out, std::uint64_t key,
                 std::uint64_t off) {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t p = off + i;
    const std::uint64_t word = mix64(key ^ ((p >> 3) * 0xd6e8feb86659fd93ULL));
    const std::size_t skip = p & 7;
    const std::size_t n = std::min<std::size_t>(8 - skip, out.size() - i);
    std::memcpy(out.data() + i,
                reinterpret_cast<const std::byte*>(&word) + skip, n);
    i += n;
  }
}

/// Whether `got` holds exactly the bytes at [off, off + got.size()).
/// `scratch` is reused between calls to avoid an allocation per read.
inline bool matches(std::span<const std::byte> got, std::uint64_t key,
                    std::uint64_t off, std::vector<std::byte>& scratch) {
  scratch.resize(got.size());
  fill(scratch, key, off);
  return std::memcmp(scratch.data(), got.data(), got.size()) == 0;
}

}  // namespace perfbench
