// Free-bit search over an on-disk allocation bitmap (Linux's
// find_next_zero_bit). Every allocator in the tree stores bit i of a
// bitmap block at byte i / 8, bit i % 8 (LSB first); these helpers are
// the one scan they share.
//
// The search is host-side only: it examines 64 bits per step, skipping
// all-ones words, and returns exactly the bit a bit-by-bit loop over
// [begin, end) would. Callers charge the modelled scan cost themselves,
// per bitmap block, so virtual time does not depend on how the host
// walks the words.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

namespace bsim::kern {

/// Index of the first clear bit in [begin, end) of `bits`, or `end` when
/// every bit in the range is set. Bits at or past `end` are never
/// returned, whatever their value.
inline std::size_t find_next_zero_bit(std::span<const std::byte> bits,
                                      std::size_t begin, std::size_t end) {
  assert(end <= bits.size() * 8);
  std::size_t i = begin;
  while (i < end) {
    // Assemble the 64-bit word holding bit i little-endian, so word bit k
    // is bitmap bit 64 * (i / 64) + k. A short tail reads as zero bits,
    // which lie past `end` and are clipped below.
    const std::size_t first_byte = i / 64 * 8;
    const std::size_t nbytes =
        std::min<std::size_t>(8, bits.size() - first_byte);
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < nbytes; ++k) {
      word |= static_cast<std::uint64_t>(bits[first_byte + k]) << (8 * k);
    }
    const unsigned shift = i % 64;
    const unsigned ones = std::countr_one(word >> shift);
    if (ones < 64 - shift) return std::min(i + ones, end);
    i += 64 - shift;
  }
  return end;
}

/// The allocating form of find_next_zero_bit, for a caller that sets the
/// bit it gets back. `floor` is a host-side lower bound kept per bitmap:
/// every bit in [begin, floor) is set. The search starts at the floor,
/// which then moves past the returned bit (to `end` when none is clear).
/// A caller that clears a bit must lower the floor to it; the result is
/// then always the bit a search from `begin` returns.
inline std::size_t alloc_zero_bit(std::span<const std::byte> bits,
                                  std::size_t begin, std::size_t end,
                                  std::uint32_t& floor) {
  const std::size_t i =
      find_next_zero_bit(bits, std::max<std::size_t>(begin, floor), end);
  floor = static_cast<std::uint32_t>(i < end ? i + 1 : end);
  return i;
}

}  // namespace bsim::kern
