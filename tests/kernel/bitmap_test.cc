// find_next_zero_bit against a bit-by-bit reference: the word-at-a-time
// scan must return exactly the bit the allocators' old per-bit loops did.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "kernel/bitmap.h"

namespace bsim::kern {
namespace {

bool test_bit(const std::vector<std::byte>& bits, std::size_t i) {
  return (bits[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0};
}

void set_bit(std::vector<std::byte>& bits, std::size_t i) {
  bits[i / 8] |= std::byte{1} << (i % 8);
}

void clear_bit(std::vector<std::byte>& bits, std::size_t i) {
  bits[i / 8] &= ~(std::byte{1} << (i % 8));
}

/// The loop every allocator ran before: one bit per iteration.
std::size_t reference(const std::vector<std::byte>& bits, std::size_t begin,
                      std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (!test_bit(bits, i)) return i;
  }
  return end;
}

std::vector<std::byte> all_ones(std::size_t nbytes) {
  return std::vector<std::byte>(nbytes, std::byte{0xFF});
}

struct Case {
  const char* name;
  std::vector<std::byte> bits;
  std::size_t begin;
  std::size_t end;
  std::size_t want;
};

std::vector<Case> edge_cases() {
  std::vector<Case> cases;
  cases.push_back({"empty bitmap, whole range", std::vector<std::byte>(16),
                   0, 128, 0});
  cases.push_back({"empty range", std::vector<std::byte>(16), 70, 70, 70});
  cases.push_back({"all ones", all_ones(4096), 0, 4096 * 8, 4096 * 8});
  cases.push_back({"all ones, unaligned bounds", all_ones(4096), 37,
                   4096 * 8 - 21, 4096 * 8 - 21});
  {
    auto b = all_ones(4096);
    clear_bit(b, 4096 * 8 - 1);
    cases.push_back({"only the last bit free", b, 0, 4096 * 8, 4096 * 8 - 1});
  }
  {
    auto b = all_ones(4096);
    clear_bit(b, 4096 * 8 - 1);
    cases.push_back({"last bit free but past end", b, 0, 4096 * 8 - 1,
                     4096 * 8 - 1});
  }
  {
    // The range ends mid-word; the free bits just past it must not count.
    auto b = all_ones(32);
    for (std::size_t i = 100; i < 256; ++i) clear_bit(b, i);
    cases.push_back({"range ends mid-word before the free run", b, 3, 100,
                     100});
    cases.push_back({"range ends mid-word inside the free run", b, 3, 101,
                     100});
  }
  {
    // Free bits below begin (metadata below datastart) are skipped.
    std::vector<std::byte> b(32);
    for (std::size_t i = 0; i < 36; ++i) set_bit(b, i);
    clear_bit(b, 5);
    cases.push_back({"free bit below begin is skipped", b, 6, 200, 36});
  }
  {
    auto b = all_ones(32);
    clear_bit(b, 64);
    cases.push_back({"first bit of the second word", b, 1, 256, 64});
    cases.push_back({"begin exactly on the free bit", b, 64, 256, 64});
    cases.push_back({"begin one past the free bit", b, 65, 256, 256});
  }
  {
    auto b = all_ones(32);
    clear_bit(b, 63);
    cases.push_back({"last bit of the first word", b, 0, 256, 63});
  }
  {
    // A bitmap whose byte count is not a multiple of 8 (short last word).
    auto b = all_ones(13);
    clear_bit(b, 99);
    cases.push_back({"short tail word", b, 0, 104, 99});
    cases.push_back({"short tail word, all set", all_ones(13), 0, 104, 104});
  }
  return cases;
}

TEST(FindNextZeroBit, EdgeCases) {
  for (const Case& c : edge_cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(reference(c.bits, c.begin, c.end), c.want);
    EXPECT_EQ(find_next_zero_bit(c.bits, c.begin, c.end), c.want);
  }
}

TEST(FindNextZeroBit, MatchesBitByBitLoopOnRandomBitmaps) {
  std::mt19937_64 rng(20210223);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t nbytes = 1 + rng() % 96;
    std::vector<std::byte> bits(nbytes);
    // Mostly-full bitmaps are the allocators' common case; mix in sparse
    // and all-ones ones so every word shape shows up.
    const unsigned density = rng() % 4;
    for (std::size_t i = 0; i < nbytes * 8; ++i) {
      const bool set = density == 0   ? rng() % 2 == 0
                       : density == 1 ? rng() % 64 != 0
                       : density == 2 ? true
                                      : rng() % 1024 != 0;
      if (set) set_bit(bits, i);
    }
    const std::size_t nbits = nbytes * 8;
    std::size_t begin = rng() % (nbits + 1);
    std::size_t end = rng() % (nbits + 1);
    if (begin > end) std::swap(begin, end);
    SCOPED_TRACE(testing::Message() << "round " << round << " nbytes "
                                    << nbytes << " [" << begin << ", "
                                    << end << ")");
    EXPECT_EQ(find_next_zero_bit(bits, begin, end),
              reference(bits, begin, end));
  }
}

}  // namespace
}  // namespace bsim::kern
