// Unit tests for the buffer cache: caching, refcounts, writeback, LRU
// eviction, and the sync paths the journal depends on.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <vector>

#include "kernel/buffer_cache.h"
#include "sim/thread.h"

namespace bsim::kern {
namespace {

class BufferCacheTest : public ::testing::Test {
 protected:
  BufferCacheTest() : dev_(params()) {}

  static blk::DeviceParams params() {
    blk::DeviceParams p;
    p.nblocks = 256;
    return p;
  }

  void SetUp() override { sim::set_current(&thread_); }
  void TearDown() override { sim::set_current(nullptr); }

  sim::SimThread thread_{0};
  blk::BlockDevice dev_;
};

TEST_F(BufferCacheTest, MissThenHit) {
  BufferCache cache(dev_, 16);
  auto a = cache.bread(5);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.brelse(a.value());
  auto b = cache.bread(5);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(a.value(), b.value());  // same buffer
  cache.brelse(b.value());
}

TEST_F(BufferCacheTest, ReadsDeviceContent) {
  std::array<std::byte, blk::kBlockSize> w{};
  w[0] = std::byte{0xAB};
  dev_.write_untimed(9, w);
  BufferCache cache(dev_, 16);
  auto bh = cache.bread(9);
  ASSERT_TRUE(bh.ok());
  EXPECT_EQ(bh.value()->bytes()[0], std::byte{0xAB});
  cache.brelse(bh.value());
}

TEST_F(BufferCacheTest, GetblkDoesNotReadDevice) {
  BufferCache cache(dev_, 16);
  const auto reads_before = dev_.stats().reads;
  auto bh = cache.getblk(3);
  ASSERT_TRUE(bh.ok());
  EXPECT_EQ(dev_.stats().reads, reads_before);
  cache.brelse(bh.value());
}

TEST_F(BufferCacheTest, SyncDirtyBufferWritesThrough) {
  BufferCache cache(dev_, 16);
  auto bh = cache.bread(4);
  ASSERT_TRUE(bh.ok());
  bh.value()->bytes()[0] = std::byte{0x5C};
  cache.mark_dirty(bh.value());
  cache.sync_dirty_buffer(bh.value());
  EXPECT_FALSE(bh.value()->dirty);
  cache.brelse(bh.value());

  std::array<std::byte, blk::kBlockSize> r{};
  dev_.read_untimed(4, r);
  EXPECT_EQ(r[0], std::byte{0x5C});
}

TEST_F(BufferCacheTest, DirtyBlockStaysInCacheUntilSync) {
  // The property journaling depends on: modifying a cached block must not
  // reach the device until explicitly written.
  BufferCache cache(dev_, 16);
  auto bh = cache.bread(4);
  ASSERT_TRUE(bh.ok());
  bh.value()->bytes()[0] = std::byte{0x77};
  cache.mark_dirty(bh.value());
  std::array<std::byte, blk::kBlockSize> r{};
  dev_.read_untimed(4, r);
  EXPECT_EQ(r[0], std::byte{0});  // device still has old content
  cache.sync_dirty_buffer(bh.value());
  cache.brelse(bh.value());
}

TEST_F(BufferCacheTest, SyncAllWritesEveryDirtyBuffer) {
  BufferCache cache(dev_, 16);
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto bh = cache.bread(i);
    ASSERT_TRUE(bh.ok());
    bh.value()->bytes()[0] = std::byte{0x11};
    cache.mark_dirty(bh.value());
    cache.brelse(bh.value());
  }
  cache.sync_all();
  EXPECT_EQ(cache.stats().writebacks, 4u);
}

TEST_F(BufferCacheTest, EvictionWritesDirtyVictims) {
  BufferCache cache(dev_, 4);
  for (std::uint64_t i = 0; i < 8; ++i) {
    auto bh = cache.bread(i);
    ASSERT_TRUE(bh.ok());
    bh.value()->bytes()[0] = std::byte{0x22};
    cache.mark_dirty(bh.value());
    cache.brelse(bh.value());
  }
  EXPECT_LE(cache.cached_blocks(), 5u);  // capacity respected (1 overshoot)
  EXPECT_GT(cache.stats().evictions, 0u);
  // Dirty victims were written, not dropped.
  std::array<std::byte, blk::kBlockSize> r{};
  dev_.read_untimed(0, r);
  EXPECT_EQ(r[0], std::byte{0x22});
}

TEST_F(BufferCacheTest, ReferencedBuffersAreNotEvicted) {
  BufferCache cache(dev_, 2);
  auto pinned = cache.bread(0);
  ASSERT_TRUE(pinned.ok());
  for (std::uint64_t i = 1; i < 6; ++i) {
    auto bh = cache.bread(i);
    ASSERT_TRUE(bh.ok());
    cache.brelse(bh.value());
  }
  // Block 0 must still be present (refcount held).
  auto again = cache.bread(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), pinned.value());
  cache.brelse(again.value());
  cache.brelse(pinned.value());
}

// ---- exact LRU victim order ----

/// Blocks currently cached (the fixture device has 256 blocks).
std::set<std::uint64_t> resident(const BufferCache& cache) {
  std::set<std::uint64_t> out;
  for (std::uint64_t b = 0; b < 256; ++b) {
    if (cache.cached(b)) out.insert(b);
  }
  return out;
}

/// Miss on `blockno` in a full cache and return the one block it evicted.
std::uint64_t evicted_by_miss(BufferCache& cache, std::uint64_t blockno) {
  const std::set<std::uint64_t> before = resident(cache);
  EXPECT_FALSE(before.contains(blockno));
  auto bh = cache.bread(blockno);
  EXPECT_TRUE(bh.ok());
  if (bh.ok()) cache.brelse(bh.value());
  const std::set<std::uint64_t> after = resident(cache);
  std::vector<std::uint64_t> gone;
  for (const std::uint64_t b : before) {
    if (!after.contains(b)) gone.push_back(b);
  }
  EXPECT_EQ(gone.size(), 1u) << "miss on " << blockno;
  return gone.empty() ? ~std::uint64_t{0} : gone.front();
}

void touch(BufferCache& cache, std::uint64_t blockno) {
  auto bh = cache.bread(blockno);
  ASSERT_TRUE(bh.ok());
  cache.brelse(bh.value());
}

TEST_F(BufferCacheTest, HitRefreshesRecency) {
  BufferCache cache(dev_, 4);
  for (std::uint64_t b = 0; b < 4; ++b) touch(cache, b);
  touch(cache, 0);  // hit: 0 becomes most recent; LRU order is now 1 2 3 0
  EXPECT_EQ(cache.stats().hits, 1u);
  std::vector<std::uint64_t> victims;
  for (std::uint64_t b = 10; b < 14; ++b) {
    victims.push_back(evicted_by_miss(cache, b));
  }
  EXPECT_EQ(victims, (std::vector<std::uint64_t>{1, 2, 3, 0}));
  EXPECT_EQ(cache.stats().evictions, 4u);
}

TEST_F(BufferCacheTest, EvictionSkipsReferencedAndJournalPinnedBuffers) {
  BufferCache cache(dev_, 4);
  auto held = cache.bread(0);  // referenced for the first rounds
  ASSERT_TRUE(held.ok());
  auto pinned = cache.bread(1);
  ASSERT_TRUE(pinned.ok());
  pinned.value()->bytes()[0] = std::byte{0x6A};
  cache.mark_dirty(pinned.value());
  cache.brelse(pinned.value());
  cache.pin_journal(1, true);  // jdirty: owned by a running transaction
  touch(cache, 2);
  touch(cache, 3);

  // LRU order 0 1 2 3: 0 is referenced and 1 journal-pinned, so the
  // victims are the oldest of the rest, in order.
  std::vector<std::uint64_t> victims;
  for (std::uint64_t b = 10; b < 13; ++b) {
    victims.push_back(evicted_by_miss(cache, b));
  }
  EXPECT_EQ(victims, (std::vector<std::uint64_t>{2, 3, 10}));

  // Released and unpinned, 0 and 1 are again the two oldest; the dirty one
  // is written back on its way out.
  cache.brelse(held.value());
  cache.pin_journal(1, false);
  const auto writebacks = cache.stats().writebacks;
  EXPECT_EQ(evicted_by_miss(cache, 20), 0u);
  EXPECT_EQ(evicted_by_miss(cache, 21), 1u);
  EXPECT_EQ(cache.stats().writebacks, writebacks + 1);
  std::array<std::byte, blk::kBlockSize> r{};
  dev_.read_untimed(1, r);
  EXPECT_EQ(r[0], std::byte{0x6A});
}

TEST_F(BufferCacheTest, SurvivorsOfInvalidateEvictInLruOrder) {
  BufferCache cache(dev_, 6);
  for (std::uint64_t b = 0; b < 6; ++b) touch(cache, b);
  for (const std::uint64_t b : {1, 3}) {
    auto bh = cache.bread(b);
    ASSERT_TRUE(bh.ok());
    cache.mark_dirty(bh.value());
    cache.brelse(bh.value());
  }
  auto held = cache.bread(4);
  ASSERT_TRUE(held.ok());
  touch(cache, 1);  // LRU order: 0 2 5 3 4 1

  // Clean, unreferenced 0, 2 and 5 go; dirty 3 and 1 and referenced 4 stay.
  cache.invalidate();
  EXPECT_EQ(resident(cache), (std::set<std::uint64_t>{1, 3, 4}));

  for (std::uint64_t b = 10; b < 13; ++b) touch(cache, b);  // refill to 6
  ASSERT_EQ(cache.cached_blocks(), 6u);
  std::vector<std::uint64_t> victims;
  for (std::uint64_t b = 20; b < 23; ++b) {
    victims.push_back(evicted_by_miss(cache, b));
  }
  // Survivors keep their relative order (3 before 1); referenced 4 stays.
  EXPECT_EQ(victims, (std::vector<std::uint64_t>{3, 1, 10}));
  EXPECT_TRUE(cache.cached(4));
  cache.brelse(held.value());
}

TEST_F(BufferCacheTest, OutstandingRefsTracked) {
  BufferCache cache(dev_, 16);
  EXPECT_EQ(cache.outstanding_refs(), 0u);
  auto a = cache.bread(1);
  auto b = cache.bread(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.outstanding_refs(), 2u);
  cache.brelse(a.value());
  cache.brelse(b.value());
  EXPECT_EQ(cache.outstanding_refs(), 0u);
}

TEST_F(BufferCacheTest, BreadAfterGetblkKeepsOverwrittenContent) {
  // Regression: block 9 has stale content on the device; getblk + full
  // overwrite + a later bread must see the new content, not re-read the
  // device. (This bug corrupted reallocated indirect blocks under the
  // fileserver workload.)
  std::array<std::byte, blk::kBlockSize> stale{};
  stale.fill(std::byte{0x66});
  dev_.write_untimed(9, stale);

  BufferCache cache(dev_, 16);
  auto nb = cache.getblk(9);
  ASSERT_TRUE(nb.ok());
  std::memset(nb.value()->bytes().data(), 0, blk::kBlockSize);
  cache.mark_dirty(nb.value());
  cache.brelse(nb.value());

  auto rb = cache.bread(9);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.value()->bytes()[0], std::byte{0});  // not 0x66
  cache.brelse(rb.value());
}

TEST_F(BufferCacheTest, BreadBeyondDeviceFails) {
  BufferCache cache(dev_, 16);
  auto r = cache.bread(10'000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::Io);
}

TEST_F(BufferCacheTest, BreadPastTheEndFailsAtEveryDistance) {
  // The index is sized by the blocks read so far; a block number past the
  // device must fail before it could grow it.
  BufferCache cache(dev_, 16);
  auto last = cache.bread(255);  // the fixture device's last block
  ASSERT_TRUE(last.ok());
  cache.brelse(last.value());
  for (const std::uint64_t b : {std::uint64_t{256}, std::uint64_t{1} << 40,
                                ~std::uint64_t{0}}) {
    auto r = cache.bread(b);
    ASSERT_FALSE(r.ok()) << b;
    EXPECT_EQ(r.error(), Err::Io) << b;
    auto g = cache.getblk(b);
    ASSERT_FALSE(g.ok()) << b;
    EXPECT_EQ(g.error(), Err::Io) << b;
    EXPECT_FALSE(cache.cached(b)) << b;
  }
  const std::array<std::uint64_t, 2> batch{254, 256};
  auto r = cache.bread_batch(batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::Io);
  EXPECT_EQ(cache.outstanding_refs(), 0u);
  EXPECT_EQ(cache.cached_blocks(), 2u);  // 255, and 254 from the batch
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(BufferCacheTest, CachedBlocksFollowsEvictionAndInvalidate) {
  BufferCache cache(dev_, 4);
  for (std::uint64_t b = 0; b < 4; ++b) touch(cache, b);
  EXPECT_EQ(cache.cached_blocks(), 4u);
  for (std::uint64_t b = 200; b < 206; ++b) touch(cache, b);
  EXPECT_EQ(cache.cached_blocks(), 4u);  // each miss evicted one buffer
  EXPECT_EQ(cache.stats().evictions, 6u);
  EXPECT_EQ(resident(cache), (std::set<std::uint64_t>{202, 203, 204, 205}));

  auto dirty = cache.bread(203);
  ASSERT_TRUE(dirty.ok());
  cache.mark_dirty(dirty.value());
  cache.brelse(dirty.value());
  auto held = cache.bread(205);
  ASSERT_TRUE(held.ok());
  cache.invalidate();  // drops clean, unreferenced 202 and 204
  EXPECT_EQ(cache.cached_blocks(), 2u);
  EXPECT_EQ(resident(cache), (std::set<std::uint64_t>{203, 205}));

  // A dropped block comes back as a miss and is counted again.
  const auto misses = cache.stats().misses;
  touch(cache, 202);
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(cache.cached_blocks(), 3u);
  cache.brelse(held.value());
  cache.sync_all();
  cache.invalidate();
  EXPECT_EQ(cache.cached_blocks(), 0u);
  EXPECT_TRUE(resident(cache).empty());
}

TEST_F(BufferCacheTest, WritebackScansOnlyDirtyBuffers) {
  // The O(dirty) regression for the old full-map walk: syncing a cache
  // holding many CLEAN buffers must examine only the dirty-block index.
  BufferCache cache(dev_, 0);
  std::vector<BufferHead*> held;
  for (std::uint64_t b = 0; b < 200; ++b) {  // 200 clean cached buffers
    auto bh = cache.getblk(b);
    ASSERT_TRUE(bh.ok());
    held.push_back(bh.value());
  }
  for (const std::uint64_t b : {20ULL, 120ULL, 40ULL, 180ULL, 3ULL}) {
    cache.mark_dirty(held[b]);
  }
  ASSERT_EQ(cache.nr_dirty(), 5u);

  cache.sync_all();
  EXPECT_EQ(cache.nr_dirty(), 0u);
  EXPECT_EQ(cache.stats().writebacks, 5u);
  EXPECT_EQ(cache.stats().dirty_scanned, 5u)
      << "writeback must walk the dirty index, not all "
      << cache.cached_blocks() << " cached buffers";
  // Ascending submission: the five scattered blocks arrive as five
  // separate (non-mergeable) requests in one batch.
  EXPECT_EQ(dev_.stats().write_requests, 5u);
  for (auto* bh : held) cache.brelse(bh);
}

TEST_F(BufferCacheTest, InjectedReadErrorSurfacesAsIoError) {
  // A medium error on an unmirrored device must surface to the caller,
  // not silently hand back a zero-filled "cached" buffer.
  BufferCache cache(dev_, 16);
  dev_.inject_read_error(7);
  auto bad = cache.bread(7);
  EXPECT_FALSE(bad.ok());
  auto batch = cache.bread_batch(std::vector<std::uint64_t>{6, 7, 8});
  EXPECT_FALSE(batch.ok());

  // A rewrite repairs the sector; the read then succeeds and the buffer
  // population is consistent (no stale !uptodate entries pinned).
  std::array<std::byte, blk::kBlockSize> data{};
  data.fill(std::byte{0x5C});
  dev_.write(7, data);
  auto good = cache.bread(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value()->bytes()[0], std::byte{0x5C});
  cache.brelse(good.value());
  EXPECT_EQ(cache.outstanding_refs(), 0u);
}

}  // namespace
}  // namespace bsim::kern
