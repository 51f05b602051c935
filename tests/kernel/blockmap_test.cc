// The shared block tree (kern::BlockMap) under the two kernel file
// systems that map through it, ext4j and xv6_vfs: a scripted sequence
// reaches every part of the tree (allocation in all three tiers,
// readahead through map_run, single-page readpage, an unaligned truncate
// that zeroes a block tail, a directory that spans several blocks, and
// unlink), and its virtual time and ext4j's MapStats are pinned, so any
// change in the order of buffer-cache calls, journal hooks or charges
// shows up here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"

namespace bsim::test {
namespace {

using kern::Err;

class BlockMapTest : public ::testing::TestWithParam<const char*> {
 protected:
  bool is_ext4() const { return std::string_view(GetParam()) == "ext4j"; }

  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 16384;
    auto& dev = kernel_.add_device("ssd0", params);
    if (is_ext4()) {
      ext4::mkfs(dev, /*inodes_per_group=*/1024);
    } else {
      xv6::mkfs(dev, /*ninodes=*/1024);
    }
    register_all_xv6(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  }

  void remount() {
    ASSERT_EQ(Err::Ok, kernel_.umount("/mnt"));
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt"));
  }

  kern::Process& proc() { return kernel_.proc(); }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
};

INSTANTIATE_TEST_SUITE_P(KernelFileSystems, BlockMapTest,
                         ::testing::Values("xv6_vfs", "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(BlockMapTest, ScriptedTreeWorkloadTakesAFixedVirtualTime) {
  constexpr std::uint64_t kB = 4096;
  // 1076 blocks: past 12 direct + 1024 single-indirect slots, so both
  // file systems allocate into the double-indirect tier.
  constexpr std::uint64_t kFileBlocks = 1076;
  const auto pattern = [](std::uint64_t off) {
    return static_cast<std::byte>(1 + off % 251);
  };
  const sim::Nanos start = thread_.now();

  // Allocation in all three tiers, 64 KiB at a time.
  {
    std::vector<std::byte> chunk(64 * 1024);
    auto fd = kernel_.open(proc(), "/mnt/big", kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    for (std::uint64_t off = 0; off < kFileBlocks * kB; off += chunk.size()) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk.size(), kFileBlocks * kB - off));
      for (std::size_t i = 0; i < n; ++i) chunk[i] = pattern(off + i);
      ASSERT_TRUE(kernel_.write(proc(), fd.value(), {chunk.data(), n}).ok());
    }
    ASSERT_EQ(Err::Ok, kernel_.fsync(proc(), fd.value()));
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  remount();

  // Single-page reads at scattered offsets (one per tier), then a
  // sequential scan of the whole file (readahead).
  {
    auto fd = kernel_.open(proc(), "/mnt/big", kern::kORdOnly);
    ASSERT_TRUE(fd.ok());
    std::vector<std::byte> page(kB);
    for (const std::uint64_t bn : {5ULL, 700ULL, 1070ULL, 3ULL}) {
      auto r = kernel_.pread(proc(), fd.value(), page, bn * kB);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value(), kB);
      EXPECT_EQ(page[17], pattern(bn * kB + 17));
    }
    std::vector<std::byte> buf(32 * 1024);
    for (std::uint64_t off = 0; off < kFileBlocks * kB; off += buf.size()) {
      auto r = kernel_.pread(proc(), fd.value(), buf, off);
      ASSERT_TRUE(r.ok());
      ASSERT_GT(r.value(), 0u);
      EXPECT_EQ(buf[r.value() - 1], pattern(off + r.value() - 1));
    }
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }

  // Unaligned truncate into the single-indirect range (zeroes the kept
  // block's tail), grow again and read across the cut.
  {
    const std::uint64_t cut = 500 * kB + 777;
    ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), "/mnt/big", cut));
    ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), "/mnt/big", cut + 3 * kB));
    auto fd = kernel_.open(proc(), "/mnt/big", kern::kORdOnly);
    ASSERT_TRUE(fd.ok());
    std::vector<std::byte> buf(2 * kB);
    auto r = kernel_.pread(proc(), fd.value(), buf, cut - kB);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(buf[kB - 1], pattern(cut - 1));
    EXPECT_EQ(buf[kB], std::byte{0});
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }

  // A directory of 300 entries spans three blocks.
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/d"));
  for (int i = 0; i < 300; ++i) {
    auto fd = kernel_.open(proc(), "/mnt/d/e" + std::to_string(i),
                           kern::kOCreat | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }
  auto ls = kernel_.readdir(proc(), "/mnt/d");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls.value().size(), 302u);  // with "." and ".."

  // Unlink frees every tier of the big file and empties directory slots.
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/big"));
  for (int i = 0; i < 300; i += 3) {
    ASSERT_EQ(Err::Ok,
              kernel_.unlink(proc(), "/mnt/d/e" + std::to_string(i)));
  }
  ls = kernel_.readdir(proc(), "/mnt/d");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls.value().size(), 202u);
  ASSERT_EQ(Err::Ok, kernel_.sync(proc()));
  const sim::Nanos elapsed = thread_.now() - start;

  // Pinned: the tree code may move or change shape, but not these.
  EXPECT_EQ(elapsed, is_ext4() ? 53'065'894 : 61'788'869) << GetParam();
  if (is_ext4()) {
    const auto* m =
        static_cast<const ext4::Ext4Mount*>(kernel_.sb_at("/mnt")->fs_info);
    const ext4::MapStats ms = m->map_stats();
    EXPECT_EQ(ms.bmap_calls, 1090u);
    EXPECT_EQ(ms.map_runs, 34u);
    EXPECT_EQ(ms.map_run_blocks, 1072u);
    EXPECT_EQ(ms.map_indirect_reads, 35u);
    EXPECT_EQ(ms.readpages_calls, 34u);
  }
}

}  // namespace
}  // namespace bsim::test
