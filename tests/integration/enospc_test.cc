// Fill a file system to ENOSPC through the syscall layer and check the
// block allocator at its boundaries: every data block is handed out
// exactly once, the next allocation fails with ENOSPC, and a block freed
// from the middle of a full bitmap word is the next one handed out. The
// devices are sized so the data region starts and ends mid-word.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "../testutil.h"
#include "ext4/layout.h"
#include "xv6fs/fsck.h"

namespace bsim::test {
namespace {

using kern::Err;

/// Where a deployment's data blocks and inodes live on the raw device.
struct RawLayout {
  std::uint64_t bitmap_block = 0;  // the one block bitmap
  std::uint64_t data_first = 0;    // data region [data_first, data_end)
  std::uint64_t data_end = 0;
  std::uint64_t bit_base = 0;      // bitmap bit i stands for bit_base + i
};

template <class T>
T read_raw(blk::BlockDevice& dev, std::uint64_t blockno, std::size_t off = 0) {
  std::array<std::byte, blk::kBlockSize> buf{};
  dev.read_untimed(blockno, buf);
  T out;
  std::memcpy(&out, buf.data() + off, sizeof(T));
  return out;
}

class EnospcTest : public ::testing::TestWithParam<const char*> {
 protected:
  bool is_ext4() const { return std::string_view(GetParam()) == "ext4j"; }

  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    if (is_ext4()) {
      // One partial group after the 4096-block journal: data starts 66
      // bits into the group's bitmap and ends at bit 1901.
      params.nblocks = 6000;
      dev_ = &kernel_.add_device("ssd0", params);
      ext4::mkfs(*dev_, /*inodes_per_group=*/2048);
      const auto s = read_raw<ext4::Super>(*dev_, 1);
      const auto gd = read_raw<ext4::GroupDesc>(*dev_, s.gdt_start);
      layout_ = {gd.block_bitmap, gd.data_start,
                 gd.data_start + gd.data_blocks, s.first_group};
    } else {
      // Data region [356, 1900): bit 356 % 64 = 36 to bit 1900 % 64 = 44.
      params.nblocks = 1900;
      dev_ = &kernel_.add_device("ssd0", params);
      const xv6::DiskSuperblock sb = xv6::mkfs(*dev_, /*ninodes=*/2048);
      layout_ = {sb.bmapstart, sb.datastart, sb.size, 0};
    }
    ASSERT_NE(layout_.data_first % 64, 0u);
    ASSERT_NE(layout_.data_end % 64, 0u);
    register_all_xv6(kernel_);
    mount();
  }

  void mount() { ASSERT_EQ(Err::Ok, kernel_.mount(GetParam(), "ssd0", "/mnt")); }
  void umount() { ASSERT_EQ(Err::Ok, kernel_.umount("/mnt")); }

  kern::Process& proc() { return kernel_.proc(); }

  std::uint64_t free_blocks() {
    auto st = kernel_.statfs(proc(), "/mnt");
    EXPECT_TRUE(st.ok());
    return st.ok() ? st.value().free_blocks : 0;
  }

  static std::string path(std::size_t i) {
    return "/mnt/f" + std::to_string(i);
  }

  /// Write one block of data to an empty file and fsync it, which makes
  /// the file system allocate exactly one data block.
  Err fill_one(std::size_t i) {
    auto fd = kernel_.open(proc(), path(i), kern::kORdWr);
    if (!fd.ok()) return fd.error();
    std::vector<std::byte> block(blk::kBlockSize,
                                 static_cast<std::byte>(i * 7 + 1));
    auto w = kernel_.write(proc(), fd.value(), block);
    Err e = w.ok() ? kernel_.fsync(proc(), fd.value()) : w.error();
    (void)kernel_.close(proc(), fd.value());
    if (e != Err::Ok) {
      // Drop the page that could not be written back.
      EXPECT_EQ(Err::Ok, kernel_.truncate(proc(), path(i), 0));
    }
    return e;
  }

  /// First data block of file `i`, read from the raw (unmounted) image.
  std::uint64_t first_block(std::size_t i, std::uint64_t ino) {
    if (is_ext4()) {
      const auto s = read_raw<ext4::Super>(*dev_, 1);
      const auto gd = read_raw<ext4::GroupDesc>(*dev_, s.gdt_start);
      const auto within = static_cast<std::uint32_t>(ino % s.inodes_per_group);
      const auto d = read_raw<ext4::Dinode>(
          *dev_, gd.inode_table + within / ext4::kInodesPerBlock,
          (within % ext4::kInodesPerBlock) * sizeof(ext4::Dinode));
      EXPECT_EQ(d.size, blk::kBlockSize) << path(i);
      return d.addrs[0];
    }
    const xv6::DiskSuperblock sb = xv6::read_superblock(*dev_);
    const auto inum = static_cast<std::uint32_t>(ino);
    const auto d = read_raw<xv6::Dinode>(
        *dev_, sb.inode_block(inum),
        (inum % xv6::kInodesPerBlock) * sizeof(xv6::Dinode));
    EXPECT_EQ(d.size, blk::kBlockSize) << path(i);
    return d.addrs[0];
  }

  bool data_bit_set(std::uint64_t blockno) {
    const auto bits = read_raw<std::array<std::byte, blk::kBlockSize>>(
        *dev_, layout_.bitmap_block);
    const std::uint64_t i = blockno - layout_.bit_base;
    return (bits[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0};
  }

  void expect_fsck_clean() {
    if (is_ext4()) return;  // xv6::fsck reads the xv6 format only
    const xv6::FsckReport r = xv6::fsck(*dev_);
    EXPECT_TRUE(r.ok) << r.summary();
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  blk::BlockDevice* dev_ = nullptr;
  RawLayout layout_;
};

INSTANTIATE_TEST_SUITE_P(Deployments, EnospcTest,
                         ::testing::Values("xv6_bento", "xv6_vfs", "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(EnospcTest, FillToEnospcThenReuseAFreedMidWordBlock) {
  // More empty files than data blocks, so the fill below allocates data
  // blocks only (the directory and inode table stop changing).
  const std::size_t nfiles = free_blocks() + 8;
  std::vector<std::uint64_t> inos(nfiles);
  for (std::size_t i = 0; i < nfiles; ++i) {
    auto fd = kernel_.open(proc(), path(i), kern::kOCreat | kern::kORdWr);
    ASSERT_TRUE(fd.ok()) << path(i);
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    auto st = kernel_.stat(proc(), path(i));
    ASSERT_TRUE(st.ok());
    inos[i] = st.value().ino;
  }

  // Fill: one block per file until the allocator runs dry. Each success
  // takes exactly one block; the first failure is ENOSPC, exactly when
  // no block is left.
  const std::uint64_t to_fill = free_blocks();
  ASSERT_GT(to_fill, 0u);
  std::size_t filled = 0;
  for (; filled < nfiles; ++filled) {
    const std::uint64_t before = free_blocks();
    const Err e = fill_one(filled);
    if (before == 0) {
      ASSERT_EQ(Err::NoSpc, e) << path(filled);
      break;
    }
    ASSERT_EQ(Err::Ok, e) << path(filled);
    ASSERT_EQ(free_blocks(), before - 1) << path(filled);
  }
  ASSERT_EQ(filled, to_fill);
  const std::size_t empty = filled;  // the file that hit ENOSPC
  EXPECT_EQ(Err::NoSpc, fill_one(empty)) << "still full";
  EXPECT_EQ(free_blocks(), 0u);

  // Every data block was handed out exactly once: the filled files hold
  // distinct blocks inside the data region, and the bitmap is full there.
  umount();
  expect_fsck_clean();
  std::set<std::uint64_t> handed_out;
  for (std::size_t i = 0; i < filled; ++i) {
    const std::uint64_t b = first_block(i, inos[i]);
    EXPECT_GE(b, layout_.data_first) << path(i);
    EXPECT_LT(b, layout_.data_end) << path(i);
    EXPECT_TRUE(handed_out.insert(b).second) << "block " << b << " twice";
  }
  for (std::uint64_t b = layout_.data_first; b < layout_.data_end; ++b) {
    ASSERT_TRUE(data_bit_set(b)) << "block " << b << " still free";
  }

  // Free one block from the middle of a full 64-bit bitmap word; the next
  // allocation must return exactly that block.
  std::size_t victim = filled;
  std::uint64_t victim_block = 0;
  for (std::size_t i = 0; i < filled; ++i) {
    const std::uint64_t b = first_block(i, inos[i]);
    const std::uint64_t bit = b - layout_.bit_base;
    const std::uint64_t word_first = layout_.bit_base + bit / 64 * 64;
    if (bit % 64 == 29 && word_first >= layout_.data_first &&
        word_first + 64 <= layout_.data_end) {
      victim = i;
      victim_block = b;
      break;
    }
  }
  ASSERT_LT(victim, filled) << "no block in the middle of a full word";
  mount();
  ASSERT_EQ(Err::Ok, kernel_.truncate(proc(), path(victim), 0));
  EXPECT_EQ(free_blocks(), 1u);
  ASSERT_EQ(Err::Ok, fill_one(empty));
  EXPECT_EQ(free_blocks(), 0u);
  EXPECT_EQ(Err::NoSpc, fill_one(empty + 1));
  umount();
  EXPECT_EQ(first_block(empty, inos[empty]), victim_block);
  EXPECT_TRUE(data_bit_set(victim_block));
  expect_fsck_clean();
  mount();  // the kernel unmounts on destruction
}

}  // namespace
}  // namespace bsim::test
