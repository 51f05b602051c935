// Allocator churn: a seeded mix of create, append, truncate, unlink, mkdir
// and rmdir that keeps freeing inodes and blocks below the ones handed out
// last. After every step a probe file is created and written, and the
// inode and blocks it got are checked against what a full scan of the
// synced image picks: the lowest free inode, and the lowest clear data
// bits from the start of the (single) bitmap block. The allocators skip
// slots below a host-side floor; this is the test that a free always
// lowers the floor again.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../testutil.h"
#include "ext4/layout.h"
#include "sim/rng.h"

namespace bsim::test {
namespace {

using kern::Err;

/// Free inodes and free data blocks of an image, each in scan order.
struct FreeSlots {
  std::vector<std::uint64_t> inodes;
  std::vector<std::uint64_t> blocks;
};

/// The slots in `before` that are no longer free in `after`.
std::vector<std::uint64_t> taken(const std::vector<std::uint64_t>& before,
                                 const std::vector<std::uint64_t>& after) {
  const std::set<std::uint64_t> still(after.begin(), after.end());
  std::vector<std::uint64_t> out;
  for (const std::uint64_t s : before) {
    if (!still.contains(s)) out.push_back(s);
  }
  return out;
}

struct ChurnCase {
  const char* name;
  const char* fstype;
  int upgrade_at;  // step of an online upgrade, or -1
};

void PrintTo(const ChurnCase& c, std::ostream* os) { *os << c.name; }

class AllocChurnTest : public ::testing::TestWithParam<ChurnCase> {
 protected:
  bool is_ext4() const { return std::string_view(GetParam().fstype) == "ext4j"; }

  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = is_ext4() ? 6000 : 3000;  // one bitmap block / group
    dev_ = &kernel_.add_device("ssd0", params);
    if (is_ext4()) {
      const ext4::Super s = ext4::mkfs(*dev_, /*inodes_per_group=*/256);
      ASSERT_EQ(s.ngroups, 1u);
    } else {
      const xv6::DiskSuperblock sb = xv6::mkfs(*dev_, /*ninodes=*/256);
      ASSERT_EQ(sb.nbitmap, 1u);
    }
    register_all_xv6(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(GetParam().fstype, "ssd0", "/mnt"));
  }

  kern::Process& proc() { return kernel_.proc(); }

  std::array<std::byte, blk::kBlockSize> raw(std::uint64_t blockno) {
    std::array<std::byte, blk::kBlockSize> buf{};
    dev_->read_untimed(blockno, buf);
    return buf;
  }

  static bool bit(const std::array<std::byte, blk::kBlockSize>& bits,
                  std::uint64_t i) {
    return (bits[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0};
  }

  /// Sync, then scan the image the way a full-scan allocator would.
  FreeSlots scan_image() {
    EXPECT_EQ(Err::Ok, kernel_.sync(proc()));
    FreeSlots out;
    if (is_ext4()) {
      ext4::Super s;
      std::memcpy(&s, raw(1).data(), sizeof(s));
      ext4::GroupDesc gd;
      std::memcpy(&gd, raw(s.gdt_start).data(), sizeof(gd));
      const auto ibits = raw(gd.inode_bitmap);
      for (std::uint64_t i = 0; i < s.inodes_per_group; ++i) {
        if (!bit(ibits, i)) out.inodes.push_back(i);
      }
      const auto bbits = raw(gd.block_bitmap);
      for (std::uint64_t b = gd.data_start; b < gd.data_start + gd.data_blocks;
           ++b) {
        if (!bit(bbits, b - s.first_group)) out.blocks.push_back(b);
      }
      return out;
    }
    const xv6::DiskSuperblock sb = xv6::read_superblock(*dev_);
    for (std::uint32_t inum = 1; inum < sb.ninodes; ++inum) {
      xv6::Dinode d;
      std::memcpy(&d,
                  raw(sb.inode_block(inum)).data() +
                      (inum % xv6::kInodesPerBlock) * sizeof(xv6::Dinode),
                  sizeof(d));
      if (d.type == static_cast<std::uint16_t>(xv6::InodeKind::Free)) {
        out.inodes.push_back(inum);
      }
    }
    const auto bits = raw(sb.bmapstart);
    for (std::uint64_t b = sb.datastart; b < sb.size; ++b) {
      if (!bit(bits, b)) out.blocks.push_back(b);
    }
    return out;
  }

  /// Write `nblocks` blocks at the end of `path` (creating it).
  Err append(const std::string& path, std::size_t nblocks, std::byte fill) {
    auto fd = kernel_.open(proc(), path, kern::kOCreat | kern::kOWrOnly);
    if (!fd.ok()) return fd.error();
    Err e = Err::Ok;
    std::vector<std::byte> block(blk::kBlockSize, fill);
    if (auto r = kernel_.lseek(proc(), fd.value(), 0, kern::Whence::End);
        !r.ok()) {
      e = r.error();
    }
    for (std::size_t i = 0; i < nblocks && e == Err::Ok; ++i) {
      auto w = kernel_.write(proc(), fd.value(), block);
      if (!w.ok()) e = w.error();
    }
    if (e == Err::Ok) e = kernel_.fsync(proc(), fd.value());
    const Err c = kernel_.close(proc(), fd.value());
    return e != Err::Ok ? e : c;
  }

  /// Create and fill the probe file; expect the lowest free inode and the
  /// lowest free blocks of the synced image, then remove it again.
  void probe(int step) {
    const FreeSlots before = scan_image();
    ASSERT_FALSE(before.inodes.empty());
    ASSERT_GE(before.blocks.size(), 4u);
    ASSERT_EQ(Err::Ok, append("/mnt/probe", 2, std::byte{0x5A}));
    const FreeSlots after = scan_image();
    const std::vector<std::uint64_t> inodes = taken(before.inodes, after.inodes);
    const std::vector<std::uint64_t> blocks = taken(before.blocks, after.blocks);
    EXPECT_EQ(after.inodes.size() + inodes.size(), before.inodes.size())
        << "step " << step << ": the probe freed an inode";
    EXPECT_EQ(after.blocks.size() + blocks.size(), before.blocks.size())
        << "step " << step << ": the probe freed a block";
    EXPECT_EQ(inodes, std::vector<std::uint64_t>{before.inodes.front()})
        << "step " << step;
    // Two data blocks, plus one more when the directory had to grow.
    ASSERT_GE(blocks.size(), 2u) << "step " << step;
    EXPECT_EQ(blocks, std::vector<std::uint64_t>(
                          before.blocks.begin(),
                          before.blocks.begin() +
                              static_cast<std::ptrdiff_t>(blocks.size())))
        << "step " << step;
    ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/probe"));
  }

  void upgrade() {
    auto* module = bento::BentoModule::from(*kernel_.sb_at("/mnt"));
    ASSERT_NE(module, nullptr);
    xv6::Xv6FileSystem::Options v2;
    v2.version = "xv6fs-v2";
    ASSERT_EQ(Err::Ok,
              module->upgrade(std::make_unique<xv6::Xv6FileSystem>(v2)));
    auto& fs = static_cast<xv6::Xv6FileSystem&>(module->fs());
    ASSERT_TRUE(fs.restored_from_transfer());
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
  blk::BlockDevice* dev_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    Deployments, AllocChurnTest,
    ::testing::Values(ChurnCase{"xv6_bento", "xv6_bento", -1},
                      ChurnCase{"xv6_vfs", "xv6_vfs", -1},
                      ChurnCase{"xv6_fuse", "xv6_fuse", -1},
                      ChurnCase{"ext4j", "ext4j", -1},
                      ChurnCase{"xv6_bento_upgrade", "xv6_bento", 40}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(AllocChurnTest, EveryAllocationMatchesAFullScan) {
  constexpr int kSteps = 80;
  sim::Rng rng(20260417);
  std::map<std::string, std::size_t> files;  // path -> size in blocks
  std::set<std::string> dirs = {"/mnt"};
  int next_name = 0;
  const auto parent_of = [](const std::string& path) {
    return path.substr(0, path.rfind('/'));
  };
  const auto nth = [&rng](const auto& c) {
    auto it = c.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.below(c.size())));
    return it;
  };

  for (int step = 0; step < kSteps; ++step) {
    if (step == GetParam().upgrade_at) upgrade();
    const std::uint64_t op = rng.below(files.size() < 6 ? 2 : 6);
    if (op == 0) {  // create
      const std::string path =
          *nth(dirs) + "/f" + std::to_string(next_name++);
      const std::size_t n = rng.range(1, 5);
      ASSERT_EQ(Err::Ok, append(path, n, std::byte{0x11})) << path;
      files[path] = n;
    } else if (op == 1) {  // mkdir
      const std::string path = "/mnt/d" + std::to_string(next_name++);
      ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), path)) << path;
      dirs.insert(path);
    } else if (op == 2) {  // append
      const std::string path = nth(files)->first;
      const std::size_t n = rng.range(1, 3);
      if (files[path] + n > xv6::kNDirect) continue;
      ASSERT_EQ(Err::Ok, append(path, n, std::byte{0x22})) << path;
      files[path] += n;
    } else if (op == 3) {  // truncate
      const std::string path = nth(files)->first;
      if (files[path] == 0) continue;
      const std::size_t keep = rng.below(files[path]);
      ASSERT_EQ(Err::Ok,
                kernel_.truncate(proc(), path, keep * blk::kBlockSize))
          << path;
      files[path] = keep;
    } else if (op == 4) {  // unlink
      const std::string path = nth(files)->first;
      ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), path)) << path;
      files.erase(path);
    } else {  // rmdir an empty directory, or empty one first
      const std::string dir = *nth(dirs);
      if (dir == "/mnt") continue;
      for (auto it = files.begin(); it != files.end();) {
        if (parent_of(it->first) == dir) {
          ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), it->first));
          it = files.erase(it);
        } else {
          ++it;
        }
      }
      ASSERT_EQ(Err::Ok, kernel_.rmdir(proc(), dir)) << dir;
      dirs.erase(dir);
    }
    probe(step);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace bsim::test
