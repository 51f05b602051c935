// StackedFs forwarding (paper §3.4): every op a stacked layer does not
// transform reaches the lower mount unchanged. Runs over CryptFs and
// ProvenanceFs on the in-memory xv6 rig.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "../testutil.h"
#include "bento/chacha.h"
#include "bento/crypt.h"
#include "bento/provenance.h"

namespace bsim::test {
namespace {

using bento::FileSystem;
using bento::Ino;
using bento::kRootIno;
using kern::Err;

struct Layer {
  std::string name;
  std::function<std::unique_ptr<FileSystem>(std::unique_ptr<bento::UserMount>)>
      make;
  /// Whether forget through the layer lets xv6 reclaim an unlinked inode.
  bool forget_reclaims;
};

void PrintTo(const Layer& layer, std::ostream* os) { *os << layer.name; }

class StackedForwarding : public ::testing::TestWithParam<Layer> {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    auto lower = make_xv6_mount();
    lower_ = lower.get();
    top_ = std::make_unique<bento::UserMount>(
        std::make_unique<bento::MemBlockBackend>(64),
        GetParam().make(std::move(lower)));
    ASSERT_EQ(Err::Ok, top_->mount_init());
  }

  Ino create(bento::UserMount& m, std::string_view name) {
    auto made = m.call(&FileSystem::create, kRootIno, name, 0644);
    EXPECT_TRUE(made.ok()) << name;
    return made.ok() ? made.value().ino : 0;
  }

  static std::vector<std::string> names(bento::UserMount& m) {
    std::vector<std::string> out;
    std::uint64_t pos = 0;
    EXPECT_EQ(Err::Ok, m.call(&FileSystem::readdir, kRootIno, pos,
                              [&](const kern::DirEnt& de) {
                                out.push_back(de.name);
                                return true;
                              }));
    return out;
  }

  static std::uint64_t free_inodes(bento::UserMount& m) {
    auto s = m.call(&FileSystem::statfs);
    EXPECT_TRUE(s.ok());
    return s.ok() ? s.value().free_inodes : 0;
  }

  sim::SimThread thread_{0};
  bento::UserMount* lower_ = nullptr;  // owned by the layer
  std::unique_ptr<bento::UserMount> top_;
};

TEST_P(StackedForwarding, FsyncdirReachesLower) {
  auto dir = top_->call(&FileSystem::mkdir, kRootIno, "d", 0755);
  ASSERT_TRUE(dir.ok());
  auto fh = top_->call(&FileSystem::opendir, dir.value().ino);
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(Err::Ok, top_->call(&FileSystem::fsyncdir, dir.value().ino,
                                fh.value(), false));
  EXPECT_EQ(Err::Ok, top_->call(&FileSystem::releasedir, dir.value().ino,
                                fh.value()));
  EXPECT_EQ(Err::Ok, top_->call(&FileSystem::fsyncdir, kRootIno,
                                std::uint64_t{0}, true));
}

TEST_P(StackedForwarding, StatfsGetattrReaddirMatchLower) {
  const Ino ino = create(*top_, "f");
  const std::string data(5000, 'x');
  ASSERT_TRUE(
      top_->call(&FileSystem::write, ino, 0, 0, as_bytes(data)).ok());
  ASSERT_TRUE(top_->call(&FileSystem::mkdir, kRootIno, "sub", 0755).ok());

  auto top_fs = top_->call(&FileSystem::statfs);
  auto low_fs = lower_->call(&FileSystem::statfs);
  ASSERT_TRUE(top_fs.ok() && low_fs.ok());
  EXPECT_EQ(low_fs.value().total_blocks, top_fs.value().total_blocks);
  EXPECT_EQ(low_fs.value().free_blocks, top_fs.value().free_blocks);
  EXPECT_EQ(low_fs.value().total_inodes, top_fs.value().total_inodes);
  EXPECT_EQ(low_fs.value().free_inodes, top_fs.value().free_inodes);
  EXPECT_EQ(low_fs.value().block_size, top_fs.value().block_size);

  auto top_attr = top_->call(&FileSystem::getattr, ino);
  auto low_attr = lower_->call(&FileSystem::getattr, ino);
  ASSERT_TRUE(top_attr.ok() && low_attr.ok());
  EXPECT_EQ(low_attr.value().ino, top_attr.value().ino);
  EXPECT_EQ(low_attr.value().kind, top_attr.value().kind);
  EXPECT_EQ(low_attr.value().mode, top_attr.value().mode);
  EXPECT_EQ(low_attr.value().nlink, top_attr.value().nlink);
  EXPECT_EQ(data.size(), top_attr.value().size);
  EXPECT_EQ(low_attr.value().size, top_attr.value().size);
  EXPECT_EQ(low_attr.value().blocks, top_attr.value().blocks);
  EXPECT_EQ(low_attr.value().mtime, top_attr.value().mtime);

  EXPECT_EQ(names(*lower_), names(*top_));
}

TEST_P(StackedForwarding, RenameAndRmdirShowUpInLower) {
  (void)create(*top_, "a");
  ASSERT_EQ(Err::Ok,
            top_->call(&FileSystem::rename, kRootIno, "a", kRootIno, "b"));
  EXPECT_EQ(Err::NoEnt,
            lower_->call(&FileSystem::lookup, kRootIno, "a").error());
  EXPECT_TRUE(lower_->call(&FileSystem::lookup, kRootIno, "b").ok());

  ASSERT_TRUE(top_->call(&FileSystem::mkdir, kRootIno, "gone", 0755).ok());
  ASSERT_TRUE(lower_->call(&FileSystem::lookup, kRootIno, "gone").ok());
  ASSERT_EQ(Err::Ok, top_->call(&FileSystem::rmdir, kRootIno, "gone"));
  EXPECT_EQ(Err::NoEnt,
            lower_->call(&FileSystem::lookup, kRootIno, "gone").error());
}

TEST_P(StackedForwarding, ForgetOfUnlinkedFile) {
  // ProvenanceFs swallows forget on purpose (its store keys records by
  // inode number), so the unlinked lower inode stays allocated; CryptFs
  // forwards it and xv6 reclaims the inode.
  const std::uint64_t before = free_inodes(*lower_);
  const Ino ino = create(*top_, "tmp");
  ASSERT_EQ(Err::Ok, top_->call(&FileSystem::unlink, kRootIno, "tmp"));
  top_->call(&FileSystem::forget, ino);
  EXPECT_EQ(GetParam().forget_reclaims ? before : before - 1,
            free_inodes(*lower_));
}

INSTANTIATE_TEST_SUITE_P(
    Layers, StackedForwarding,
    ::testing::Values(
        Layer{"crypt",
              [](std::unique_ptr<bento::UserMount> lower)
                  -> std::unique_ptr<FileSystem> {
                return std::make_unique<bento::CryptFs>(
                    std::move(lower), bento::derive_key("k", "s", 16));
              },
              /*forget_reclaims=*/true},
        Layer{"provenance",
              [](std::unique_ptr<bento::UserMount> lower)
                  -> std::unique_ptr<FileSystem> {
                return std::make_unique<bento::ProvenanceFs>(std::move(lower));
              },
              /*forget_reclaims=*/false}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace bsim::test
