// The dentry cache (SuperBlock::dcache_*), through the syscall layer on
// every deployment: removing or replacing a name never leaves a stale
// child behind, equal names in different directories stay independent,
// and a scripted path walk costs a fixed, known virtual time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"

namespace bsim::test {
namespace {

using kern::Err;

class DcacheTest : public ::testing::TestWithParam<const char*> {
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

  kern::Process& proc() { return kernel_.proc(); }

  /// Create (or truncate) `path` holding `text`.
  void put(const std::string& path, std::string_view text) {
    auto fd = kernel_.open(proc(), path,
                           kern::kOCreat | kern::kOTrunc | kern::kOWrOnly);
    ASSERT_TRUE(fd.ok()) << path;
    ASSERT_TRUE(kernel_.write(proc(), fd.value(), as_bytes(text)).ok());
    ASSERT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
  }

  /// The contents of `path`, or the open error's name.
  std::string get(const std::string& path) {
    auto fd = kernel_.open(proc(), path, kern::kORdOnly);
    if (!fd.ok()) return kern::err_name(fd.error());
    std::vector<std::byte> buf(64);
    auto r = kernel_.read(proc(), fd.value(), buf);
    EXPECT_EQ(Err::Ok, kernel_.close(proc(), fd.value()));
    if (!r.ok()) return kern::err_name(r.error());
    return to_string({buf.data(), r.value()});
  }

  kern::Ino ino(const std::string& path) {
    auto st = kernel_.stat(proc(), path);
    return st.ok() ? st.value().ino : 0;
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
};

INSTANTIATE_TEST_SUITE_P(Deployments, DcacheTest,
                         ::testing::Values("xv6_bento", "xv6_vfs", "xv6_fuse",
                                           "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(DcacheTest, UnlinkThenRecreateNeverReturnsTheOldChild) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/d"));
  for (int round = 0; round < 3; ++round) {
    const std::string text = "round " + std::to_string(round);
    put("/mnt/d/f", text);
    EXPECT_EQ(get("/mnt/d/f"), text);  // cached positive entry
    const kern::Ino before = ino("/mnt/d/f");
    ASSERT_NE(before, 0u);
    ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/d/f"));
    EXPECT_EQ(get("/mnt/d/f"), "ENOENT");
    EXPECT_EQ(kernel_.stat(proc(), "/mnt/d/f").error(), Err::NoEnt);
  }
  put("/mnt/d/f", "last");
  EXPECT_EQ(get("/mnt/d/f"), "last");
}

TEST_P(DcacheTest, RenameOverAnExistingNameShowsTheMovedFile) {
  put("/mnt/a", "from a");
  put("/mnt/b", "from b");
  EXPECT_EQ(get("/mnt/a"), "from a");
  EXPECT_EQ(get("/mnt/b"), "from b");
  const kern::Ino a = ino("/mnt/a");
  ASSERT_EQ(Err::Ok, kernel_.rename(proc(), "/mnt/a", "/mnt/b"));
  EXPECT_EQ(get("/mnt/b"), "from a");
  EXPECT_EQ(ino("/mnt/b"), a);
  EXPECT_EQ(get("/mnt/a"), "ENOENT");

  // Across directories, over a cached name in the target.
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/x"));
  put("/mnt/x/b", "old x/b");
  EXPECT_EQ(get("/mnt/x/b"), "old x/b");
  ASSERT_EQ(Err::Ok, kernel_.rename(proc(), "/mnt/b", "/mnt/x/b"));
  EXPECT_EQ(get("/mnt/x/b"), "from a");
  EXPECT_EQ(ino("/mnt/x/b"), a);
  EXPECT_EQ(get("/mnt/b"), "ENOENT");
}

TEST_P(DcacheTest, RmdirThenMkdirStartsEmpty) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/p"));
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/p/q"));
  put("/mnt/p/q/f", "inside");
  EXPECT_EQ(get("/mnt/p/q/f"), "inside");
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/p/q/f"));
  ASSERT_EQ(Err::Ok, kernel_.rmdir(proc(), "/mnt/p/q"));
  EXPECT_EQ(kernel_.stat(proc(), "/mnt/p/q").error(), Err::NoEnt);
  EXPECT_EQ(get("/mnt/p/q/f"), "ENOENT");

  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/p/q"));
  EXPECT_EQ(get("/mnt/p/q/f"), "ENOENT");
  auto ls = kernel_.readdir(proc(), "/mnt/p/q");
  ASSERT_TRUE(ls.ok());
  for (const auto& e : ls.value()) {
    EXPECT_TRUE(e.name == "." || e.name == "..") << e.name;
  }
  put("/mnt/p/q/g", "fresh");
  EXPECT_EQ(get("/mnt/p/q/g"), "fresh");
}

TEST_P(DcacheTest, EqualNamesInTwoDirectoriesStayIndependent) {
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/l"));
  ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), "/mnt/r"));
  put("/mnt/l/n", "left");
  put("/mnt/r/n", "right");
  put("/mnt/n", "top");
  EXPECT_EQ(get("/mnt/l/n"), "left");
  EXPECT_EQ(get("/mnt/r/n"), "right");
  EXPECT_NE(ino("/mnt/l/n"), ino("/mnt/r/n"));

  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), "/mnt/l/n"));
  EXPECT_EQ(get("/mnt/l/n"), "ENOENT");
  EXPECT_EQ(get("/mnt/r/n"), "right");
  EXPECT_EQ(get("/mnt/n"), "top");

  ASSERT_EQ(Err::Ok, kernel_.rename(proc(), "/mnt/r/n", "/mnt/l/n"));
  EXPECT_EQ(get("/mnt/l/n"), "right");
  EXPECT_EQ(get("/mnt/r/n"), "ENOENT");
  EXPECT_EQ(get("/mnt/n"), "top");
}

TEST_P(DcacheTest, ScriptedPathWalkTakesAFixedVirtualTime) {
  // Cold misses, warm hits, a removed name and a re-created one; the
  // elapsed virtual time is pinned per deployment, so any change to which
  // components hit the dcache shows up here.
  const sim::Nanos start = thread_.now();
  std::string dir = "/mnt";
  for (const char* part : {"usr", "src", "linux", "fs"}) {
    dir += "/";
    dir += part;
    ASSERT_EQ(Err::Ok, kernel_.mkdir(proc(), dir));
  }
  for (int i = 0; i < 8; ++i) put(dir + "/f" + std::to_string(i), "x");
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_NE(ino(dir + "/f" + std::to_string(i)), 0u);
    }
  }
  ASSERT_EQ(Err::Ok, kernel_.unlink(proc(), dir + "/f3"));
  EXPECT_EQ(kernel_.stat(proc(), dir + "/f3").error(), Err::NoEnt);
  put(dir + "/f3", "y");
  EXPECT_EQ(get(dir + "/f3"), "y");
  ASSERT_EQ(Err::Ok, kernel_.rename(proc(), dir + "/f4", "/mnt/usr/f4"));
  EXPECT_EQ(get("/mnt/usr/f4"), "x");
  const sim::Nanos elapsed = thread_.now() - start;

  const std::string_view fs = GetParam();
  const sim::Nanos want = fs == "xv6_bento"  ? 260'063
                          : fs == "xv6_vfs"  ? 581'998
                          : fs == "xv6_fuse" ? 23'938'393
                                             : 475'850;
  EXPECT_EQ(elapsed, want) << fs;
}

}  // namespace
}  // namespace bsim::test
