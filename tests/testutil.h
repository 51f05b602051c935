// Shared test fixtures: a simulated kernel with a formatted xv6 device.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bento/bentofs.h"
#include "bento/nvmlog.h"
#include "ext4/ext4.h"
#include "fuse/fuse.h"
#include "kernel/kernel.h"
#include "sim/thread.h"
#include "xv6fs/fs.h"
#include "xv6fs/layout.h"
#include "xv6fs/mem_image.h"
#include "xv6fs_c/xv6c.h"

namespace bsim::test {

inline std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

inline std::string to_string(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// The userspace debugging rig: xv6 on a formatted in-memory image
/// (32 MiB, 512 inodes), mounted through a UserMount.
inline std::unique_ptr<bento::UserMount> make_xv6_mount() {
  auto mount = std::make_unique<bento::UserMount>(
      xv6::mkfs_mem(8192, 512).backend,
      std::make_unique<xv6::Xv6FileSystem>());
  EXPECT_EQ(kern::Err::Ok, mount->mount_init());
  return mount;
}

/// Register all three xv6 deployments (paper §6.2) with a kernel:
/// "xv6_bento" (kernel Bento), "xv6_vfs" (C baseline), "xv6_fuse"
/// (userspace via the FUSE transport).
inline void register_all_xv6(kern::Kernel& kernel) {
  bento::register_bento_fs(kernel, "xv6_bento", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  bento::register_bento_fs(kernel, "xv6_nvmlog", [] {
    return std::make_unique<bento::NvmLogFs>(
        std::make_unique<xv6::Xv6FileSystem>(),
        std::make_shared<blk::NvmRegion>(blk::NvmParams{}));
  });
  xv6c::register_xv6c(kernel, "xv6_vfs");
  fuse::register_fuse_fs(kernel, "xv6_fuse", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  ext4::register_ext4(kernel, "ext4j");
}

/// A kernel with one device formatted as xv6 and mounted via BentoFS.
class BentoXv6Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 32768;  // 128 MiB
    auto& dev = kernel_.add_device("ssd0", params);
    xv6::mkfs(dev, /*ninodes=*/4096);
    register_all_xv6(kernel_);
    ASSERT_EQ(kern::Err::Ok,
              kernel_.mount("xv6_bento", "ssd0", "/mnt"));
  }

  // NOTE: no TearDown clearing the current thread — the kernel's
  // destructor runs timed unmount code and needs the clock. Members are
  // destroyed in reverse declaration order (kernel_ before thread_).

  kern::Process& proc() { return kernel_.proc(); }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
};

}  // namespace bsim::test
