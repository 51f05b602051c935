// An xv6 image formatted straight into memory, for the userspace debugging
// rig (paper §4.9) and the stacked file systems' tests, bench and examples.
#pragma once

#include <cstdint>
#include <memory>

#include "bento/user.h"
#include "xv6fs/layout.h"

namespace bsim::xv6 {

struct MemImage {
  std::unique_ptr<bento::MemBlockBackend> backend;
  DiskSuperblock sb;
};

/// mkfs on a scratch device of `nblocks`, then copy blocks 1..datastart
/// (superblock, log, inodes, bitmap) into a MemBlockBackend of the same
/// size. The data blocks stay zero, as mkfs leaves them.
MemImage mkfs_mem(std::uint64_t nblocks, std::uint32_t ninodes);

}  // namespace bsim::xv6
