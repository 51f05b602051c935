// The ext2-style block tree of the kernel file systems, over the buffer
// cache: an inode's direct slots, one single-indirect block and one
// double-indirect block, each indirect block an array of kNIndirect
// 32-bit block numbers (0 = hole). ext4j and the C-kernel xv6 (xv6_vfs)
// both map file blocks through it. Each passes in its inode's slots and
// three hooks (allocate a zeroed block, free a block, journal a dirtied
// block) and keeps its own transaction bracket and inode write-back.
//
// The Bento xv6 port (src/xv6fs) keeps its own copy of the tree: it is
// written only against the capability API and never holds a kernel
// pointer (paper §4), and its RAII buffer handles release at other points.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "kernel/buffer_cache.h"
#include "kernel/types.h"

namespace bsim::kern {

/// What the tree needs from its file system.
class BlockMapOps {
 public:
  /// A zeroed block, journaled; `goal` is BlockSlots::goal.
  virtual Result<std::uint32_t> map_alloc(std::uint32_t goal) = 0;
  virtual Err map_free(std::uint32_t blockno) = 0;
  /// Journal a block the tree has dirtied in the buffer cache.
  virtual void map_journal(std::uint32_t blockno) = 0;

 protected:
  ~BlockMapOps() = default;
};

/// One inode's slots, borrowed for the length of a call.
struct BlockSlots {
  std::span<std::uint32_t> direct;
  std::uint32_t& indirect;
  std::uint32_t& dindirect;
  std::uint32_t goal = 0;  // allocation hint, passed to map_alloc
};

/// The fixed 32-byte directory slot of both file systems (inum 0 = free).
inline constexpr std::size_t kDirSlotNameLen = 28;
struct DirSlot {
  std::uint32_t inum = 0;
  char name[kDirSlotNameLen] = {};

  [[nodiscard]] std::string_view name_view() const {
    return {name, strnlen(name, kDirSlotNameLen)};
  }
};
static_assert(sizeof(DirSlot) == 32);

/// Host-side mapping counts (ext4j reports them in its MapStats).
struct BlockMapCounts {
  std::uint64_t bmap_calls = 0;          // single-block lookups
  std::uint64_t map_runs = 0;            // map_run calls
  std::uint64_t map_run_blocks = 0;      // blocks resolved by those runs
  std::uint64_t map_indirect_reads = 0;  // indirect-block breads in runs
};

class BlockMap {
 public:
  BlockMap(BufferCache& bc, BlockMapOps& ops) : bc_(bc), ops_(ops) {}

  /// The block holding file block `bn` (0 = hole). With `alloc`, holes on
  /// the way down, the indirect blocks included, are allocated.
  Result<std::uint32_t> bmap(const BlockSlots& s, std::uint64_t bn,
                             bool alloc);
  /// Resolve `count` consecutive file blocks from `bn` in one pass,
  /// without allocating: each indirect block is read once for its whole
  /// overlap with the run, not once per block as repeated bmap calls
  /// would. Appends one address per block to `out` (0 = hole).
  Err map_run(const BlockSlots& s, std::uint64_t bn, std::size_t count,
              std::vector<std::uint32_t>& out);
  /// Free every block past the first `new_size` bytes, and the indirect
  /// blocks left empty (the tree part of truncate).
  Err truncate(const BlockSlots& s, std::uint64_t new_size);
  /// Fill `out` with page `pgoff` of a file of `size` bytes; holes and
  /// bytes past the end read as zero.
  Err readpage(const BlockSlots& s, std::uint64_t size, std::uint64_t pgoff,
               std::span<std::byte> out);
  /// Write `in` at `off` through the buffer cache, a block at a time,
  /// allocating holes and journaling every block written.
  Err write(const BlockSlots& s, std::uint64_t off,
            std::span<const std::byte> in);
  /// Zero the block holding byte `from`, from there to the block's end,
  /// so a later extension never exposes stale bytes (POSIX truncate).
  Err zero_block_tail(const BlockSlots& s, std::uint64_t from);
  /// Emit the used DirSlots of a directory of `size` bytes from `pos`
  /// on, advancing `pos` past each slot read; `emit` gets an entry with
  /// ino and name set and returns false to stop.
  Err readdir(const BlockSlots& s, std::uint64_t size, std::uint64_t& pos,
              const std::function<bool(DirEnt&)>& emit);
  /// Visit each mapped block of a directory of `size` bytes in order,
  /// with its byte offset, its buffer and the DirSlots it holds below
  /// `size`, until `visit` returns true. The buffer is held across the
  /// visit, so `visit` may change slots (and mark and journal the block
  /// itself). Yields whether a visit stopped the scan.
  using DirVisitor = std::function<bool(
      std::uint64_t off, BufferHead& bh, std::span<DirSlot> slots)>;
  Result<bool> scan_dir(const BlockSlots& s, std::uint64_t size,
                        const DirVisitor& visit);

  [[nodiscard]] const BlockMapCounts& counts() const { return counts_; }

 private:
  static constexpr std::uint64_t kNIndirect = blk::kBlockSize / 4;

  /// `slot`, after allocating it if it is a hole and `alloc` is set.
  Result<std::uint32_t> fill(std::uint32_t& slot, bool alloc,
                             std::uint32_t goal);
  /// Entry `i` of indirect block `blockno`, filled like fill().
  Result<std::uint32_t> entry(std::uint32_t blockno, std::uint64_t i,
                              bool alloc, std::uint32_t goal);
  /// Append entries [first, stop) of indirect block `blockno` to `out`,
  /// zeros when `blockno` is a hole.
  Err append_entries(std::uint32_t blockno, std::uint64_t first,
                     std::uint64_t stop, std::vector<std::uint32_t>& out);
  /// Free what indirect block `blockno` maps from its file block `from`
  /// on; `depth` is 1 for a leaf, 2 for a block of leaves, which are
  /// freed too once they map nothing kept.
  Err free_from(std::uint32_t blockno, std::uint64_t from, int depth);

  BufferCache& bc_;
  BlockMapOps& ops_;
  BlockMapCounts counts_;
};

}  // namespace bsim::kern
