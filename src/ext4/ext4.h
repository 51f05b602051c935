// The ext4-flavoured comparator file system (VFS-native, data=journal).
// See layout.h for what is and is not reproduced relative to real ext4.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ext4/layout.h"
#include "kernel/blockmap.h"
#include "kernel/journal.h"
#include "kernel/kernel.h"
#include "kernel/mount_options.h"
#include "sim/stats.h"

namespace bsim::ext4 {

struct JournalStats {
  std::uint64_t commits = 0;
  std::uint64_t blocks_journaled = 0;
  std::uint64_t shared_commits = 0;  // fsyncs satisfied by group commit
  std::uint64_t recoveries = 0;
  std::uint64_t pipelined_commits = 0;  // returned with transfers in flight
  std::uint64_t empty_commits_skipped = 0;  // flush-commit with nothing to do
  std::uint64_t jbd_aborted = 0;  // journal aborts (failed journal write)
  // ---- commit-stage latency (commit entry -> stage transfer completion,
  // one sample per journal record) ----
  sim::LatencyHistogram jwrite_lat;      // descriptor+data journal run
  sim::LatencyHistogram record_lat;      // commit record (the commit point)
  sim::LatencyHistogram checkpoint_lat;  // home-location batch
};

/// Block-mapping accounting: the regression stat for the readahead path.
/// ->readpages resolves a whole contiguous run through map_run (each
/// indirect block read ONCE per run) instead of one bmap per page, so on
/// a sequential scan map_indirect_reads stays O(runs), not O(pages).
struct MapStats {
  std::uint64_t bmap_calls = 0;          // single-block lookups (write path)
  std::uint64_t map_runs = 0;            // map_run invocations
  std::uint64_t map_run_blocks = 0;      // blocks resolved by those runs
  std::uint64_t map_indirect_reads = 0;  // indirect-block breads inside runs
  std::uint64_t readpages_calls = 0;     // ->readpages batches served
};

class Ext4Mount final : public kern::InodeOps,
                        public kern::FileOps,
                        public kern::SuperOps,
                        public kern::AddressSpaceOps,
                        private kern::BlockMapOps {
 public:
  /// `mo.nopipeline` redeems every commit's tickets before returning
  /// (the unpipelined oracle for the ablation/crash differentials).
  Ext4Mount(kern::SuperBlock& sb, const kern::MountOptions& mo)
      : sb_(&sb), jpipeline_(!mo.nopipeline), tree_(sb.bufcache(), *this) {}

  kern::Err mount_init();
  void dispose_inode(kern::Inode& inode);

  [[nodiscard]] const JournalStats& journal_stats() const { return jstats_; }
  [[nodiscard]] MapStats map_stats() const;
  [[nodiscard]] std::uint64_t free_blocks_total() const;
  [[nodiscard]] std::uint64_t free_inodes_total() const;

  // InodeOps
  kern::Result<kern::Inode*> lookup(kern::Inode& dir,
                                    std::string_view name) override;
  kern::Result<kern::Inode*> create(kern::Inode& dir, std::string_view name,
                                    std::uint32_t mode) override;
  kern::Err unlink(kern::Inode& dir, std::string_view name) override;
  kern::Result<kern::Inode*> mkdir(kern::Inode& dir, std::string_view name,
                                   std::uint32_t mode) override;
  kern::Err rmdir(kern::Inode& dir, std::string_view name) override;
  kern::Err rename(kern::Inode& old_dir, std::string_view old_name,
                   kern::Inode& new_dir, std::string_view new_name) override;
  kern::Err setattr(kern::Inode& inode, const kern::SetAttr& attr) override;

  // FileOps
  kern::Result<std::uint64_t> read(kern::Inode& inode, kern::FileHandle& fh,
                                   std::uint64_t off,
                                   std::span<std::byte> out) override;
  kern::Result<std::uint64_t> write(kern::Inode& inode, kern::FileHandle& fh,
                                    std::uint64_t off,
                                    std::span<const std::byte> in) override;
  kern::Err fsync(kern::Inode& inode, kern::FileHandle& fh,
                  bool datasync) override;
  kern::Err flush(kern::Inode& inode, kern::FileHandle& fh) override;
  kern::Err readdir(kern::Inode& inode, std::uint64_t& pos,
                    const kern::DirFiller& fill) override;

  // SuperOps
  kern::Err sync_fs(kern::SuperBlock& sb, bool wait) override;
  kern::Err statfs(kern::SuperBlock& sb, kern::StatFs& out) override;
  void put_super(kern::SuperBlock& sb) override;
  void evict_inode(kern::Inode& inode) override;

  // AddressSpaceOps: batched writepages + readpages (like real ext4).
  kern::Err readpages(kern::Inode& inode, std::uint64_t first_pgoff,
                      std::span<const std::span<std::byte>> pages) override;
  [[nodiscard]] bool has_readpages() const override { return true; }
  kern::Err readpage(kern::Inode& inode, std::uint64_t pgoff,
                     std::span<std::byte> out) override;
  kern::Err writepage(kern::Inode& inode, std::uint64_t pgoff,
                      std::span<const std::byte> in) override;
  kern::Err writepages(kern::Inode& inode,
                       std::span<const kern::PageRun> runs,
                       std::size_t& completed_runs) override;
  [[nodiscard]] bool has_writepages() const override { return true; }

 private:
  struct EInode {
    std::uint32_t inum = 0;
    Dinode d;
  };

  // ---- JBD2-style journal ----
  /// Tag a modified (cached, dirty) block into the running transaction
  /// (pins the buffer for the journal until its checkpoint writes it).
  void j_write(std::uint32_t blockno);
  /// Commit the running transaction (journal writes + commit record +
  /// checkpoint home blocks). Without `flush_device` the commit is
  /// PIPELINED: its tickets stay in jpipeline_, so transaction N+1 fills
  /// while N's commit record and checkpoint are in flight. Journal-area
  /// reuse is safe because all of N's writes are submitted (media order =
  /// submission order) before N+1 copies over the area.
  kern::Err j_commit(bool flush_device);
  /// fsync path: make everything up to now durable; joins an in-flight
  /// group commit when possible.
  kern::Err j_force(std::uint64_t op_seq);
  kern::Err j_recover();

  kern::Err read_super();
  kern::Result<GroupDesc*> group(std::uint32_t g);
  kern::Err gdt_update(std::uint32_t g);

  kern::Result<kern::Inode*> iget(std::uint32_t inum);
  static EInode* ei(kern::Inode& inode) {
    return static_cast<EInode*>(inode.fs_priv);
  }
  [[nodiscard]] std::uint32_t inode_block(std::uint32_t inum) const;
  kern::Err iupdate(kern::Inode& inode);
  kern::Result<std::uint32_t> ialloc(std::uint16_t type, std::uint32_t mode,
                                     std::uint32_t parent_group);
  kern::Err ifree(std::uint32_t inum);
  kern::Result<std::uint32_t> balloc(std::uint32_t goal_group);
  kern::Err bfree(std::uint32_t blockno);
  kern::Err itrunc(kern::Inode& inode, std::uint64_t new_size);
  /// The inode's block tree, allocating near the inode's group.
  kern::BlockSlots slots(EInode& e) const;
  // BlockMapOps: the tree allocates, frees and journals through these.
  kern::Result<std::uint32_t> map_alloc(std::uint32_t goal) override {
    return balloc(goal);
  }
  kern::Err map_free(std::uint32_t blockno) override { return bfree(blockno); }
  void map_journal(std::uint32_t blockno) override { j_write(blockno); }
  [[nodiscard]] std::uint32_t group_of_block(std::uint32_t blockno) const;
  [[nodiscard]] std::uint32_t group_of_inode(std::uint32_t inum) const;

  // ---- directories with an in-memory index (htree stand-in) ----
  struct DirIndex {
    std::unordered_map<std::string, std::uint32_t> entries;
    bool built = false;
  };
  kern::Result<DirIndex*> dir_index(kern::Inode& dir);
  kern::Result<std::uint32_t> dir_lookup(kern::Inode& dir,
                                         std::string_view name);
  kern::Err dir_link(kern::Inode& dir, std::string_view name,
                     std::uint32_t inum);
  kern::Err dir_unlink(kern::Inode& dir, std::string_view name);
  kern::Err write_through_journal(kern::Inode& inode, std::uint64_t off,
                                  std::span<const std::byte> in);

  kern::SuperBlock* sb_;
  Super super_;
  std::vector<GroupDesc> groups_;  // in-core GDT
  // Per-group allocation floors (host-only; see kern::alloc_zero_bit): no
  // bit below ifloor_[g] / bfloor_[g] of group g's inode / block bitmap
  // is clear.
  std::vector<std::uint32_t> ifloor_;
  std::vector<std::uint32_t> bfloor_;
  sim::SimMutex journal_lock_;
  sim::SimMutex alloc_lock_;
  kern::RunningTxn running_txn_;             // tagged home blocknos
  std::uint64_t op_seq_ = 0;                 // advances per mutating op
  std::uint64_t committed_seq_ = 0;          // ops covered by last commit
  sim::Nanos last_commit_end_ = 0;
  std::uint32_t jseq_ = 1;
  // Group commit: the interval of the most recent device flush. fsyncs
  // whose commit lands while a flush is in flight ride its completion
  // (JBD2's transaction batching) instead of issuing their own.
  sim::Nanos flush_start_ = -1;
  sim::Nanos flush_end_ = -1;
  /// Commits whose transfers are still in flight.
  kern::CommitPipeline<blk::Ticket> jpipeline_;
  /// A commit wrote since the last device flush (the empty-commit /
  /// no-op-flush skip bookkeeping).
  bool jdirty_since_flush_ = false;
  JournalStats jstats_;
  kern::BlockMap tree_;
  std::uint64_t readpages_calls_ = 0;
  std::unordered_map<std::uint32_t, DirIndex> dir_indexes_;
  std::uint32_t alloc_cursor_ = 0;  // round-robin group goal
};

/// Register the comparator ("ext4j" — data=journal) with the kernel.
void register_ext4(kern::Kernel& kernel, std::string name = "ext4j");

}  // namespace bsim::ext4
