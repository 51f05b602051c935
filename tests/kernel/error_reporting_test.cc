// errseq-style writeback error reporting and journal abort with
// read-only degradation (ISSUE 10):
//
//   - ErrSeq report-once semantics (the errseq_t contract): each cursor
//     sees a recorded error exactly once; a cursor sampled after the
//     error sees nothing; a new error re-arms every cursor.
//   - A writeback failure that happened on nobody's clock (background
//     drain) surfaces at each open descriptor's NEXT fsync — once per
//     descriptor, never twice.
//   - A failed journal write aborts the journal — on the xv6 Bento log,
//     the C-kernel (xv6_vfs) log and ext4's jbd alike: fsync fails with
//     EIO, the commit stops before its commit record (a crash afterwards
//     recovers the pre-abort image), and the mount degrades per its
//     errors= policy (remount-ro default: writes fail EROFS, reads keep
//     serving; errors=continue keeps serving every later op from cache
//     while every fsync keeps failing).
//   - A transient fault retried to success by the request queue's
//     RetryPolicy is invisible to fsync: no residual error, no abort.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"
#include "blockdev/trace.h"
#include "kernel/errseq.h"

namespace bsim::test {
namespace {

using kern::Err;
using kern::ErrSeq;
using kern::ErrSeqCursor;

// ---- the ErrSeq primitive ----

TEST(ErrSeqUnit, EachCursorSeesAnErrorExactlyOnce) {
  ErrSeq es;
  ErrSeqCursor a = es.sample();
  EXPECT_EQ(es.check(a), Err::Ok);

  es.record(Err::Io);
  EXPECT_EQ(es.check(a), Err::Io);  // reported...
  EXPECT_EQ(es.check(a), Err::Ok);  // ...exactly once

  // A cursor sampled after the failure (a later open) sees nothing.
  ErrSeqCursor b = es.sample();
  EXPECT_EQ(es.check(b), Err::Ok);

  // A NEW error re-arms every cursor, including already-caught-up ones.
  es.record(Err::NoSpc);
  EXPECT_EQ(es.check(b), Err::NoSpc);
  EXPECT_EQ(es.check(a), Err::NoSpc);
  EXPECT_EQ(es.check(a), Err::Ok);
}

TEST(ErrSeqUnit, OkIsNeverRecorded) {
  ErrSeq es;
  ErrSeqCursor c = es.sample();
  es.record(Err::Ok);
  EXPECT_EQ(es.seq(), 0u);
  EXPECT_EQ(es.check(c), Err::Ok);
}

// ---- kernel integration ----

constexpr std::uint64_t kBlocks = 16384;  // 64 MiB

struct Bed {
  kern::Kernel kernel;
  blk::BlockDevice* dev = nullptr;
};

/// A kernel with a formatted xv6 device mounted at /mnt via Bento.
void make_bed(Bed& bed, std::string_view opts = "") {
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  bed.dev = &bed.kernel.add_device("ssd0", params);
  xv6::mkfs(*bed.dev, /*ninodes=*/512);
  bento::register_bento_fs(bed.kernel, "xv6_bento", [] {
    return std::make_unique<xv6::Xv6FileSystem>();
  });
  ASSERT_EQ(Err::Ok, bed.kernel.mount("xv6_bento", "ssd0", "/mnt", opts));
}

const xv6::LogStats& log_stats(kern::Kernel& kernel) {
  auto* module = bento::BentoModule::from(*kernel.sb_at("/mnt"));
  return static_cast<const xv6::Xv6FileSystem&>(module->fs()).log_stats();
}

TEST(WritebackErrseq, BackgroundFailureReportedOncePerDescriptor) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed);
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  // Two descriptors on the same file, both opened BEFORE the failure.
  auto fd1 = kernel.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd1.ok());
  auto fd2 = kernel.open(p, "/mnt/f", kern::kORdWr);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(kernel.write(p, fd1.value(), as_bytes("payload")).ok());
  ASSERT_EQ(Err::Ok, kernel.fsync(p, fd1.value()));

  // Fail a metadata writeback on NOBODY's clock: dirty an idle block and
  // drain it into an injected device write error (the background-flusher
  // shape — the writer system call that dirtied it returned long ago).
  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  auto& bc = sb->bufcache();
  const std::uint64_t victim = kBlocks - 1;
  auto bh = bc.bread(victim);
  ASSERT_TRUE(bh.ok());
  bc.mark_dirty(bh.value());
  bed.dev->inject_write_error(victim);
  (void)bc.flush_dirty_async(/*max_batch=*/8, /*queue_depth=*/1);
  bed.dev->clear_write_error(victim);
  bc.brelse(bh.value());
  EXPECT_EQ(bc.wb_err_seq(), 1u);

  // Each pre-failure descriptor's next fsync reports it — exactly once.
  EXPECT_EQ(kernel.fsync(p, fd1.value()), Err::Io);
  EXPECT_EQ(kernel.fsync(p, fd1.value()), Err::Ok);
  EXPECT_EQ(kernel.fsync(p, fd2.value()), Err::Io);
  EXPECT_EQ(kernel.fsync(p, fd2.value()), Err::Ok);

  // A descriptor opened after the failure never sees it.
  auto fd3 = kernel.open(p, "/mnt/f", kern::kORdOnly);
  ASSERT_TRUE(fd3.ok());
  EXPECT_EQ(kernel.fsync(p, fd3.value()), Err::Ok);

  for (const auto& fd : {fd1, fd2, fd3}) {
    EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  }
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

/// Every block of `dev`'s media state (untimed).
std::vector<blk::BlockData> image_of(blk::BlockDevice& dev) {
  std::vector<blk::BlockData> img(dev.nblocks());
  for (std::uint64_t b = 0; b < dev.nblocks(); ++b) {
    dev.read_untimed(b, img[b]);
  }
  return img;
}

/// One journaled deployment (the parameter) on a fresh image with 4096
/// inodes, and the first payload block of its journal area — poisoning it
/// fails the next commit's first journal write.
class JournalAbort : public ::testing::TestWithParam<const char*> {
 protected:
  void mount(std::string_view opts = "") {
    params_.nblocks = kBlocks;
    dev_ = &kernel_.add_device("ssd0", params_);
    journal_payload_ = fs() == "ext4j"
                           ? ext4::mkfs(*dev_, /*inodes_per_group=*/4096)
                                     .jstart + 1
                           : xv6::mkfs(*dev_, /*ninodes=*/4096).logstart + 1;
    register_all_xv6(kernel_);
    ASSERT_EQ(Err::Ok, kernel_.mount(fs(), "ssd0", "/mnt", opts));
  }

  [[nodiscard]] std::string fs() const { return GetParam(); }

  /// The mount's journal-abort counter.
  std::uint64_t aborts() {
    void* info = kernel_.sb_at("/mnt")->fs_info;
    if (fs() == "ext4j") {
      return static_cast<ext4::Ext4Mount*>(info)->journal_stats().jbd_aborted;
    }
    if (fs() == "xv6_vfs") {
      return static_cast<xv6c::Xv6cMount*>(info)->log_stats().log_aborted;
    }
    return log_stats(kernel_).log_aborted;
  }

  sim::SimThread thread_{0};
  sim::ScopedThread in_{thread_};
  kern::Kernel kernel_;
  blk::DeviceParams params_;
  blk::BlockDevice* dev_ = nullptr;
  std::uint64_t journal_payload_ = 0;
};

TEST_P(JournalAbort, FailedJournalWriteFlipsMountReadOnly) {
  mount();  // default policy: errors=remount-ro
  dev_->enable_crash_tracking();
  auto& p = kernel_.proc();

  // A healthy committed file, read back after the abort.
  auto keep = kernel_.open(p, "/mnt/keep", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(kernel_.write(p, keep.value(), as_bytes("survives")).ok());
  ASSERT_EQ(Err::Ok, kernel_.fsync(p, keep.value()));
  const std::vector<blk::BlockData> pre_abort = image_of(*dev_);

  // Poison the journal area: the next commit's first journal write fails,
  // and the commit record must never follow it.
  dev_->inject_write_error(journal_payload_);
  auto fd = kernel_.open(p, "/mnt/doomed", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(p, fd.value(), as_bytes("never durable")).ok());
  EXPECT_EQ(kernel_.fsync(p, fd.value()), Err::Io);

  kern::SuperBlock* sb = kernel_.sb_at("/mnt");
  EXPECT_TRUE(sb->read_only());
  EXPECT_EQ(sb->fs_error_seen(), Err::Io);
  EXPECT_EQ(aborts(), 1u);

  // Writes fail with EROFS across the mutating syscalls...
  auto w = kernel_.write(p, fd.value(), as_bytes("x"));
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error(), Err::RoFs);
  EXPECT_FALSE(kernel_.open(p, "/mnt/new", kern::kOCreat).ok());
  EXPECT_EQ(kernel_.mkdir(p, "/mnt/dir"), Err::RoFs);
  EXPECT_EQ(kernel_.unlink(p, "/mnt/keep"), Err::RoFs);
  EXPECT_EQ(kernel_.rename(p, "/mnt/keep", "/mnt/keep2"), Err::RoFs);

  // ...and a second fsync keeps failing (the journal never recovers in
  // this mount), but does NOT double-count the abort.
  EXPECT_EQ(kernel_.fsync(p, fd.value()), Err::Io);
  EXPECT_EQ(aborts(), 1u);

  // Reads keep serving: the pre-abort committed file is intact.
  std::vector<std::byte> buf(16);
  auto r = kernel_.pread(p, keep.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "survives");

  // Power loss, then recovery on a copy of what survived: the image is
  // the pre-abort one, and the aborted transaction never replays.
  sim::Rng rng(7);
  dev_->crash(/*survive_p=*/0.0, rng);
  const std::vector<blk::BlockData> crashed = image_of(*dev_);
  EXPECT_TRUE(crashed == pre_abort);

  kern::Kernel fresh;
  auto& copy = fresh.add_device("ssd0", params_);
  for (std::uint64_t b = 0; b < copy.nblocks(); ++b) {
    copy.write_untimed(b, crashed[b]);
  }
  register_all_xv6(fresh);
  ASSERT_EQ(Err::Ok, fresh.mount(fs(), "ssd0", "/mnt"));
  auto& q = fresh.proc();
  EXPECT_FALSE(fresh.open(q, "/mnt/doomed", kern::kORdOnly).ok());
  auto k = fresh.open(q, "/mnt/keep", kern::kORdOnly);
  ASSERT_TRUE(k.ok());
  auto n = fresh.read(q, k.value(), buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(to_string({buf.data(), n.value()}), "survives");
  EXPECT_EQ(Err::Ok, fresh.close(q, k.value()));
  EXPECT_EQ(Err::Ok, fresh.umount("/mnt"));
  // Recovery and a clean unmount write nothing else. The xv6 logs clear
  // their header at every commit, so nothing replays. ext4's journal keeps
  // the last committed record until a mount replays it: the replay
  // rewrites identical home blocks and zeroes the descriptor block.
  std::vector<blk::BlockData> recovered = pre_abort;
  if (fs() == "ext4j") recovered[journal_payload_ - 1] = blk::BlockData{};
  EXPECT_TRUE(image_of(copy) == recovered);

  EXPECT_EQ(Err::Ok, kernel_.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel_.close(p, keep.value()));
  EXPECT_EQ(Err::Ok, kernel_.umount("/mnt"));
}

TEST_P(JournalAbort, ErrorsContinueKeepsServingWithoutRoFlip) {
  mount("errors=continue");
  auto& p = kernel_.proc();

  dev_->inject_write_error(journal_payload_);
  auto fd = kernel_.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(p, fd.value(), as_bytes("data")).ok());
  EXPECT_EQ(kernel_.fsync(p, fd.value()), Err::Io);

  kern::SuperBlock* sb = kernel_.sb_at("/mnt");
  EXPECT_EQ(sb->fs_error_seen(), Err::Io);
  EXPECT_FALSE(sb->read_only());  // continue: no EROFS flip...
  EXPECT_TRUE(kernel_.write(p, fd.value(), as_bytes("more")).ok());
  // ...but the journal stays aborted: durability is gone for good.
  EXPECT_EQ(kernel_.fsync(p, fd.value()), Err::Io);

  EXPECT_EQ(Err::Ok, kernel_.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel_.umount("/mnt"));
}

TEST_P(JournalAbort, AbortedJournalServesEveryLaterOpFromCache) {
  // After an abort under errors=continue, every deployment answers the
  // same way for as long as the mount lives: operations succeed in cache
  // (their blocks stay journal-pinned, never reaching home locations), no
  // commit is attempted again, and every fsync fails with EIO.
  mount("errors=continue,trace=64");
  auto& p = kernel_.proc();

  dev_->inject_write_error(journal_payload_);
  auto fd = kernel_.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_.write(p, fd.value(), as_bytes("data")).ok());
  ASSERT_EQ(kernel_.fsync(p, fd.value()), Err::Io);
  ASSERT_EQ(aborts(), 1u);

  // Enough mkdirs to pass every group-commit trigger many times over:
  // the xv6 logs' op batch and log-space admission, and ext4's
  // 2048-block threshold commit. None of them opens a transaction.
  const blk::Tracer* tr = dev_->tracer();
  const std::uint64_t opened = tr->count(0, blk::TraceEv::TxnOpen);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_EQ(Err::Ok, kernel_.mkdir(p, "/mnt/d" + std::to_string(i)))
        << "mkdir #" << i;
  }
  EXPECT_TRUE(kernel_.stat(p, "/mnt/d2999").ok());
  EXPECT_EQ(tr->count(0, blk::TraceEv::TxnOpen), opened);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(kernel_.fsync(p, fd.value()), Err::Io);
    EXPECT_EQ(aborts(), 1u);
  }

  EXPECT_EQ(Err::Ok, kernel_.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel_.umount("/mnt"));
}

INSTANTIATE_TEST_SUITE_P(Journals, JournalAbort,
                         ::testing::Values("xv6_bento", "xv6_vfs", "ext4j"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(TransientRetry, RetriedToSuccessLeavesNoResidualError) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed, "retries=4,retry_backoff_us=100");
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  auto fd = kernel.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("retried fine")).ok());

  // One controller hiccup on the next bio: the request queue reissues it
  // after the backoff and the op completes — the caller never knows.
  bed.dev->inject_transient_errors(1);
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Ok);
  EXPECT_GE(bed.dev->queue().stats().retries, 1u);
  EXPECT_GE(bed.dev->queue().stats().retry_successes, 1u);

  // No residual: no abort, no RO flip, no error at the next fsync.
  EXPECT_EQ(log_stats(kernel).log_aborted, 0u);
  EXPECT_FALSE(kernel.sb_at("/mnt")->read_only());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Ok);

  // The data actually landed.
  std::vector<std::byte> buf(32);
  auto r = kernel.pread(p, fd.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "retried fine");

  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

}  // namespace
}  // namespace bsim::test
