// errseq-style writeback error reporting and journal abort with
// read-only degradation (ISSUE 10):
//
//   - ErrSeq report-once semantics (the errseq_t contract): each cursor
//     sees a recorded error exactly once; a cursor sampled after the
//     error sees nothing; a new error re-arms every cursor.
//   - A writeback failure that happened on nobody's clock (background
//     drain) surfaces at each open descriptor's NEXT fsync — once per
//     descriptor, never twice.
//   - A failed journal write aborts the journal: fsync fails with EIO,
//     the mount degrades per its errors= policy (remount-ro default:
//     writes fail EROFS, reads keep serving; errors=continue keeps the
//     mount writable-in-cache but the journal stays dead).
//   - The C-kernel (xv6_vfs) log aborts the same way: a failed log write
//     stops the commit before its commit record, so a crash afterwards
//     recovers the pre-abort image.
//   - A transient fault retried to success by the request queue's
//     RetryPolicy is invisible to fsync: no residual error, no abort.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"
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
  xv6::DiskSuperblock dsb;
};

/// A kernel with a formatted xv6 device mounted at /mnt via Bento.
void make_bed(Bed& bed, std::string_view opts = "") {
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  bed.dev = &bed.kernel.add_device("ssd0", params);
  bed.dsb = xv6::mkfs(*bed.dev, /*ninodes=*/512);
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

TEST(JournalAbort, FailedJournalWriteFlipsMountReadOnly) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed);  // default policy: errors=remount-ro
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  // A healthy committed file, read back after the abort.
  auto keep = kernel.open(p, "/mnt/keep", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(kernel.write(p, keep.value(), as_bytes("survives")).ok());
  ASSERT_EQ(Err::Ok, kernel.fsync(p, keep.value()));

  // Poison the journal area: the log run's first payload block. The next
  // commit's stage-1 write fails before the commit record is ever issued.
  bed.dev->inject_write_error(bed.dsb.logstart + 1);
  auto fd = kernel.open(p, "/mnt/doomed", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("never durable")).ok());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);

  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  EXPECT_TRUE(sb->read_only());
  EXPECT_EQ(sb->fs_error_seen(), Err::Io);
  EXPECT_EQ(log_stats(kernel).log_aborted, 1u);

  // Writes fail with EROFS across the mutating syscalls...
  auto w = kernel.write(p, fd.value(), as_bytes("x"));
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error(), Err::RoFs);
  EXPECT_FALSE(kernel.open(p, "/mnt/new", kern::kOCreat).ok());
  EXPECT_EQ(kernel.mkdir(p, "/mnt/dir"), Err::RoFs);
  EXPECT_EQ(kernel.unlink(p, "/mnt/keep"), Err::RoFs);
  EXPECT_EQ(kernel.rename(p, "/mnt/keep", "/mnt/keep2"), Err::RoFs);

  // ...and a second fsync keeps failing (the journal never recovers in
  // this mount), but does NOT double-count the abort.
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);
  EXPECT_EQ(log_stats(kernel).log_aborted, 1u);

  // Reads keep serving: the pre-abort committed file is intact.
  std::vector<std::byte> buf(16);
  auto r = kernel.pread(p, keep.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string({buf.data(), r.value()}), "survives");

  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel.close(p, keep.value()));
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

TEST(JournalAbort, ErrorsContinueKeepsServingWithoutRoFlip) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  Bed bed;
  make_bed(bed, "errors=continue");
  auto& kernel = bed.kernel;
  auto& p = kernel.proc();

  bed.dev->inject_write_error(bed.dsb.logstart + 1);
  auto fd = kernel.open(p, "/mnt/f", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("data")).ok());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);

  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  EXPECT_EQ(sb->fs_error_seen(), Err::Io);
  EXPECT_FALSE(sb->read_only());  // continue: no EROFS flip...
  EXPECT_TRUE(kernel.write(p, fd.value(), as_bytes("more")).ok());
  // ...but the journal stays aborted: durability is gone for good.
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);

  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
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

TEST(JournalAbort, CKernelLogWriteFailureAbortsBeforeCommitRecord) {
  sim::SimThread thread(0);
  sim::ScopedThread in(thread);
  kern::Kernel kernel;
  blk::DeviceParams params;
  params.nblocks = kBlocks;
  auto& dev = kernel.add_device("ssd0", params);
  const xv6::DiskSuperblock dsb = xv6::mkfs(dev, /*ninodes=*/512);
  xv6c::register_xv6c(kernel, "xv6_vfs");
  ASSERT_EQ(Err::Ok, kernel.mount("xv6_vfs", "ssd0", "/mnt"));
  dev.enable_crash_tracking();
  auto& p = kernel.proc();

  auto keep = kernel.open(p, "/mnt/keep", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(kernel.write(p, keep.value(), as_bytes("survives")).ok());
  ASSERT_EQ(Err::Ok, kernel.fsync(p, keep.value()));
  const std::vector<blk::BlockData> pre_abort = image_of(dev);

  // Poison the log run's first payload block: the next commit's first
  // log write fails, and the commit record must never follow it.
  dev.inject_write_error(dsb.logstart + 1);
  auto fd = kernel.open(p, "/mnt/doomed", kern::kOCreat | kern::kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel.write(p, fd.value(), as_bytes("never durable")).ok());
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);

  kern::SuperBlock* sb = kernel.sb_at("/mnt");
  EXPECT_TRUE(sb->read_only());
  EXPECT_EQ(sb->fs_error_seen(), Err::Io);
  const auto* mnt = static_cast<const xv6c::Xv6cMount*>(sb->fs_info);
  EXPECT_EQ(mnt->log_stats().log_aborted, 1u);
  EXPECT_EQ(kernel.fsync(p, fd.value()), Err::Io);  // the log stays dead
  EXPECT_EQ(mnt->log_stats().log_aborted, 1u);

  // Power loss, then recovery on a copy of what survived: the header is
  // empty, nothing replays, and the image is the pre-abort one.
  sim::Rng rng(7);
  dev.crash(/*survive_p=*/0.0, rng);
  const std::vector<blk::BlockData> crashed = image_of(dev);
  EXPECT_TRUE(crashed == pre_abort);

  kern::Kernel fresh;
  auto& copy = fresh.add_device("ssd0", params);
  for (std::uint64_t b = 0; b < copy.nblocks(); ++b) {
    copy.write_untimed(b, crashed[b]);
  }
  xv6c::register_xv6c(fresh, "xv6_vfs");
  ASSERT_EQ(Err::Ok, fresh.mount("xv6_vfs", "ssd0", "/mnt"));
  auto& q = fresh.proc();
  EXPECT_FALSE(fresh.open(q, "/mnt/doomed", kern::kORdOnly).ok());
  auto r = fresh.open(q, "/mnt/keep", kern::kORdOnly);
  ASSERT_TRUE(r.ok());
  std::vector<std::byte> buf(16);
  auto n = fresh.read(q, r.value(), buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(to_string({buf.data(), n.value()}), "survives");
  EXPECT_EQ(Err::Ok, fresh.close(q, r.value()));
  EXPECT_EQ(Err::Ok, fresh.umount("/mnt"));
  EXPECT_TRUE(image_of(copy) == pre_abort);

  EXPECT_EQ(Err::Ok, kernel.close(p, fd.value()));
  EXPECT_EQ(Err::Ok, kernel.close(p, keep.value()));
  EXPECT_EQ(Err::Ok, kernel.umount("/mnt"));
}

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
