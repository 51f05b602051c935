#include "xv6fs/log.h"

#include <cassert>
#include <cstring>

#include "sim/thread.h"

namespace bsim::xv6 {

using bento::BufferHeadHandle;
using bento::SuperBlockCap;
using bento::WriteTicket;
using kern::Err;

Err Log::init(SuperBlockCap& sb, const DiskSuperblock& dsb,
              Durability durability, const kern::MountOptions& mo) {
  adopt({dsb, durability, !mo.nogroup, !mo.nopipeline, stats_});

  // Crash recovery: a non-empty header means a committed-but-uninstalled
  // transaction; replay it (synchronously — nothing to overlap with).
  LogHeader header;
  BSIM_TRY(read_header(sb, header));
  if (header.n > 0) {
    stats_.recoveries += 1;
    BSIM_TRY(install(sb, header, /*recovering=*/true));
    header = LogHeader{};
    BSIM_TRY(write_header(sb, header));
    if (durability_ == Durability::Strict) {
      sb.flush_all();
    } else {
      // Replayed state sits in the volatile device cache; make sure the
      // first fsync does not skip its barrier.
      commits_since_flush_ = 1;
    }
  }
  return Err::Ok;
}

void Log::adopt(const Snapshot& snap) {
  dsb_ = snap.dsb;
  durability_ = snap.durability;
  group_ = snap.group;
  pipeline_ = kern::CommitPipeline<WriteTicket>(snap.pipeline);
  stats_ = snap.stats;
  txn_.clear();
  outstanding_ = 0;
  commits_since_flush_ = 0;
}

void Log::begin_op(SuperBlockCap& sb, std::uint32_t reserved) {
  assert(reserved <= kMaxOpBlocks);
  (void)reserved;
  // xv6's log-space reservation, made group-commit-safe: every open op
  // may still log up to kMaxOpBlocks, so admission requires headroom for
  // ALL of them (pending + (outstanding+1)*kMaxOpBlocks <= kLogSize —
  // exactly xv6's begin_op condition). With nothing outstanding we can
  // commit the pooled batch to make space; otherwise wait for the open
  // ops to close (xv6 sleeps on the log; here we yield virtual time and
  // re-check — the open ops only need bounded device time to finish).
  // (After an abort nothing is pooled: only open ops hold admission.)
  lock_.acquire();
  while (txn_.size() +
             (static_cast<std::size_t>(outstanding_) + 1) * kMaxOpBlocks >
         kLogSize) {
    if (outstanding_ == 0) {
      (void)commit(sb);
    } else {
      lock_.release();
      sim::current().wait_until(sim::now() + sim::usec(10));
      lock_.acquire();
    }
  }
  // A fresh batch (nothing open, nothing pooled) opens a new transaction.
  if (!txn_.aborted() && outstanding_ == 0 && txn_.empty() &&
      txn_.ops() == 0) {
    txn_seq_ += 1;
    sb.trace_journal(blk::TraceEv::TxnOpen, txn_seq_, 0);
  }
  outstanding_ += 1;
  lock_.release();
}

void Log::log_write(SuperBlockCap& sb, std::uint32_t blockno) {
  assert(outstanding_ > 0 && "log_write outside a transaction");
  // The journal owns this dirty buffer until the commit installs it:
  // background writeback must not land it on media ahead of the commit
  // record (the group-commit WAL invariant).
  sb.pin_journal(blockno);
  // Absorption: a block already in this transaction is not logged twice.
  if (txn_.tag(blockno) == kern::RunningTxn::Tag::Absorbed) {
    stats_.absorbed += 1;
  }
  assert(txn_.size() <= kLogSize && "transaction overflows the log");
}

Err Log::end_op(SuperBlockCap& sb) {
  bento::SemGuard guard(lock_);
  assert(outstanding_ > 0);
  outstanding_ -= 1;
  if (outstanding_ == 0 && !txn_.empty()) {
    txn_.close_op();
    // Group commit: keep absorbing ops until the batch is full, keeping
    // headroom for the next op. fsync (force_commit) commits at once.
    if (txn_.group_full(group_) ||
        txn_.size() >= kern::stripe_aligned(kLogSize - kMaxOpBlocks,
                                            sb.stripe_width())) {
      return commit(sb);
    }
  }
  return Err::Ok;
}

Err Log::force_commit(SuperBlockCap& sb) {
  lock_.acquire();
  // fsync's durability claim covers the pooled transaction, and pooled
  // blocks are journal-pinned (invisible to flush_all's writeback), so
  // the commit below is the ONLY thing that can persist them: wait for
  // any open ops to close first rather than returning with data pinned
  // in memory (xv6 sleeps here too).
  while (outstanding_ > 0) {
    lock_.release();
    sim::current().wait_until(sim::now() + sim::usec(10));
    lock_.acquire();
  }
  if (txn_.aborted()) {
    lock_.release();
    return Err::Io;
  }
  auto wait = [&sb](const WriteTicket& t) { sb.wait(t); };
  Err e = Err::Ok;
  if (!txn_.empty()) {
    e = commit(sb);
    pipeline_.drain(wait);  // fsync: transfers complete before returning
  } else if (pipeline_.empty()) {
    // Nothing pending and nothing in flight: the commit (and its header
    // write) would be a pure no-op — skip it instead of paying for it.
    stats_.empty_commits_skipped += 1;
  } else {
    pipeline_.drain(wait);
  }
  lock_.release();
  return e;
}

bool Log::flush_needed() {
  if (commits_since_flush_ == 0) {
    stats_.flushes_skipped += 1;
    return false;
  }
  return true;
}

Err Log::commit(SuperBlockCap& sb) {
  if (txn_.empty()) return Err::Ok;  // also every commit after an abort
  // Bound the pipeline. Reusing the log area below cannot reorder media:
  // every write of an in-flight commit was already submitted.
  auto wait = [&sb](const WriteTicket& t) { sb.wait(t); };
  pipeline_.reserve(wait);
  const std::vector<std::uint32_t>& pending = txn_.blocks();

  // Stage latencies are measured from here: each stage's histogram records
  // commit-entry -> that stage's transfer completion (ticket done time),
  // so the three nest like a waterfall.
  const sim::Nanos t0 = sim::now();
  sb.trace_journal(blk::TraceEv::TxnClose, txn_seq_,
                   static_cast<std::uint32_t>(pending.size()));

  std::vector<WriteTicket> tickets;
  auto fail = [&](Err e) {
    for (const WriteTicket& t : tickets) sb.wait(t);
    return e;
  };
  // Journal abort (kern::RunningTxn::abort): a journal write failed on
  // media. The commit record is never issued, so recovery finds an empty
  // header and replays nothing; the mount's errors= policy applies.
  auto abort_commit = [&](Err e) {
    if (txn_.abort()) {
      stats_.log_aborted += 1;
      sb.report_fs_error(e);
    }
    return fail(e);
  };

  // 1. Copy modified blocks into the log area and submit the whole run as
  //    ONE async batch: the log area is contiguous, so the request queue
  //    merges it into a single multi-block device command.
  {
    std::vector<BufferHeadHandle> dsts;
    dsts.reserve(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      auto src = sb.bread(pending[i]);  // cached: holds the new contents
      if (!src.ok()) return fail(src.error());
      auto dst = sb.getblk(dsb_.logstart + 1 + static_cast<std::uint32_t>(i));
      if (!dst.ok()) return fail(dst.error());
      std::memcpy(dst.value().data().data(), src.value().data().data(),
                  kBlockSize);
      dst.value().set_dirty();
      dsts.push_back(std::move(dst.value()));
    }
    std::vector<BufferHeadHandle*> batch;
    batch.reserve(dsts.size());
    for (auto& h : dsts) batch.push_back(&h);
    tickets.push_back(sb.sync_batch_async(batch));
    sb.trace_journal(blk::TraceEv::JLogWrite, txn_seq_,
                     static_cast<std::uint32_t>(pending.size()));
    if (tickets.back().ticket.failed) return abort_commit(Err::Io);
    if (tickets.back().ticket.done > 0) {
      stats_.logwrite_lat.record(tickets.back().ticket.done - t0);
    }
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }

  // 2. Commit point: write the header naming the logged blocks. Submitted
  //    after the log run (media order is submission order), completion
  //    rides its ticket.
  LogHeader header;
  header.n = static_cast<std::uint32_t>(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    header.blocks[i] = pending[i];
  }
  {
    const Err e = write_header_async(sb, header, tickets);
    if (e != Err::Ok) return fail(e);  // tickets already out: redeem them
    // The commit record itself failed: the transaction never committed.
    // Abort BEFORE installing — writing home locations without a durable
    // commit record would put uncommitted state on media unprotected.
    if (tickets.back().ticket.failed) return abort_commit(Err::Io);
    sb.trace_journal(blk::TraceEv::JCommitRecord, txn_seq_, 1);
    if (tickets.back().ticket.done > 0) {
      stats_.record_lat.record(tickets.back().ticket.done - t0);
    }
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }

  // 3+4. Install to home locations, then clear the header. In Strict
  //      mode the FLUSH barrier between them is issued through the
  //      non-blocking flush so the pipeline still overlaps its completion.
  {
    const Err e = install(sb, header, /*recovering=*/false, &tickets);
    if (e != Err::Ok) return fail(e);
    sb.trace_journal(blk::TraceEv::JCheckpoint, txn_seq_, header.n);
    if (tickets.back().ticket.done > 0) {
      stats_.checkpoint_lat.record(tickets.back().ticket.done - t0);
    }
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }
  header = LogHeader{};
  {
    const Err e = write_header_async(sb, header, tickets);
    if (e != Err::Ok) return fail(e);
  }
  if (durability_ == Durability::Strict) {
    tickets.push_back(sb.flush_all_async());
  }

  stats_.commits += 1;
  stats_.blocks_logged += pending.size();
  stats_.ops_committed += txn_.ops();
  if (txn_.ops() > 1) stats_.group_commits += 1;
  commits_since_flush_ += 1;
  txn_.clear();

  if (pipeline_.push(std::move(tickets), wait)) stats_.pipelined_commits += 1;
  return Err::Ok;
}

Err Log::install(SuperBlockCap& sb, const LogHeader& header,
                 bool recovering, std::vector<WriteTicket>* out_tickets) {
  // Home locations are scattered, so the batch typically stays several
  // requests — but those spread across the device's channels instead of
  // serializing on one.
  std::vector<BufferHeadHandle> dsts;
  dsts.reserve(header.n);
  if (recovering) {
    // Replay from the log area into the home locations; the log-area
    // reads are one contiguous batched run.
    std::vector<std::uint64_t> log_blocks;
    log_blocks.reserve(header.n);
    for (std::uint32_t i = 0; i < header.n; ++i) {
      log_blocks.push_back(dsb_.logstart + 1 + i);
    }
    auto srcs = sb.bread_batch(log_blocks);
    if (!srcs.ok()) return srcs.error();
    for (std::uint32_t i = 0; i < header.n; ++i) {
      auto dst = sb.getblk(header.blocks[i]);
      if (!dst.ok()) return dst.error();
      std::memcpy(dst.value().data().data(),
                  srcs.value()[i].data().data(), kBlockSize);
      dst.value().set_dirty();
      dsts.push_back(std::move(dst.value()));
    }
  } else {
    // The cache already holds the new contents; write them home.
    for (std::uint32_t i = 0; i < header.n; ++i) {
      auto bh = sb.bread(header.blocks[i]);
      if (!bh.ok()) return bh.error();
      bh.value().set_dirty();
      dsts.push_back(std::move(bh.value()));
    }
  }
  std::vector<BufferHeadHandle*> batch;
  batch.reserve(dsts.size());
  for (auto& h : dsts) batch.push_back(&h);
  const WriteTicket ticket = sb.sync_batch_async(batch);
  if (out_tickets != nullptr) {
    out_tickets->push_back(ticket);  // pipelined: caller carries it
  } else {
    if (durability_ == Durability::Strict) sb.flush_all();
    sb.wait(ticket);
  }
  return Err::Ok;
}

Err Log::write_header(SuperBlockCap& sb, const LogHeader& header) {
  auto bh = sb.getblk(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  std::memcpy(bh.value().data().data(), &header, sizeof(header));
  bh.value().set_dirty();
  bh.value().sync();
  return Err::Ok;
}

Err Log::write_header_async(SuperBlockCap& sb, const LogHeader& header,
                            std::vector<WriteTicket>& tickets) {
  auto bh = sb.getblk(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  std::memcpy(bh.value().data().data(), &header, sizeof(header));
  bh.value().set_dirty();
  BufferHeadHandle h = std::move(bh.value());
  BufferHeadHandle* ph = &h;
  tickets.push_back(sb.sync_batch_async(std::span<BufferHeadHandle* const>(
      &ph, 1)));
  return Err::Ok;
}

Err Log::read_header(SuperBlockCap& sb, LogHeader& out) {
  auto bh = sb.bread(dsb_.logstart);
  if (!bh.ok()) return bh.error();
  std::memcpy(&out, bh.value().data().data(), sizeof(out));
  return Err::Ok;
}

}  // namespace bsim::xv6
