#include "kernel/blockmap.h"

#include <algorithm>
#include <cstring>

#include "kernel/page_cache.h"

namespace bsim::kern {

namespace {
constexpr std::uint64_t kBlockSize = blk::kBlockSize;

std::uint32_t* entries(BufferHead* bh) {
  return reinterpret_cast<std::uint32_t*>(bh->bytes().data());
}
}  // namespace

Result<std::uint32_t> BlockMap::fill(std::uint32_t& slot, bool alloc,
                                     std::uint32_t goal) {
  if (slot == 0 && alloc) {
    auto r = ops_.map_alloc(goal);
    if (!r.ok()) return r;
    slot = r.value();
  }
  return slot;
}

Result<std::uint32_t> BlockMap::entry(std::uint32_t blockno, std::uint64_t i,
                                      bool alloc, std::uint32_t goal) {
  auto bh = bc_.bread(blockno);
  if (!bh.ok()) return bh.error();
  std::uint32_t* ent = entries(bh.value());
  std::uint32_t addr = ent[i];
  if (addr == 0 && alloc) {
    auto r = ops_.map_alloc(goal);
    if (!r.ok()) {
      bc_.brelse(bh.value());
      return r;
    }
    addr = ent[i] = r.value();
    bc_.mark_dirty(bh.value());
    ops_.map_journal(blockno);
  }
  bc_.brelse(bh.value());
  return addr;
}

Result<std::uint32_t> BlockMap::bmap(const BlockSlots& s, std::uint64_t bn,
                                     bool alloc) {
  counts_.bmap_calls += 1;
  const std::uint64_t ndirect = s.direct.size();
  if (bn >= ndirect + kNIndirect + kNIndirect * kNIndirect) return Err::FBig;
  if (bn < ndirect) return fill(s.direct[bn], alloc, s.goal);
  bn -= ndirect;
  const bool single = bn < kNIndirect;
  if (!single) bn -= kNIndirect;
  auto top = fill(single ? s.indirect : s.dindirect, alloc, s.goal);
  if (!top.ok() || top.value() == 0) return top;
  if (single) return entry(top.value(), bn, alloc, s.goal);
  auto mid = entry(top.value(), bn / kNIndirect, alloc, s.goal);
  if (!mid.ok() || mid.value() == 0) return mid;
  return entry(mid.value(), bn % kNIndirect, alloc, s.goal);
}

Err BlockMap::append_entries(std::uint32_t blockno, std::uint64_t first,
                             std::uint64_t stop,
                             std::vector<std::uint32_t>& out) {
  if (blockno == 0) {
    out.insert(out.end(), stop - first, 0);
    return Err::Ok;
  }
  auto bh = bc_.bread(blockno);
  if (!bh.ok()) return bh.error();
  counts_.map_indirect_reads += 1;
  const std::uint32_t* ent = entries(bh.value());
  out.insert(out.end(), ent + first, ent + stop);
  bc_.brelse(bh.value());
  return Err::Ok;
}

Err BlockMap::map_run(const BlockSlots& s, std::uint64_t bn,
                      std::size_t count, std::vector<std::uint32_t>& out) {
  counts_.map_runs += 1;
  counts_.map_run_blocks += count;
  out.reserve(out.size() + count);
  const std::uint64_t ndirect = s.direct.size();
  std::uint64_t cur = bn;
  const std::uint64_t end = bn + count;
  if (end > ndirect + kNIndirect + kNIndirect * kNIndirect) return Err::FBig;

  // Direct slots: straight off the in-core inode, no device access.
  for (; cur < end && cur < ndirect; ++cur) out.push_back(s.direct[cur]);

  // Single-indirect overlap: ONE bread covers every entry in the run.
  if (cur < end && cur - ndirect < kNIndirect) {
    const std::uint64_t stop = std::min(end - ndirect, kNIndirect);
    BSIM_TRY(append_entries(s.indirect, cur - ndirect, stop, out));
    cur = ndirect + stop;
  }

  // Double-indirect overlap: one L1 bread for the leaves the run touches,
  // then one bread per leaf (each leaf maps kNIndirect blocks).
  if (cur < end) {
    const std::uint64_t first = cur - ndirect - kNIndirect;
    const std::uint64_t last = end - ndirect - kNIndirect;
    std::vector<std::uint32_t> leaves;
    BSIM_TRY(append_entries(s.dindirect, first / kNIndirect,
                            (last - 1) / kNIndirect + 1, leaves));
    for (std::uint64_t i = 0; i < leaves.size(); ++i) {
      const std::uint64_t base = (first / kNIndirect + i) * kNIndirect;
      BSIM_TRY(append_entries(leaves[i], std::max(first, base) - base,
                              std::min(last, base + kNIndirect) - base, out));
    }
  }
  return Err::Ok;
}

Err BlockMap::free_from(std::uint32_t blockno, std::uint64_t from,
                        int depth) {
  auto bh = bc_.bread(blockno);
  if (!bh.ok()) return bh.error();
  std::uint32_t* ent = entries(bh.value());
  const std::uint64_t per_entry = depth == 1 ? 1 : kNIndirect;
  bool touched = false;
  for (std::uint64_t i = from / per_entry; i < kNIndirect; ++i) {
    if (ent[i] == 0) continue;
    const std::uint64_t start =
        from > i * per_entry ? from - i * per_entry : 0;
    Err e = depth == 1 ? Err::Ok : free_from(ent[i], start, depth - 1);
    if (e == Err::Ok && start == 0) e = ops_.map_free(ent[i]);
    if (e != Err::Ok) {
      bc_.brelse(bh.value());
      return e;
    }
    if (start == 0) {
      ent[i] = 0;
      touched = true;
    }
  }
  if (touched) {
    bc_.mark_dirty(bh.value());
    ops_.map_journal(blockno);
  }
  bc_.brelse(bh.value());
  return Err::Ok;
}

Err BlockMap::truncate(const BlockSlots& s, std::uint64_t new_size) {
  const std::uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;
  const std::uint64_t ndirect = s.direct.size();
  for (std::uint64_t bn = keep; bn < ndirect; ++bn) {
    if (s.direct[bn] != 0) {
      BSIM_TRY(ops_.map_free(s.direct[bn]));
      s.direct[bn] = 0;
    }
  }
  // Each root maps the file blocks from `base` on, and goes too when
  // nothing it maps is kept.
  const std::pair<std::uint32_t&, int> roots[] = {{s.indirect, 1},
                                                  {s.dindirect, 2}};
  std::uint64_t base = ndirect;
  for (const auto& [root, depth] : roots) {
    if (root != 0) {
      const std::uint64_t from = keep > base ? keep - base : 0;
      BSIM_TRY(free_from(root, from, depth));
      if (from == 0) {
        BSIM_TRY(ops_.map_free(root));
        root = 0;
      }
    }
    base += kNIndirect;
  }
  return Err::Ok;
}

Err BlockMap::readpage(const BlockSlots& s, std::uint64_t size,
                       std::uint64_t pgoff, std::span<std::byte> out) {
  const std::uint64_t off = pgoff * kPageSize;
  std::uint64_t done = 0;
  while (done < out.size() && off + done < size) {
    auto addr = bmap(s, (off + done) / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize, out.size() - done));
    if (addr.value() == 0) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      auto bh = bc_.bread(addr.value());
      if (!bh.ok()) return bh.error();
      std::memcpy(out.data() + done, bh.value()->bytes().data(), chunk);
      bc_.brelse(bh.value());
    }
    done += chunk;
  }
  if (done < out.size()) std::memset(out.data() + done, 0, out.size() - done);
  return Err::Ok;
}

Err BlockMap::write(const BlockSlots& s, std::uint64_t off,
                    std::span<const std::byte> in) {
  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = off + done;
    const std::size_t within = static_cast<std::size_t>(pos % kBlockSize);
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - within, in.size() - done));
    auto addr = bmap(s, pos / kBlockSize, true);
    if (!addr.ok()) return addr.error();
    // Full-block overwrite skips the read-modify-write (the
    // block_write_begin full-page shortcut).
    auto bh = chunk == kBlockSize ? bc_.getblk(addr.value())
                                  : bc_.bread(addr.value());
    if (!bh.ok()) return bh.error();
    std::memcpy(bh.value()->bytes().data() + within, in.data() + done, chunk);
    bc_.mark_dirty(bh.value());
    ops_.map_journal(addr.value());
    bc_.brelse(bh.value());
    done += chunk;
  }
  return Err::Ok;
}

Err BlockMap::zero_block_tail(const BlockSlots& s, std::uint64_t from) {
  const std::size_t within = static_cast<std::size_t>(from % kBlockSize);
  if (within == 0) return Err::Ok;
  auto addr = bmap(s, from / kBlockSize, false);
  if (!addr.ok()) return addr.error();
  if (addr.value() == 0) return Err::Ok;
  auto bh = bc_.bread(addr.value());
  if (!bh.ok()) return bh.error();
  std::memset(bh.value()->bytes().data() + within, 0, kBlockSize - within);
  bc_.mark_dirty(bh.value());
  ops_.map_journal(addr.value());
  bc_.brelse(bh.value());
  return Err::Ok;
}

Err BlockMap::readdir(const BlockSlots& s, std::uint64_t size,
                      std::uint64_t& pos,
                      const std::function<bool(DirEnt&)>& emit) {
  while (pos + sizeof(DirSlot) <= size) {
    auto addr = bmap(s, pos / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    DirSlot de{};
    if (addr.value() != 0) {
      auto bh = bc_.bread(addr.value());
      if (!bh.ok()) return bh.error();
      std::memcpy(&de, bh.value()->bytes().data() + pos % kBlockSize,
                  sizeof(de));
      bc_.brelse(bh.value());
    }
    pos += sizeof(DirSlot);
    if (de.inum == 0) continue;
    DirEnt out;
    out.ino = de.inum;
    out.name = de.name_view();
    if (!emit(out)) break;
  }
  return Err::Ok;
}

Result<bool> BlockMap::scan_dir(const BlockSlots& s, std::uint64_t size,
                               const DirVisitor& visit) {
  for (std::uint64_t off = 0; off < size; off += kBlockSize) {
    auto addr = bmap(s, off / kBlockSize, false);
    if (!addr.ok()) return addr.error();
    if (addr.value() == 0) continue;
    auto bh = bc_.bread(addr.value());
    if (!bh.ok()) return bh.error();
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        kBlockSize / sizeof(DirSlot),
        (size - off + sizeof(DirSlot) - 1) / sizeof(DirSlot)));
    auto* slots = reinterpret_cast<DirSlot*>(bh.value()->bytes().data());
    const bool stop = visit(off, *bh.value(), {slots, n});
    bc_.brelse(bh.value());
    if (stop) return true;
  }
  return false;
}

}  // namespace bsim::kern
