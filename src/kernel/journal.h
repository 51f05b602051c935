// The journal core of the xv6 `Log` (src/xv6fs/log.*), ext4's jbd
// (src/ext4/ext4.cc) and the C-kernel log (src/xv6fs_c/xv6c.cc): the
// running transaction with its abort latch, the bounded commit pipeline
// and the stripe-aligned commit threshold. Each file system keeps its
// on-disk format, commit stages, recovery, locks, trace calls, stats and
// fsync FLUSH-skip bookkeeping. Nothing here holds a kernel pointer, so
// the capability-only Bento port shares it with the kernel file systems.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <utility>
#include <vector>

namespace bsim::kern {

/// Ops an xv6-style group commit pools before end_op commits (the xv6 Log
/// and the C-kernel log; "nogroup" commits at every op).
inline constexpr std::size_t kGroupCommitOps = 8;

/// The running transaction: home blocks in tag order, the ops closed into
/// it, and the abort latch. After an abort every tag records nothing: the
/// caller's journal pin keeps the buffer off media, and with nothing
/// recorded no commit is attempted (and fails) again.
class RunningTxn {
 public:
  enum class Tag { Added, Absorbed, Dropped };

  /// Record a modified home block; a block already in the transaction is
  /// absorbed and keeps its first position.
  Tag tag(std::uint32_t blockno) {
    if (aborted_) return Tag::Dropped;
    if (!members_.insert(blockno).second) return Tag::Absorbed;
    blocks_.push_back(blockno);
    return Tag::Added;
  }
  void close_op() { ops_ += 1; }
  /// Enough ops have closed to commit the group (every op under nogroup).
  [[nodiscard]] bool group_full(bool group) const {
    return ops_ >= (group ? kGroupCommitOps : 1);
  }

  [[nodiscard]] const std::vector<std::uint32_t>& blocks() const {
    return blocks_;
  }
  [[nodiscard]] std::size_t size() const { return blocks_.size(); }
  [[nodiscard]] bool empty() const { return blocks_.empty(); }
  [[nodiscard]] std::size_t ops() const { return ops_; }
  [[nodiscard]] bool aborted() const { return aborted_; }

  void clear() {
    blocks_.clear();
    members_.clear();
    ops_ = 0;
  }
  /// Latch the abort and drop the transaction. True only for the first
  /// abort: the caller counts and reports that one.
  bool abort() {
    clear();
    const bool first = !aborted_;
    aborted_ = true;
    return first;
  }

 private:
  std::vector<std::uint32_t> blocks_;
  std::unordered_set<std::uint32_t> members_;
  std::size_t ops_ = 0;
  bool aborted_ = false;
};

/// Commits whose writes were all submitted (media effects land at
/// submission, in program order) but whose transfers may still be
/// completing; one entry of tickets per commit. `Wait` redeems a ticket.
template <class Ticket>
class CommitPipeline {
 public:
  static constexpr std::size_t kDepth = 2;  // commits in flight at once

  /// `pipelined = false` is "nopipeline": a commit is redeemed when pushed.
  explicit CommitPipeline(bool pipelined = true) : pipelined_(pipelined) {}

  [[nodiscard]] bool pipelined() const { return pipelined_; }
  [[nodiscard]] bool empty() const { return inflight_.empty(); }

  /// Before a commit: redeem the oldest commits until one more fits.
  template <class Wait>
  void reserve(Wait&& wait) {
    while (inflight_.size() >= kDepth) redeem_oldest(wait);
  }
  /// After a commit: true when its tickets stay in flight, false when they
  /// were redeemed at once (nopipeline) or there were none.
  template <class Wait>
  bool push(std::vector<Ticket> tickets, Wait&& wait) {
    if (!pipelined_) {
      for (const Ticket& t : tickets) wait(t);
      return false;
    }
    if (tickets.empty()) return false;
    inflight_.push_back(std::move(tickets));
    return true;
  }
  /// Redeem every in-flight commit, oldest first (fsync and unmount).
  template <class Wait>
  void drain(Wait&& wait) {
    while (!inflight_.empty()) redeem_oldest(wait);
  }

 private:
  template <class Wait>
  void redeem_oldest(Wait& wait) {
    for (const Ticket& t : inflight_.front()) wait(t);
    inflight_.pop_front();
  }

  std::deque<std::vector<Ticket>> inflight_;
  bool pipelined_;
};

/// A commit threshold cut down to whole stripe rows of `width` blocks, so
/// the checkpoint hands every member of a striped volume a full merged
/// share; `width` 0 (not striped) or not below `cap` leaves it.
[[nodiscard]] inline std::size_t stripe_aligned(std::size_t cap,
                                                std::uint64_t width) {
  if (width > 0 && width < cap) cap -= cap % static_cast<std::size_t>(width);
  return cap;
}

}  // namespace bsim::kern
