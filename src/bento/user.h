// Userspace Bento (paper §4.9, Figure 1b): the same file-operations API
// served outside the kernel, so the identical file-system code can run
// under a userspace debugger or behind the FUSE transport.
//
//   UserBlockBackend — BentoKS-User: block I/O through the host file
//       interface. The disk is opened O_DIRECT; a small userspace block
//       cache stands in for the buffer cache; a *synchronous* block write
//       is pwrite + fsync of the whole disk file — the §6.4 behaviour that
//       dominates the FUSE numbers.
//   MemBlockBackend  — pure in-memory backend for the debugging rig and
//       unit tests (no kernel at all).
//   UserMount        — the framework object that owns the backend and the
//       capability, and dispatches calls with borrow checking, mirroring
//       BentoModule's caller-side contract.
//   StackedFs        — base for a file system stacked over a UserMount
//       (paper §3.4): forwards every op the layer does not transform.
#pragma once

#include <functional>
#include <list>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bento/api.h"
#include "kernel/kernel.h"
#include "kernel/uring.h"

namespace bsim::bento {

/// BentoKS-User block backend over a /dev file (O_DIRECT).
class UserBlockBackend final : public BlockBackend {
 public:
  /// With `use_uring`, durable writes and flushes batch their pwrites and
  /// the trailing fsync into one io_uring_enter (paper §8.1) instead of
  /// one syscall each. The whole-file fsync *semantics* are unchanged —
  /// only crossing costs shrink (see bench_ablation_uring).
  UserBlockBackend(kern::Kernel& kernel, kern::Process& proc, int fd,
                   std::uint64_t nblocks, std::size_t cache_blocks = 4096,
                   bool use_uring = false);
  ~UserBlockBackend() override;

  [[nodiscard]] std::uint64_t nblocks() const override { return nblocks_; }
  void flush_all() override;

  struct Stats {
    std::uint64_t preads = 0;
    std::uint64_t pwrites = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t uring_enters = 0;  // batched submissions (0 w/o uring)
  };
  [[nodiscard]] const Stats& io_stats() const { return stats_; }

 protected:
  kern::Result<BufferHeadHandle> bread(std::uint64_t blockno) override;
  kern::Result<BufferHeadHandle> getblk(std::uint64_t blockno) override;
  std::span<std::byte> bh_data(void* impl) override;
  void bh_set_dirty(void* impl) override;
  void bh_sync(void* impl) override;
  void bh_sync_batch(std::span<void* const> impls) override;
  void bh_release(void* impl) override;

 private:
  struct UserBuf {
    std::uint64_t blockno = 0;
    bool uptodate = false;
    bool dirty = false;
    int refcount = 0;
    std::array<std::byte, blk::kBlockSize> data{};
  };

  kern::Result<UserBuf*> get_buf(std::uint64_t blockno, bool read);
  void evict_if_needed();
  /// Queue one block pwrite on the ring, submitting first if the SQ is
  /// full; then drain completions if `finish`.
  void ring_write(const UserBuf& buf);
  void ring_finish(bool fsync);

  kern::Kernel* kernel_;
  kern::Process* proc_;
  int fd_;
  std::uint64_t nblocks_;
  std::size_t cache_blocks_;
  /// Cached buffers indexed by block number (null when not cached); grows
  /// to the highest block touched so far.
  std::vector<std::unique_ptr<UserBuf>> cache_;
  std::size_t nr_cached_ = 0;
  std::list<std::uint64_t> lru_;
  std::unique_ptr<kern::IoUring> ring_;  // null unless use_uring
  Stats stats_;
};

/// In-memory backend for the debugging rig and tests; block ops carry the
/// kernel-cache cost model so timing-sensitive logic still runs, but there
/// is no device underneath.
class MemBlockBackend final : public BlockBackend {
 public:
  explicit MemBlockBackend(std::uint64_t nblocks);
  ~MemBlockBackend() override;

  [[nodiscard]] std::uint64_t nblocks() const override { return nblocks_; }
  void flush_all() override {}

 protected:
  kern::Result<BufferHeadHandle> bread(std::uint64_t blockno) override;
  kern::Result<BufferHeadHandle> getblk(std::uint64_t blockno) override;
  std::span<std::byte> bh_data(void* impl) override;
  void bh_set_dirty(void* impl) override;
  void bh_sync(void*) override {}
  void bh_release(void* impl) override;

 private:
  struct MemBuf {
    // Block data first, so it keeps the allocation's alignment: file
    // systems read on-disk structs (Dinode) in place.
    std::array<std::byte, blk::kBlockSize> data{};
    int refcount = 0;
  };
  std::uint64_t nblocks_;
  std::unordered_map<std::uint64_t, std::unique_ptr<MemBuf>> blocks_;
};

/// Framework object for userspace deployments: owns a backend, mints the
/// SuperBlockCap, and lends it per call with ledger checking.
class UserMount {
 public:
  UserMount(std::unique_ptr<BlockBackend> backend,
            std::unique_ptr<FileSystem> fs);
  ~UserMount();

  /// fs->init through the framework. Must be called before dispatching.
  Err mount_init();
  /// fs->destroy + flush.
  void unmount();
  /// Crash testing: drop the mount with no flush and no destroy — the
  /// simulated machine lost power. The destructor then tears down state
  /// without running any orderly-shutdown file-system code.
  void abandon() { mounted_ = false; }

  [[nodiscard]] FileSystem& fs() { return *fs_; }
  [[nodiscard]] const BorrowLedger& ledger() const { return ledger_; }

  /// Lend the capability for one call into the file system.
  [[nodiscard]] SbRef borrow() { return SbRef(cap_, ledger_); }
  [[nodiscard]] Request mkreq() {
    Request r;
    r.unique = next_unique_++;
    return r;
  }
  /// Assert the ownership contract after a dispatched call.
  void check_borrows() const {
    assert(ledger_.balanced() && "file system escaped a borrowed capability");
  }

  /// Dispatch one op into the mounted file system under the caller-side
  /// contract: a fresh request, the capability lent for this call only,
  /// and the ledger checked on return. `op` is a FileSystem member, e.g.
  /// `mount.call(&FileSystem::getattr, ino)`; void ops such as forget work
  /// too.
  template <class Op, class... Args>
  auto call(Op op, Args&&... args) {
    using R = std::invoke_result_t<Op, FileSystem&, Request, SbRef, Args...>;
    if constexpr (std::is_void_v<R>) {
      std::invoke(op, *fs_, mkreq(), borrow(), std::forward<Args>(args)...);
      check_borrows();
    } else {
      R r = std::invoke(op, *fs_, mkreq(), borrow(),
                        std::forward<Args>(args)...);
      check_borrows();
      return r;
    }
  }

  /// Online upgrade at user level (same semantics as BentoModule::upgrade).
  Err upgrade(std::unique_ptr<FileSystem> next);

 private:
  std::unique_ptr<BlockBackend> backend_;
  SuperBlockCap cap_;
  BorrowLedger ledger_;
  std::unique_ptr<FileSystem> fs_;
  std::uint64_t next_unique_ = 1;
  bool mounted_ = false;
};

/// A file system stacked over another Bento mount (paper §3.4): one
/// FileSystem calls the next directly through UserMount::call, with no VFS
/// re-entry. Every namespace, file, directory and whole-fs op is forwarded
/// to the lower mount unchanged, so a layer overrides only the ops it
/// transforms. read_bulk/write_bulk are not forwarded: the FileSystem
/// defaults loop the layer's own read/write, so a data transform sees
/// every page. The incoming request and capability belong to this layer's
/// own mount and are not passed down.
class StackedFs : public FileSystem {
 public:
  /// `lower` must already be mount_init()ed.
  explicit StackedFs(std::shared_ptr<UserMount> lower)
      : lower_(std::move(lower)) {}

  /// The lower mount: layers call through it, and tests inspect the data
  /// at rest through it.
  [[nodiscard]] UserMount& lower() { return *lower_; }

  // init, destroy and sync_fs tolerate a lower mount that an online
  // upgrade transferred away (§4.8): there is nothing left to sync.
  Err init(const Request& req, SbRef sb) override;
  void destroy(const Request& req, SbRef sb) override;
  Err sync_fs(const Request& req, SbRef sb) override;

  Result<EntryOut> lookup(const Request& req, SbRef sb, Ino parent,
                          std::string_view name) override;
  Result<FileAttr> getattr(const Request& req, SbRef sb, Ino ino) override;
  Result<FileAttr> setattr(const Request& req, SbRef sb, Ino ino,
                           const SetAttrIn& attr) override;
  Result<EntryOut> create(const Request& req, SbRef sb, Ino parent,
                          std::string_view name, std::uint32_t mode) override;
  Result<EntryOut> mkdir(const Request& req, SbRef sb, Ino parent,
                         std::string_view name, std::uint32_t mode) override;
  Err unlink(const Request& req, SbRef sb, Ino parent,
             std::string_view name) override;
  Err rmdir(const Request& req, SbRef sb, Ino parent,
            std::string_view name) override;
  Err rename(const Request& req, SbRef sb, Ino old_parent,
             std::string_view old_name, Ino new_parent,
             std::string_view new_name) override;
  void forget(const Request& req, SbRef sb, Ino ino) override;

  Result<std::uint64_t> open(const Request& req, SbRef sb, Ino ino,
                             int flags) override;
  Err release(const Request& req, SbRef sb, Ino ino,
              std::uint64_t fh) override;
  Result<std::uint32_t> read(const Request& req, SbRef sb, Ino ino,
                             std::uint64_t fh, std::uint64_t off,
                             std::span<std::byte> out) override;
  Result<std::uint32_t> write(const Request& req, SbRef sb, Ino ino,
                              std::uint64_t fh, std::uint64_t off,
                              std::span<const std::byte> in) override;
  Err fsync(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
            bool datasync) override;

  Result<std::uint64_t> opendir(const Request& req, SbRef sb, Ino ino) override;
  Err releasedir(const Request& req, SbRef sb, Ino ino,
                 std::uint64_t fh) override;
  Err readdir(const Request& req, SbRef sb, Ino ino, std::uint64_t& pos,
              const DirFiller& fill) override;
  Err fsyncdir(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
               bool datasync) override;
  Result<StatfsOut> statfs(const Request& req, SbRef sb) override;

 protected:
  // shared_ptr (not unique_ptr) because an upgrade hands the mount over
  // in a TransferableState, whose std::any contents must be
  // copy-constructible; ownership is still exclusive in practice.
  std::shared_ptr<UserMount> lower_;
};

}  // namespace bsim::bento
