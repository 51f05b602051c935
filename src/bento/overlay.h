// A composable file system (paper §3 / Challenge 6, §3.4): OverlayFS-style
// stacking implemented *against the Bento file-operations API*, the use
// case the paper opens with (Docker's OverlayFS).
//
// The paper asks whether Bento can support composable file systems with "a
// different interface ... that does not introduce this overhead" (calling
// top-level VFS functions per layer). This implementation answers with
// direct FileSystem-to-FileSystem dispatch: the overlay holds its layers as
// Bento mounts and calls their file-operations API directly — one
// indirection per call, no VFS re-entry, no extra path resolution.
//
// Semantics (Docker/overlayfs-like):
//   - lookups hit the upper (writable) layer first, then the lower
//     (read-only) layer, unless masked by a whiteout;
//   - writes to lower-layer files trigger copy-up into the upper layer;
//   - deletes of lower-layer files create whiteout markers (".wh.<name>");
//   - readdir merges both layers and hides whiteouts.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bento/api.h"
#include "bento/user.h"

namespace bsim::bento {

/// Not a StackedFs: overlay inode numbers map onto two layers, so no op
/// passes through unchanged. Each layer call goes through UserMount::call.
class OverlayFs final : public FileSystem {
 public:
  /// `lower` is treated as read-only; `upper` receives all modifications.
  /// Both must already be mount_init()ed.
  OverlayFs(std::unique_ptr<UserMount> lower, std::unique_ptr<UserMount> upper);

  [[nodiscard]] std::string_view version() const override {
    return "overlay-v1";
  }

  kern::Err init(const Request& req, SbRef sb) override;
  void destroy(const Request& req, SbRef sb) override;

  Result<EntryOut> lookup(const Request& req, SbRef sb, Ino parent,
                          std::string_view name) override;
  Result<FileAttr> getattr(const Request& req, SbRef sb, Ino ino) override;
  Result<FileAttr> setattr(const Request& req, SbRef sb, Ino ino,
                           const SetAttrIn& attr) override;
  Result<EntryOut> create(const Request& req, SbRef sb, Ino parent,
                          std::string_view name, std::uint32_t mode) override;
  Result<EntryOut> mkdir(const Request& req, SbRef sb, Ino parent,
                         std::string_view name, std::uint32_t mode) override;
  kern::Err unlink(const Request& req, SbRef sb, Ino parent,
                   std::string_view name) override;
  kern::Err rmdir(const Request& req, SbRef sb, Ino parent,
                  std::string_view name) override;
  Result<std::uint32_t> read(const Request& req, SbRef sb, Ino ino,
                             std::uint64_t fh, std::uint64_t off,
                             std::span<std::byte> out) override;
  Result<std::uint32_t> write(const Request& req, SbRef sb, Ino ino,
                              std::uint64_t fh, std::uint64_t off,
                              std::span<const std::byte> in) override;
  kern::Err fsync(const Request& req, SbRef sb, Ino ino, std::uint64_t fh,
                  bool datasync) override;
  kern::Err readdir(const Request& req, SbRef sb, Ino ino, std::uint64_t& pos,
                    const DirFiller& fill) override;
  Result<StatfsOut> statfs(const Request& req, SbRef sb) override;
  kern::Err sync_fs(const Request& req, SbRef sb) override;

  /// Copy-up count (tests/observability).
  [[nodiscard]] std::uint64_t copy_ups() const { return copy_ups_; }

 private:
  /// An overlay node: where this name resolves in each layer. upper/lower
  /// hold the layer-local inos (0 = absent in that layer).
  struct Node {
    Ino upper = 0;
    Ino lower = 0;
    Ino parent = 0;       // overlay ino of the parent directory
    std::string name;     // name within the parent
    bool is_dir = false;
  };

  static std::string whiteout_of(std::string_view name) {
    return ".wh." + std::string(name);
  }

  Node& node_of(Ino ov_ino);
  Ino intern(const Node& node);
  /// The node's attributes from the layer it resolves in, with the
  /// overlay ino.
  Result<FileAttr> attr_of(Ino ov_ino);

  /// Make sure the node's directory chain exists in the upper layer,
  /// returning the node's upper-layer ino (copy-up of directories).
  Result<Ino> ensure_upper_dir(Ino ov_ino);
  /// Copy a lower-layer file into the upper layer (copy-up on write).
  Result<Ino> copy_up(Ino ov_ino);
  /// The lower-layer half of unlink/rmdir, after the upper layer removed
  /// `name` (`removed`) or lacked it: mask a lower entry with a whiteout
  /// and drop the overlay node. Err::NoEnt if neither layer had it.
  kern::Err finish_remove(Ino parent, std::string_view name, bool removed);

  std::unique_ptr<UserMount> lower_;
  std::unique_ptr<UserMount> upper_;
  std::map<Ino, Node> nodes_;          // overlay ino -> node
  std::map<std::string, Ino> by_path_; // "<parent>/<name>" -> overlay ino
  Ino next_ino_ = kRootIno + 1;
  std::uint64_t copy_ups_ = 0;
};

}  // namespace bsim::bento
