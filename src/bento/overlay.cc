#include "bento/overlay.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <vector>

namespace bsim::bento {

using kern::Err;

OverlayFs::OverlayFs(std::unique_ptr<UserMount> lower,
                     std::unique_ptr<UserMount> upper)
    : lower_(std::move(lower)), upper_(std::move(upper)) {
  Node root;
  root.upper = kRootIno;
  root.lower = kRootIno;
  root.parent = kRootIno;
  root.is_dir = true;
  nodes_[kRootIno] = root;
}

Err OverlayFs::init(const Request&, SbRef) { return Err::Ok; }

void OverlayFs::destroy(const Request&, SbRef) {
  (void)upper_->call(&FileSystem::sync_fs);
}

OverlayFs::Node& OverlayFs::node_of(Ino ov_ino) {
  auto it = nodes_.find(ov_ino);
  assert(it != nodes_.end() && "unknown overlay ino");
  return it->second;
}

Ino OverlayFs::intern(const Node& node) {
  const std::string key =
      std::to_string(node.parent) + "/" + node.name;
  auto it = by_path_.find(key);
  if (it != by_path_.end()) {
    nodes_[it->second] = node;
    return it->second;
  }
  const Ino ino = next_ino_++;
  nodes_[ino] = node;
  by_path_[key] = ino;
  return ino;
}

Result<EntryOut> OverlayFs::lookup(const Request&, SbRef, Ino parent,
                                   std::string_view name) {
  Node& dir = node_of(parent);
  Node node;
  node.parent = parent;
  node.name = std::string(name);

  bool whiteout = false;
  if (dir.upper != 0) {
    // Whiteout masks the lower layer.
    whiteout =
        upper_->call(&FileSystem::lookup, dir.upper, whiteout_of(name)).ok();
    auto up = upper_->call(&FileSystem::lookup, dir.upper, name);
    if (up.ok()) {
      node.upper = up.value().ino;
      node.is_dir = up.value().attr.kind == kern::FileType::Directory;
    }
  }
  if (!whiteout && dir.lower != 0) {
    auto low = lower_->call(&FileSystem::lookup, dir.lower, name);
    if (low.ok()) {
      node.lower = low.value().ino;
      if (node.upper == 0) {
        node.is_dir = low.value().attr.kind == kern::FileType::Directory;
      }
    }
  }
  if (node.upper == 0 && node.lower == 0) return Err::NoEnt;

  const Ino ov = intern(node);
  EntryOut out;
  out.ino = ov;
  auto a = attr_of(ov);
  if (!a.ok()) return a.error();
  out.attr = a.value();
  return out;
}

Result<FileAttr> OverlayFs::getattr(const Request&, SbRef, Ino ino) {
  return attr_of(ino);
}

Result<FileAttr> OverlayFs::attr_of(Ino ino) {
  const Node& n = node_of(ino);
  Result<FileAttr> a = Err::NoEnt;
  if (n.upper != 0) {
    a = upper_->call(&FileSystem::getattr, n.upper);
  } else if (n.lower != 0) {
    a = lower_->call(&FileSystem::getattr, n.lower);
  }
  if (!a.ok()) return a;
  auto attr = a.value();
  attr.ino = ino;
  return attr;
}

Result<Ino> OverlayFs::ensure_upper_dir(Ino ov_ino) {
  Node& n = node_of(ov_ino);
  if (n.upper != 0) return n.upper;
  assert(n.is_dir);
  auto parent_upper = ensure_upper_dir(n.parent);
  if (!parent_upper.ok()) return parent_upper;
  auto made =
      upper_->call(&FileSystem::mkdir, parent_upper.value(), n.name, 0755);
  if (!made.ok() && made.error() == Err::Exist) {
    auto found =
        upper_->call(&FileSystem::lookup, parent_upper.value(), n.name);
    if (!found.ok()) return found.error();
    n.upper = found.value().ino;
    return n.upper;
  }
  if (!made.ok()) return made.error();
  n.upper = made.value().ino;
  return n.upper;
}

Result<Ino> OverlayFs::copy_up(Ino ov_ino) {
  Node& n = node_of(ov_ino);
  if (n.upper != 0) return n.upper;
  assert(n.lower != 0 && !n.is_dir);

  auto parent_upper = ensure_upper_dir(n.parent);
  if (!parent_upper.ok()) return parent_upper;

  auto attr = lower_->call(&FileSystem::getattr, n.lower);
  if (!attr.ok()) return attr.error();

  auto created = upper_->call(&FileSystem::create, parent_upper.value(),
                              n.name, attr.value().mode);
  if (!created.ok()) return created.error();
  const Ino up = created.value().ino;

  // Copy the contents across layers.
  std::vector<std::byte> buf(1 << 20);
  std::uint64_t off = 0;
  while (off < attr.value().size) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf.size(), attr.value().size - off));
    auto r = lower_->call(&FileSystem::read, n.lower, 0, off,
                          std::span<std::byte>(buf.data(), chunk));
    if (!r.ok()) return r.error();
    auto w = upper_->call(&FileSystem::write, up, 0, off,
                          std::span<const std::byte>(buf.data(), r.value()));
    if (!w.ok()) return w.error();
    off += r.value();
    if (r.value() == 0) break;
  }
  n.upper = up;
  copy_ups_ += 1;
  return up;
}

Result<EntryOut> OverlayFs::create(const Request&, SbRef, Ino parent,
                                   std::string_view name, std::uint32_t mode) {
  // The upper layer decides: a create shadows any lower file of that name.
  auto parent_upper = ensure_upper_dir(parent);
  if (!parent_upper.ok()) return parent_upper.error();
  // Remove a whiteout if present (re-creating a deleted lower file).
  (void)upper_->call(&FileSystem::unlink, parent_upper.value(),
                     whiteout_of(name));
  auto made =
      upper_->call(&FileSystem::create, parent_upper.value(), name, mode);
  if (!made.ok()) return made.error();

  Node node;
  node.parent = parent;
  node.name = std::string(name);
  node.upper = made.value().ino;
  const Ino ov = intern(node);
  EntryOut out = made.value();
  out.ino = ov;
  out.attr.ino = ov;
  return out;
}

Result<EntryOut> OverlayFs::mkdir(const Request&, SbRef, Ino parent,
                                  std::string_view name, std::uint32_t mode) {
  auto parent_upper = ensure_upper_dir(parent);
  if (!parent_upper.ok()) return parent_upper.error();
  (void)upper_->call(&FileSystem::unlink, parent_upper.value(),
                     whiteout_of(name));
  auto made =
      upper_->call(&FileSystem::mkdir, parent_upper.value(), name, mode);
  if (!made.ok()) return made.error();
  Node node;
  node.parent = parent;
  node.name = std::string(name);
  node.upper = made.value().ino;
  node.is_dir = true;
  const Ino ov = intern(node);
  EntryOut out = made.value();
  out.ino = ov;
  out.attr.ino = ov;
  return out;
}

Err OverlayFs::unlink(const Request&, SbRef, Ino parent,
                      std::string_view name) {
  const Node& dir = node_of(parent);
  const bool in_upper =
      dir.upper != 0 &&
      upper_->call(&FileSystem::unlink, dir.upper, name) == Err::Ok;
  return finish_remove(parent, name, in_upper);
}

Err OverlayFs::rmdir(const Request&, SbRef, Ino parent,
                     std::string_view name) {
  // Minimal semantics: rmdir in the upper layer, plus a whiteout for the
  // lower presence (a non-empty upper directory refuses).
  const Node& dir = node_of(parent);
  bool in_upper = false;
  if (dir.upper != 0) {
    Err e = upper_->call(&FileSystem::rmdir, dir.upper, name);
    if (e == Err::NotEmpty) return e;
    in_upper = e == Err::Ok;
  }
  return finish_remove(parent, name, in_upper);
}

Err OverlayFs::finish_remove(Ino parent, std::string_view name,
                             bool removed) {
  // If the name also exists in the lower layer, mask it with a whiteout.
  const Node& dir = node_of(parent);
  if (dir.lower != 0 &&
      lower_->call(&FileSystem::lookup, dir.lower, name).ok()) {
    auto parent_upper = ensure_upper_dir(parent);
    if (!parent_upper.ok()) return parent_upper.error();
    auto wh = upper_->call(&FileSystem::create, parent_upper.value(),
                           whiteout_of(name), 0);
    if (!wh.ok() && wh.error() != Err::Exist) return wh.error();
    removed = true;
  }
  if (!removed) return Err::NoEnt;
  by_path_.erase(std::to_string(parent) + "/" + std::string(name));
  return Err::Ok;
}

Result<FileAttr> OverlayFs::setattr(const Request&, SbRef, Ino ino,
                                    const SetAttrIn& attr) {
  auto up = copy_up(ino);
  if (!up.ok()) return up.error();
  auto r = upper_->call(&FileSystem::setattr, up.value(), attr);
  if (!r.ok()) return r;
  auto a = r.value();
  a.ino = ino;
  return a;
}

Result<std::uint32_t> OverlayFs::read(const Request&, SbRef, Ino ino,
                                      std::uint64_t fh, std::uint64_t off,
                                      std::span<std::byte> out) {
  const Node& n = node_of(ino);
  if (n.upper != 0) {
    return upper_->call(&FileSystem::read, n.upper, fh, off, out);
  }
  return lower_->call(&FileSystem::read, n.lower, fh, off, out);
}

Result<std::uint32_t> OverlayFs::write(const Request&, SbRef, Ino ino,
                                       std::uint64_t fh, std::uint64_t off,
                                       std::span<const std::byte> in) {
  auto up = copy_up(ino);  // no-op if already upper
  if (!up.ok()) return up.error();
  return upper_->call(&FileSystem::write, up.value(), fh, off, in);
}

Err OverlayFs::fsync(const Request&, SbRef, Ino ino, std::uint64_t fh,
                     bool datasync) {
  const Node& n = node_of(ino);
  if (n.upper == 0) return Err::Ok;  // lower layer is read-only
  return upper_->call(&FileSystem::fsync, n.upper, fh, datasync);
}

Err OverlayFs::readdir(const Request&, SbRef, Ino ino, std::uint64_t& pos,
                       const DirFiller& fill) {
  const Node& n = node_of(ino);
  // Collect the merged view, then emit from `pos` (merge needs both sets).
  std::set<std::string> whiteouts;
  std::map<std::string, kern::DirEnt> merged;
  if (n.upper != 0) {
    std::uint64_t p = 0;
    Err e = upper_->call(&FileSystem::readdir, n.upper, p,
                         [&](const kern::DirEnt& de) {
                           if (de.name.starts_with(".wh.")) {
                             whiteouts.insert(de.name.substr(4));
                           } else {
                             merged[de.name] = de;
                           }
                           return true;
                         });
    if (e != Err::Ok) return e;
  }
  if (n.lower != 0) {
    std::uint64_t p = 0;
    Err e = lower_->call(&FileSystem::readdir, n.lower, p,
                         [&](const kern::DirEnt& de) {
                           if (!merged.contains(de.name) &&
                               !whiteouts.contains(de.name)) {
                             merged[de.name] = de;
                           }
                           return true;
                         });
    if (e != Err::Ok) return e;
  }
  std::uint64_t index = 0;
  for (const auto& [name, de] : merged) {
    if (index++ < pos) continue;
    pos = index;
    if (!fill(de)) break;
  }
  return Err::Ok;
}

Result<StatfsOut> OverlayFs::statfs(const Request&, SbRef) {
  return upper_->call(&FileSystem::statfs);
}

Err OverlayFs::sync_fs(const Request&, SbRef) {
  return upper_->call(&FileSystem::sync_fs);
}

}  // namespace bsim::bento
