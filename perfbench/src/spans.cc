#include "spans.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "bento/bentofs.h"
#include "fuse/fuse.h"
#include "xv6fs/fs.h"

namespace perfbench {

namespace bento = bsim::bento;
namespace blk = bsim::blk;
namespace kern = bsim::kern;
namespace sim = bsim::sim;

// ---- Recorder ----

void Recorder::begin_request() {
  if (!armed_) return;
  req_thread_ = &sim::current();
  Req r;
  r.first = spans_.size();
  r.v0 = req_thread_->now();
  r.ev0 = emitted();
  reqs_.push_back(r);
}

void Recorder::end_request() {
  if (!armed_ || req_thread_ == nullptr) return;
  Req& r = reqs_.back();
  r.last = spans_.size();
  r.v1 = req_thread_->now();
  r.ev1 = emitted();
  req_thread_ = nullptr;
}

int Recorder::begin(Layer layer, Op op) {
  if (!armed_) return -1;
  const sim::SimThread* cur = sim::current_or_null();
  Span s;
  s.layer = layer;
  s.op = op;
  s.background = req_thread_ == nullptr || cur != req_thread_;
  if (!s.background) {
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (!spans_[static_cast<std::size_t>(*it)].background) {
        s.parent = *it;
        break;
      }
    }
  }
  s.v0 = cur == nullptr ? 0 : cur->now();
  s.ev0 = emitted();
  s.h0 = host_ns();
  spans_.push_back(s);
  const int h = static_cast<int>(spans_.size() - 1);
  open_.push_back(h);
  return h;
}

void Recorder::end(int handle) {
  if (handle < 0) return;
  Span& s = spans_[static_cast<std::size_t>(handle)];
  s.h1 = host_ns();
  const sim::SimThread* cur = sim::current_or_null();
  s.v1 = cur == nullptr ? 0 : cur->now();
  s.ev1 = emitted();
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

namespace {

struct Interval {
  Nanos a, b;
};

// Sorted disjoint union of `iv`.
std::vector<Interval> merge(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  std::vector<Interval> out;
  for (const Interval& i : iv) {
    if (i.b <= i.a) continue;
    if (!out.empty() && i.a <= out.back().b) {
      out.back().b = std::max(out.back().b, i.b);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

bool covered(const std::vector<Interval>& u, Nanos a, Nanos b) {
  auto it = std::upper_bound(
      u.begin(), u.end(), a,
      [](Nanos t, const Interval& i) { return t < i.a; });
  if (it == u.begin()) return false;
  --it;
  return it->a <= a && b <= it->b;
}

}  // namespace

Attribution Recorder::attribute(const std::vector<blk::TraceEvent>& events,
                                const blk::DeviceParams& dev) const {
  Attribution out;
  auto problem = [&out](const std::string& what) {
    if (out.first_problem.empty()) out.first_problem = what;
  };

  // Bio id -> first Q and last C (ids are global across the device tree).
  std::unordered_map<std::uint64_t, Nanos> q_at, c_at;
  for (const blk::TraceEvent& e : events) {
    if (e.ev == blk::TraceEv::Queue) q_at.try_emplace(e.id, e.t);
    if (e.ev == blk::TraceEv::Complete) {
      auto [it, fresh] = c_at.try_emplace(e.id, e.t);
      if (!fresh) it->second = std::max(it->second, e.t);
    }
  }

  for (const Span& s : spans_) {
    if (s.layer == Layer::FsApi) {
      out.fs_calls += 1;
      out.fs_host_ns += s.h1 - s.h0;
    }
  }

  std::vector<int> depth;
  std::vector<Interval> bio;
  std::vector<Nanos> points;
  std::map<std::int32_t, Nanos> last_end;  // sibling order, per parent
  for (const Req& r : reqs_) {
    out.requests += 1;
    depth.assign(r.last - r.first, 0);
    last_end.clear();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> bg;  // event ranges
    for (std::size_t i = r.first; i < r.last; ++i) {
      const Span& s = spans_[i];
      if (s.background) {
        bg.emplace_back(s.ev0, s.ev1);
        continue;
      }
      Nanos p0 = r.v0, p1 = r.v1;
      if (s.parent >= 0) {
        const Span& p = spans_[static_cast<std::size_t>(s.parent)];
        p0 = p.v0;
        p1 = p.v1;
        depth[i - r.first] =
            depth[static_cast<std::size_t>(s.parent) - r.first] + 1;
      } else {
        depth[i - r.first] = 1;
      }
      auto [it, fresh] = last_end.try_emplace(s.parent, p0);
      if (s.v0 < p0 || s.v1 > p1 || s.v1 < s.v0 || s.v0 < it->second) {
        out.bad_nesting += 1;
        problem("span outside its parent or overlapping a sibling");
      }
      it->second = s.v1;
      if (s.layer == Layer::Kernel) {
        out.kernel_calls += 1;
        out.kernel_host_ns += s.h1 - s.h0;
        out.kernel_lat[static_cast<std::size_t>(s.op)].push_back(s.v1 - s.v0);
      }
    }

    // The deepest foreground span open at trace-event ordinal `e`.
    auto issuer = [&](std::uint64_t e) -> const Span* {
      const Span* best = nullptr;
      int best_depth = 0;
      for (std::size_t i = r.first; i < r.last; ++i) {
        const Span& s = spans_[i];
        if (s.background || e < s.ev0 || e >= s.ev1) continue;
        if (depth[i - r.first] > best_depth) {
          best = &s;
          best_depth = depth[i - r.first];
        }
      }
      return best;
    };

    bio.clear();
    for (std::uint64_t e = r.ev0; e < r.ev1 && e < events.size(); ++e) {
      const bool in_bg = std::any_of(bg.begin(), bg.end(), [e](auto& g) {
        return e >= g.first && e < g.second;
      });
      if (in_bg) continue;
      const blk::TraceEvent& ev = events[e];
      Nanos a = 0, b = 0;
      if (ev.ev == blk::TraceEv::Queue) {
        auto c = c_at.find(ev.id);
        if (c == c_at.end()) continue;
        a = ev.t;
        b = c->second;
      } else if (ev.ev == blk::TraceEv::Flush) {
        b = ev.t;
        a = b - dev.flush_base -
            static_cast<Nanos>(ev.nblocks) * dev.destage_per_block;
      } else {
        continue;
      }
      const Span* s = issuer(e);
      const Nanos s0 = s == nullptr ? r.v0 : s->v0;
      const Nanos s1 = s == nullptr ? r.v1 : s->v1;
      if (b > s1) continue;  // async: the issuing span did not wait for it
      bio.push_back({std::max(a, s0), b});
    }
    const std::vector<Interval> dev_busy = merge(bio);

    points.clear();
    points.push_back(r.v0);
    points.push_back(r.v1);
    for (std::size_t i = r.first; i < r.last; ++i) {
      if (spans_[i].background) continue;
      points.push_back(spans_[i].v0);
      points.push_back(spans_[i].v1);
    }
    for (const Interval& i : dev_busy) {
      points.push_back(i.a);
      points.push_back(i.b);
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());

    Nanos total = 0;
    for (std::size_t k = 0; k + 1 < points.size(); ++k) {
      const Nanos a = points[k], b = points[k + 1];
      if (a < r.v0 || b > r.v1) continue;
      Layer layer = Layer::Request;
      if (covered(dev_busy, a, b)) {
        layer = Layer::Blockdev;
      } else {
        int best_depth = 0;
        for (std::size_t i = r.first; i < r.last; ++i) {
          const Span& s = spans_[i];
          if (s.background || s.v0 > a || s.v1 < b) continue;
          if (depth[i - r.first] > best_depth) {
            best_depth = depth[i - r.first];
            layer = s.layer;
          }
        }
      }
      out.self_ns[static_cast<std::size_t>(layer)] += b - a;
      total += b - a;
    }
    if (total != r.v1 - r.v0) {
      out.bad_sums += 1;
      problem("layer self times do not sum to the request span");
    }
  }
  return out;
}

BlockLatency block_latency(const std::vector<blk::TraceEvent>& events) {
  BlockLatency out;
  std::unordered_map<std::uint64_t, Nanos> q_at, d_at;
  for (const blk::TraceEvent& e : events) {
    if (e.ev == blk::TraceEv::Queue) {
      q_at.try_emplace(e.id, e.t);
    } else if (e.ev == blk::TraceEv::Dispatch) {
      if (auto q = q_at.find(e.id); q != q_at.end()) {
        out.disorder += q->second > e.t;
        out.queue_wait.push_back(e.t - q->second);
      }
      d_at[e.id] = e.t;
    } else if (e.ev == blk::TraceEv::Complete) {
      if (auto q = q_at.find(e.id); q != q_at.end()) {
        out.disorder += q->second > e.t;
      }
      if (auto d = d_at.find(e.id); d != d_at.end()) {
        out.disorder += d->second > e.t;
        out.service.push_back(e.t - d->second);
      }
    }
  }
  return out;
}

namespace {

// ---- FS-API decorator: forwards every bento::FileSystem call ----

class SpanFs final : public bento::FileSystem {
 public:
  SpanFs(Recorder& rec, std::unique_ptr<bento::FileSystem> inner)
      : rec_(rec), inner_(std::move(inner)) {}

  using Req = bento::Request;
  using Sb = bento::SbRef;
  using Ino = bento::Ino;

  [[nodiscard]] std::string_view version() const override {
    return inner_->version();
  }
  void apply_mount_opts(std::string_view opts) override {
    inner_->apply_mount_opts(opts);
  }
  void dump_stats(bsim::sim::JsonWriter& w) const override {
    inner_->dump_stats(w);
  }
  kern::Err init(const Req& q, Sb sb) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->init(q, std::move(sb));
  }
  void destroy(const Req& q, Sb sb) override {
    Scope s(&rec_, Layer::FsApi);
    inner_->destroy(q, std::move(sb));
  }
  kern::Result<bento::EntryOut> lookup(const Req& q, Sb sb, Ino parent,
                                       std::string_view name) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->lookup(q, std::move(sb), parent, name);
  }
  kern::Result<bento::FileAttr> getattr(const Req& q, Sb sb,
                                        Ino ino) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->getattr(q, std::move(sb), ino);
  }
  kern::Result<bento::FileAttr> setattr(const Req& q, Sb sb, Ino ino,
                                        const bento::SetAttrIn& a) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->setattr(q, std::move(sb), ino, a);
  }
  kern::Result<bento::EntryOut> create(const Req& q, Sb sb, Ino parent,
                                       std::string_view name,
                                       std::uint32_t mode) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->create(q, std::move(sb), parent, name, mode);
  }
  kern::Result<bento::EntryOut> mkdir(const Req& q, Sb sb, Ino parent,
                                      std::string_view name,
                                      std::uint32_t mode) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->mkdir(q, std::move(sb), parent, name, mode);
  }
  kern::Err unlink(const Req& q, Sb sb, Ino parent,
                   std::string_view name) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->unlink(q, std::move(sb), parent, name);
  }
  kern::Err rmdir(const Req& q, Sb sb, Ino parent,
                  std::string_view name) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->rmdir(q, std::move(sb), parent, name);
  }
  kern::Err rename(const Req& q, Sb sb, Ino op, std::string_view on, Ino np,
                   std::string_view nn) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->rename(q, std::move(sb), op, on, np, nn);
  }
  void forget(const Req& q, Sb sb, Ino ino) override {
    Scope s(&rec_, Layer::FsApi);
    inner_->forget(q, std::move(sb), ino);
  }
  kern::Result<std::uint64_t> open(const Req& q, Sb sb, Ino ino,
                                   int flags) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->open(q, std::move(sb), ino, flags);
  }
  kern::Err release(const Req& q, Sb sb, Ino ino, std::uint64_t fh) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->release(q, std::move(sb), ino, fh);
  }
  kern::Result<std::uint32_t> read(const Req& q, Sb sb, Ino ino,
                                   std::uint64_t fh, std::uint64_t off,
                                   std::span<std::byte> out) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->read(q, std::move(sb), ino, fh, off, out);
  }
  kern::Result<std::uint32_t> read_bulk(
      const Req& q, Sb sb, Ino ino, std::uint64_t off,
      std::span<const std::span<std::byte>> pages) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->read_bulk(q, std::move(sb), ino, off, pages);
  }
  kern::Result<std::uint32_t> write(const Req& q, Sb sb, Ino ino,
                                    std::uint64_t fh, std::uint64_t off,
                                    std::span<const std::byte> in) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->write(q, std::move(sb), ino, fh, off, in);
  }
  kern::Result<std::uint32_t> write_bulk(
      const Req& q, Sb sb, Ino ino, std::uint64_t off,
      std::span<const std::span<const std::byte>> pages) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->write_bulk(q, std::move(sb), ino, off, pages);
  }
  kern::Err fsync(const Req& q, Sb sb, Ino ino, std::uint64_t fh,
                  bool datasync) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->fsync(q, std::move(sb), ino, fh, datasync);
  }
  kern::Result<std::uint64_t> opendir(const Req& q, Sb sb, Ino ino) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->opendir(q, std::move(sb), ino);
  }
  kern::Err releasedir(const Req& q, Sb sb, Ino ino,
                       std::uint64_t fh) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->releasedir(q, std::move(sb), ino, fh);
  }
  kern::Err readdir(const Req& q, Sb sb, Ino ino, std::uint64_t& pos,
                    const bento::DirFiller& fill) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->readdir(q, std::move(sb), ino, pos, fill);
  }
  kern::Err fsyncdir(const Req& q, Sb sb, Ino ino, std::uint64_t fh,
                     bool datasync) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->fsyncdir(q, std::move(sb), ino, fh, datasync);
  }
  kern::Result<bento::StatfsOut> statfs(const Req& q, Sb sb) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->statfs(q, std::move(sb));
  }
  kern::Err sync_fs(const Req& q, Sb sb) override {
    Scope s(&rec_, Layer::FsApi);
    return inner_->sync_fs(q, std::move(sb));
  }
  bento::TransferableState prepare_transfer(const Req& q, Sb sb) override {
    return inner_->prepare_transfer(q, std::move(sb));
  }
  kern::Err restore_state(const Req& q, Sb sb,
                          bento::TransferableState st) override {
    return inner_->restore_state(q, std::move(sb), std::move(st));
  }

 private:
  Recorder& rec_;
  std::unique_ptr<bento::FileSystem> inner_;
};

// ---- VFS-boundary shim: forwards every operation a mount's inodes and
// superblock dispatch to, and re-points each inode it hands back ----

class SpanOps final : public kern::InodeOps,
                      public kern::FileOps,
                      public kern::SuperOps,
                      public kern::AddressSpaceOps {
 public:
  SpanOps(Recorder& rec, kern::SuperBlock& sb)
      : rec_(rec),
        iop_(sb.root->iop),
        fop_(sb.root->fop),
        aops_(sb.root->aops),
        sop_(sb.s_op) {
    sb.s_op = this;
    sb.for_each_inode([this](kern::Inode& i) { patch(i); });
  }

  /// Hand the superblock and its inodes back to the file system.
  void restore(kern::SuperBlock& sb) {
    sb.for_each_inode([this](kern::Inode& i) {
      if (i.iop == this) i.iop = iop_;
      if (i.fop == this) i.fop = fop_;
      if (i.aops == this) i.aops = aops_;
    });
    if (sb.s_op == this) sb.s_op = sop_;
  }

  // ---- InodeOps ----
  kern::Result<kern::Inode*> lookup(kern::Inode& dir,
                                    std::string_view name) override {
    Scope s(&rec_, Layer::Module);
    return patched(iop_->lookup(dir, name));
  }
  kern::Result<kern::Inode*> create(kern::Inode& dir, std::string_view name,
                                    std::uint32_t mode) override {
    Scope s(&rec_, Layer::Module);
    return patched(iop_->create(dir, name, mode));
  }
  kern::Err unlink(kern::Inode& dir, std::string_view name) override {
    Scope s(&rec_, Layer::Module);
    return iop_->unlink(dir, name);
  }
  kern::Result<kern::Inode*> mkdir(kern::Inode& dir, std::string_view name,
                                   std::uint32_t mode) override {
    Scope s(&rec_, Layer::Module);
    return patched(iop_->mkdir(dir, name, mode));
  }
  kern::Err rmdir(kern::Inode& dir, std::string_view name) override {
    Scope s(&rec_, Layer::Module);
    return iop_->rmdir(dir, name);
  }
  kern::Err rename(kern::Inode& od, std::string_view on, kern::Inode& nd,
                   std::string_view nn) override {
    Scope s(&rec_, Layer::Module);
    return iop_->rename(od, on, nd, nn);
  }
  kern::Err setattr(kern::Inode& inode, const kern::SetAttr& attr) override {
    Scope s(&rec_, Layer::Module);
    return iop_->setattr(inode, attr);
  }
  kern::Err getattr(kern::Inode& inode, kern::Stat& out) override {
    Scope s(&rec_, Layer::Module);
    return iop_->getattr(inode, out);
  }

  // ---- FileOps ----
  kern::Err open(kern::Inode& inode, kern::FileHandle& fh) override {
    Scope s(&rec_, Layer::Module);
    return fop_->open(inode, fh);
  }
  kern::Err release(kern::Inode& inode, kern::FileHandle& fh) override {
    Scope s(&rec_, Layer::Module);
    return fop_->release(inode, fh);
  }
  kern::Result<std::uint64_t> read(kern::Inode& inode, kern::FileHandle& fh,
                                   std::uint64_t off,
                                   std::span<std::byte> out) override {
    Scope s(&rec_, Layer::Module);
    return fop_->read(inode, fh, off, out);
  }
  kern::Result<std::uint64_t> write(kern::Inode& inode, kern::FileHandle& fh,
                                    std::uint64_t off,
                                    std::span<const std::byte> in) override {
    Scope s(&rec_, Layer::Module);
    return fop_->write(inode, fh, off, in);
  }
  kern::Err fsync(kern::Inode& inode, kern::FileHandle& fh,
                  bool datasync) override {
    Scope s(&rec_, Layer::Module);
    return fop_->fsync(inode, fh, datasync);
  }
  kern::Err flush(kern::Inode& inode, kern::FileHandle& fh) override {
    Scope s(&rec_, Layer::Module);
    return fop_->flush(inode, fh);
  }
  kern::Err readdir(kern::Inode& inode, std::uint64_t& pos,
                    const kern::DirFiller& fill) override {
    Scope s(&rec_, Layer::Module);
    return fop_->readdir(inode, pos, fill);
  }

  // ---- SuperOps ----
  kern::Err sync_fs(kern::SuperBlock& sb, bool wait) override {
    Scope s(&rec_, Layer::Module);
    return sop_->sync_fs(sb, wait);
  }
  kern::Err statfs(kern::SuperBlock& sb, kern::StatFs& out) override {
    Scope s(&rec_, Layer::Module);
    return sop_->statfs(sb, out);
  }
  void put_super(kern::SuperBlock& sb) override { sop_->put_super(sb); }
  void evict_inode(kern::Inode& inode) override {
    Scope s(&rec_, Layer::Module);
    sop_->evict_inode(inode);
  }

  // ---- AddressSpaceOps ----
  kern::Err readpage(kern::Inode& inode, std::uint64_t pgoff,
                     std::span<std::byte> out) override {
    Scope s(&rec_, Layer::Module);
    return aops_->readpage(inode, pgoff, out);
  }
  kern::Err readpages(kern::Inode& inode, std::uint64_t first,
                      std::span<const std::span<std::byte>> pages) override {
    Scope s(&rec_, Layer::Module);
    return aops_->readpages(inode, first, pages);
  }
  [[nodiscard]] bool has_readpages() const override {
    return aops_->has_readpages();
  }
  kern::Err writepage(kern::Inode& inode, std::uint64_t pgoff,
                      std::span<const std::byte> in) override {
    Scope s(&rec_, Layer::Module);
    return aops_->writepage(inode, pgoff, in);
  }
  kern::Err writepages(kern::Inode& inode,
                       std::span<const kern::PageRun> runs,
                       std::size_t& completed) override {
    Scope s(&rec_, Layer::Module);
    return aops_->writepages(inode, runs, completed);
  }
  [[nodiscard]] bool has_writepages() const override {
    return aops_->has_writepages();
  }

 private:
  void patch(kern::Inode& i) {
    if (i.iop == iop_) i.iop = this;
    if (i.fop == fop_) i.fop = this;
    if (aops_ != nullptr && i.aops == aops_) i.aops = this;
  }
  kern::Result<kern::Inode*> patched(kern::Result<kern::Inode*> r) {
    if (r.ok()) patch(*r.value());
    return r;
  }

  Recorder& rec_;
  kern::InodeOps* iop_;
  kern::FileOps* fop_;
  kern::AddressSpaceOps* aops_;
  kern::SuperOps* sop_;
};

class SpanFsType final : public kern::FileSystemType {
 public:
  SpanFsType(std::string name, kern::FileSystemType& inner, Recorder& rec)
      : name_(std::move(name)), inner_(inner), rec_(rec) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  kern::Result<kern::SuperBlock*> mount(blk::BlockDevice& dev,
                                        std::string_view opts) override {
    auto r = inner_.mount(dev, opts);
    if (!r.ok()) return r;
    kern::SuperBlock* sb = r.value();
    shims_[sb] = std::make_unique<SpanOps>(rec_, *sb);
    return sb;
  }

  void kill_sb(kern::SuperBlock* sb) override {
    auto it = shims_.find(sb);
    if (it != shims_.end()) {
      it->second->restore(*sb);
      shims_.erase(it);
    }
    inner_.kill_sb(sb);
  }

 private:
  std::string name_;
  kern::FileSystemType& inner_;
  Recorder& rec_;
  std::unordered_map<kern::SuperBlock*, std::unique_ptr<SpanOps>> shims_;
};

}  // namespace

void register_traced_types(kern::Kernel& kernel, Recorder& rec) {
  auto xv6 = [&rec] {
    return std::make_unique<SpanFs>(
        rec, std::make_unique<bsim::xv6::Xv6FileSystem>());
  };
  bento::register_bento_fs(kernel, "traced.inner.xv6_bento", xv6);
  bsim::fuse::register_fuse_fs(kernel, "traced.inner.xv6_fuse", xv6);
  const std::pair<const char*, const char*> kTypes[] = {
      {"traced.xv6_bento", "traced.inner.xv6_bento"},
      {"traced.xv6_vfs", "xv6_vfs"},
      {"traced.xv6_fuse", "traced.inner.xv6_fuse"},
      {"traced.ext4j", "ext4j"}};
  for (const auto& [name, inner] : kTypes) {
    kernel.register_fs(
        std::make_unique<SpanFsType>(name, *kernel.fs_type(inner), rec));
  }
}

}  // namespace perfbench
