#include "workloads.h"

#include <algorithm>
#include <string_view>

#include "content.h"
#include "workloads/macro.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;
constexpr std::uint64_t kPage = 4 * kKiB;

std::string describe(const char* call, const std::string& what,
                     kern::Err e) {
  return std::string(call) + " " + what + ": " + kern::err_name(e);
}

}  // namespace

// ---- Sys ----

bool Sys::failed(const char* call, const std::string& what, kern::Err e) {
  c_.failed += 1;
  c_.error(describe(call, what, e));
  return false;
}

int Sys::open(const std::string& path, int flags, Op op) {
  Scope s(rec_, Layer::Kernel, op);
  c_.syscalls += 1;
  auto r = k_.open(p_, path, flags);
  if (!r.ok()) return failed("open", path, r.error()), -1;
  return r.value();
}

bool Sys::close(int fd) {
  Scope s(rec_, Layer::Kernel, Op::Close);
  c_.syscalls += 1;
  const kern::Err e = k_.close(p_, fd);
  return e == kern::Err::Ok || failed("close", std::to_string(fd), e);
}

std::int64_t Sys::pread(int fd, std::span<std::byte> out, std::uint64_t off) {
  Scope s(rec_, Layer::Kernel, Op::Read);
  c_.syscalls += 1;
  auto r = k_.pread(p_, fd, out, off);
  if (!r.ok()) return failed("pread", std::to_string(fd), r.error()), -1;
  return static_cast<std::int64_t>(r.value());
}

bool Sys::pwrite(int fd, std::span<const std::byte> in, std::uint64_t off) {
  Scope s(rec_, Layer::Kernel, Op::Write);
  c_.syscalls += 1;
  auto r = k_.pwrite(p_, fd, in, off);
  if (!r.ok()) return failed("pwrite", std::to_string(fd), r.error());
  if (r.value() != in.size()) {
    return failed("pwrite (short)", std::to_string(fd), kern::Err::Io);
  }
  c_.bytes_written += in.size();
  return true;
}

bool Sys::fsync(int fd) {
  Scope s(rec_, Layer::Kernel, Op::Fsync);
  c_.syscalls += 1;
  c_.fsyncs += 1;
  const kern::Err e = k_.fsync(p_, fd);
  return e == kern::Err::Ok || failed("fsync", std::to_string(fd), e);
}

bool Sys::unlink(const std::string& path) {
  Scope s(rec_, Layer::Kernel, Op::Unlink);
  c_.syscalls += 1;
  const kern::Err e = k_.unlink(p_, path);
  return e == kern::Err::Ok || failed("unlink", path, e);
}

bool Sys::mkdir(const std::string& path) {
  Scope s(rec_, Layer::Kernel, Op::Mkdir);
  c_.syscalls += 1;
  const kern::Err e = k_.mkdir(p_, path);
  return e == kern::Err::Ok || failed("mkdir", path, e);
}

kern::Result<int> Sys::probe(const std::string& path) {
  c_.syscalls += 1;
  auto r = k_.open(p_, path, kern::kORdOnly);
  if (!r.ok() && r.error() != kern::Err::NoEnt) {
    failed("open", path, r.error());
  }
  return r;
}

bool Sys::read_whole(int fd, std::uint64_t size, std::uint64_t key,
                     const std::string& path) {
  // One extra page proves the file ends at `size`.
  buf_.resize(size + 4096);
  const std::int64_t n = pread(fd, buf_, 0);
  if (n < 0) return false;
  if (static_cast<std::uint64_t>(n) != size ||
      !matches(std::span(buf_).first(size), key, 0, scratch_)) {
    c_.mismatches += 1;
    std::size_t at = 0;
    while (at < size && buf_[at] == scratch_[at]) ++at;
    c_.error("read " + path + ": " + std::to_string(n) + " bytes, expected " +
             std::to_string(size) + "; first wrong byte at " +
             std::to_string(at));
    return false;
  }
  return true;
}

// ---- Client ----

void Client::setup() {
  // Clients start where set-up ended, so the device and lock clocks they
  // meet are never ahead of them.
  sim::current().wait_until(ctx_.ready_at);
  proc_ = ctx_.kernel.new_process();
  sys_ = std::make_unique<Sys>(ctx_.kernel, *proc_, ctx_.counters, ctx_.rec);
  open_files();
  if (--ctx_.pending_setups == 0 && ctx_.on_ready) ctx_.on_ready();
}

std::int64_t Client::step() {
  if (done_ == requests_) return -1;
  const Nanos t0 = sim::now();
  const std::int64_t h0 = host_ns();
  if (ctx_.rec != nullptr) ctx_.rec->begin_request();
  const std::int64_t bytes = request(done_++);
  if (ctx_.rec != nullptr) ctx_.rec->end_request();
  ctx_.host_ns.push_back(host_ns() - h0);
  ctx_.latency.push_back(sim::now() - t0);
  return bytes;
}

namespace {

// ---- mail: varmail-style fsync-bound small-file traffic ----

struct MailConfig {
  std::uint64_t nfiles = 1000;
  int clients = 16;
  std::uint64_t requests = 400;  // per client
  std::uint64_t short_requests = 40;
  std::uint64_t deliver_mean = 16 * kKiB, deliver_max = 64 * kKiB;
  std::uint64_t reply_mean = 4 * kKiB, reply_max = 16 * kKiB;
};

struct MailSlot {
  bool present = false;
  bool ever = false;        // existed at some point
  std::uint64_t key = 0;    // content key of the current generation
  std::uint64_t size = 0;
};

class MailPlan;

class MailClient final : public Client {
 public:
  MailClient(RunCtx& ctx, int id, std::uint64_t n, MailPlan& plan)
      : Client(ctx, id, n), plan_(plan) {}

 protected:
  std::int64_t request(std::uint64_t k) override;

 private:
  MailPlan& plan_;
  std::vector<std::byte> buf_;
};

class MailPlan final : public Plan {
 public:
  MailPlan(std::uint64_t seed, bool short_run) : seed_(seed) {
    if (short_run) cfg_.requests = cfg_.short_requests;
    slots_.resize(cfg_.nfiles);
    pos_.assign(cfg_.nfiles, 0);
    listed_.assign(cfg_.nfiles, nullptr);
  }

  static std::string path(std::uint64_t i) {
    return "/mnt/mail/m" + std::to_string(i);
  }

  void prepare(Sys& sys) override {
    sys.mkdir("/mnt/mail");
    sim::Rng rng(seed_ ^ 0x6d61696cULL);
    std::vector<std::byte> buf;
    for (std::uint64_t i = 0; i < cfg_.nfiles; ++i) {
      MailSlot& s = slots_[i];
      s.key = content_key(i, 0, seed_);
      s.size = rng.size_around(cfg_.deliver_mean, cfg_.deliver_max);
      buf.resize(s.size);
      fill(buf, s.key, 0);
      const int fd = sys.open(path(i), kern::kOCreat | kern::kOExcl |
                                           kern::kOWrOnly, Op::Create);
      if (fd < 0) continue;
      sys.pwrite(fd, buf, 0);
      sys.close(fd);
      s.present = s.ever = true;
    }
    for (std::uint64_t i = 0; i < cfg_.nfiles; ++i) {
      move_to(i, slots_[i].present ? present_ : absent_);
    }
  }

  std::unique_ptr<Client> client(RunCtx& ctx, int id) override {
    return std::make_unique<MailClient>(ctx, id, cfg_.requests, *this);
  }
  [[nodiscard]] int clients() const override { return cfg_.clients; }

  void verify(Sys& sys, bool after_crash) override {
    for (std::uint64_t i = 0; i < cfg_.nfiles; ++i) {
      const MailSlot& s = slots_[i];
      auto fd = sys.probe(path(i));
      if (!fd.ok()) {
        if (fd.error() == kern::Err::NoEnt && !s.present) continue;
        sys.counters().mismatches += 1;
        sys.counters().error("mail file " + path(i) +
                             (s.present ? " lost" : " unreadable"));
        continue;
      }
      // A deleted file may survive a power cut (the unlink was never
      // fsynced), but then with its last acknowledged content.
      if (!s.present && !(after_crash && s.ever)) {
        sys.counters().mismatches += 1;
        sys.counters().error("mail file " + path(i) + " should not exist");
      } else {
        sys.read_whole(fd.value(), s.size, s.key, path(i));
      }
      sys.close(fd.value());
    }
  }

  // ---- model, shared by the clients (requests run one at a time) ----
  MailSlot& slot(std::uint64_t i) { return slots_[i]; }
  [[nodiscard]] const MailConfig& cfg() const { return cfg_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  std::uint64_t next_generation() { return ++generation_; }
  std::vector<std::uint64_t>& present() { return present_; }
  std::vector<std::uint64_t>& absent() { return absent_; }

  /// Move slot `i` into `to` (out of whichever list holds it).
  void move_to(std::uint64_t i, std::vector<std::uint64_t>& to) {
    std::vector<std::uint64_t>* from = listed_[i];
    if (from == &to) return;
    if (from != nullptr) {
      const std::uint64_t last = from->back();
      (*from)[pos_[i]] = last;
      pos_[last] = pos_[i];
      from->pop_back();
    }
    pos_[i] = to.size();
    to.push_back(i);
    listed_[i] = &to;
  }

 private:
  MailConfig cfg_;
  std::uint64_t seed_;
  std::uint64_t generation_ = 0;
  std::vector<MailSlot> slots_;
  std::vector<std::uint64_t> present_, absent_, pos_;
  std::vector<std::vector<std::uint64_t>*> listed_;  // list holding slot i
};

std::int64_t MailClient::request(std::uint64_t) {
  MailPlan& p = plan_;
  const MailConfig& cfg = p.cfg();
  // Mix: delete 1, deliver 1, reply 1, read 2 (varmail's proportions).
  int kind = static_cast<int>(rng_.below(5));
  if (kind == 1 && p.absent().empty()) kind = 3;
  if (kind != 1 && p.present().empty()) kind = 1;
  auto pick = [&](std::vector<std::uint64_t>& from) {
    return from[rng_.below(from.size())];
  };
  switch (kind) {
    case 0: {  // delete
      const std::uint64_t i = pick(p.present());
      if (sys().unlink(MailPlan::path(i))) {
        p.slot(i).present = false;
        p.move_to(i, p.absent());
      }
      return 0;
    }
    case 1: {  // deliver: create, write, fsync
      const std::uint64_t i = pick(p.absent());
      MailSlot& s = p.slot(i);
      const std::uint64_t key = content_key(i, p.next_generation(), p.seed());
      const std::uint64_t size =
          rng_.size_around(cfg.deliver_mean, cfg.deliver_max);
      buf_.resize(size);
      fill(buf_, key, 0);
      const int fd = sys().open(
          MailPlan::path(i), kern::kOCreat | kern::kOExcl | kern::kOWrOnly,
          Op::Create);
      if (fd < 0) return 0;
      if (sys().pwrite(fd, buf_, 0) && sys().fsync(fd)) {
        s.present = s.ever = true;
        s.key = key;
        s.size = size;
        p.move_to(i, p.present());
      }
      sys().close(fd);
      return static_cast<std::int64_t>(size);
    }
    case 2: {  // reply: append, fsync
      const std::uint64_t i = pick(p.present());
      MailSlot& s = p.slot(i);
      const std::uint64_t n = rng_.size_around(cfg.reply_mean, cfg.reply_max);
      buf_.resize(n);
      fill(buf_, s.key, s.size);
      const int fd = sys().open(MailPlan::path(i), kern::kOWrOnly);
      if (fd < 0) return 0;
      if (sys().pwrite(fd, buf_, s.size) && sys().fsync(fd)) s.size += n;
      sys().close(fd);
      return static_cast<std::int64_t>(n);
    }
    default: {  // read the whole message
      const std::uint64_t i = pick(p.present());
      const MailSlot& s = p.slot(i);
      const int fd = sys().open(MailPlan::path(i), kern::kORdOnly);
      if (fd < 0) return 0;
      sys().read_whole(fd, s.size, s.key, MailPlan::path(i));
      sys().close(fd);
      return static_cast<std::int64_t>(s.size);
    }
  }
}

// ---- stream: bulk reads of a cold set larger than the buffer cache,
// interleaved with large writes, on a striped volume ----

struct StreamConfig {
  std::uint64_t nfiles = 64;
  std::uint64_t file_bytes = 4 * kMiB;  // 256 MiB cold set
  int clients = 4;
  std::uint64_t requests = 1024;  // per client
  std::uint64_t reads_per_write = 7;
  std::uint64_t read_bytes = 128 * kKiB;  // mean; 64..192 KiB
  std::uint64_t write_bytes = 1 * kMiB;  // mean; 0.75..1.25 MiB
  std::uint64_t own_bytes = 32 * kMiB;  // each client's file, rewritten
};

class StreamPlan;

class StreamClient final : public Client {
 public:
  StreamClient(RunCtx& ctx, int id, const StreamConfig& cfg)
      : Client(ctx, id, cfg.requests),
        cfg_(cfg),
        slots_(cfg.own_bytes / slot_stride()) {}

  [[nodiscard]] std::string own_path() const {
    return "/mnt/stream/w" + std::to_string(id_);
  }
  /// The file is a ring of slots 1.25 MiB apart; each slot holds the
  /// latest write to it: (content key, length), length 0 before any.
  struct Slot {
    std::uint64_t key = 0, len = 0;
  };
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
  [[nodiscard]] std::uint64_t slot_stride() const {
    return cfg_.write_bytes / 4 * 5;
  }

  void teardown() override {
    for (const int fd : cold_fds_) sys().close(fd);
    if (own_fd_ >= 0) sys().close(own_fd_);
    cold_fds_.clear();
    own_fd_ = -1;
  }

 protected:
  void open_files() override {
    for (std::uint64_t f = 0; f < cfg_.nfiles; ++f) {
      cold_fds_.push_back(sys().open(cold_path(f), kern::kORdOnly));
    }
    own_fd_ = sys().open(own_path(),
                         kern::kOCreat | kern::kOExcl | kern::kORdWr,
                         Op::Create);
  }

  std::int64_t request(std::uint64_t k) override {
    if (k % (cfg_.reads_per_write + 1) == 0) {
      // A page-aligned write of 0.75..1.25 MiB (1 MiB on average).
      const std::uint64_t pages = cfg_.write_bytes / kPage;
      const std::uint64_t len = rng_.range(pages * 3 / 4, pages * 5 / 4) * kPage;
      const std::uint64_t slot = writes_ % slots_.size();
      const std::uint64_t off = slot * slot_stride();
      const std::uint64_t key = content_key(
          1'000'000 + static_cast<std::uint64_t>(id_), writes_, ctx_.seed);
      buf_.resize(len);
      fill(buf_, key, off);
      writes_ += 1;
      if (sys().pwrite(own_fd_, buf_, off)) slots_[slot] = {key, len};
      return static_cast<std::int64_t>(len);
    }
    // A page-aligned read of 64..192 KiB (128 KiB on average) anywhere in
    // a random cold file.
    const std::uint64_t f = rng_.below(cfg_.nfiles);
    const std::uint64_t pages = cfg_.read_bytes / kPage;
    const std::uint64_t len = rng_.range(pages / 2, pages * 3 / 2) * kPage;
    const std::uint64_t off =
        rng_.below((cfg_.file_bytes - len) / kPage + 1) * kPage;
    buf_.resize(len);
    const std::int64_t n = sys().pread(cold_fds_[f], buf_, off);
    if (n >= 0 && (static_cast<std::uint64_t>(n) != len ||
                   !matches(buf_, cold_key(f), off, scratch_))) {
      ctx_.counters.mismatches += 1;
      ctx_.counters.error("stream read " + cold_path(f) + " @" +
                          std::to_string(off) + " differs from the model");
    }
    return n;
  }

 public:
  static std::string cold_path(std::uint64_t f) {
    return "/mnt/stream/c" + std::to_string(f);
  }
  [[nodiscard]] std::uint64_t cold_key(std::uint64_t f) const {
    return content_key(f, 0, ctx_.seed);
  }

 private:
  StreamConfig cfg_;
  std::vector<int> cold_fds_;
  int own_fd_ = -1;
  std::uint64_t writes_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::byte> buf_, scratch_;
};

class StreamPlan final : public Plan {
 public:
  explicit StreamPlan(std::uint64_t seed) : seed_(seed) {}

  void prepare(Sys& sys) override {
    sys.mkdir("/mnt/stream");
    std::vector<std::byte> buf(cfg_.write_bytes);
    for (std::uint64_t f = 0; f < cfg_.nfiles; ++f) {
      const int fd = sys.open(StreamClient::cold_path(f),
                              kern::kOCreat | kern::kOExcl | kern::kOWrOnly,
                              Op::Create);
      if (fd < 0) continue;
      for (std::uint64_t off = 0; off < cfg_.file_bytes; off += buf.size()) {
        fill(buf, content_key(f, 0, seed_), off);
        sys.pwrite(fd, buf, off);
      }
      sys.close(fd);
    }
  }

  std::unique_ptr<Client> client(RunCtx& ctx, int id) override {
    auto c = std::make_unique<StreamClient>(ctx, id, cfg_);
    clients_.push_back(c.get());
    return c;
  }
  [[nodiscard]] int clients() const override { return cfg_.clients; }

  void verify(Sys& sys, bool) override {
    std::vector<std::byte> buf, scratch;
    for (const StreamClient* c : clients_) {
      const int fd = sys.open(c->own_path(), kern::kORdOnly);
      if (fd < 0) continue;
      for (std::size_t i = 0; i < c->slots().size(); ++i) {
        const StreamClient::Slot& slot = c->slots()[i];
        const std::uint64_t off = i * c->slot_stride();
        buf.resize(slot.len);
        const std::int64_t n = sys.pread(fd, buf, off);
        if (n != static_cast<std::int64_t>(slot.len) ||
            !matches(buf, slot.key, off, scratch)) {
          sys.counters().mismatches += 1;
          sys.counters().error("stream file " + c->own_path() + " @" +
                               std::to_string(off) + " differs from the model");
        }
      }
      sys.close(fd);
    }
  }

 private:
  StreamConfig cfg_;
  std::uint64_t seed_;
  std::vector<const StreamClient*> clients_;
};

// ---- untar: one client replays the synthetic linux-4.15 tree ----

class UntarPlan;

class UntarClient final : public Client {
 public:
  UntarClient(RunCtx& ctx, const std::vector<bsim::wl::UntarEntry>& m)
      : Client(ctx, 0, m.size()), manifest_(m) {}

 protected:
  std::int64_t request(std::uint64_t k) override {
    const bsim::wl::UntarEntry& e = manifest_[k];
    if (e.is_dir) {
      sys().mkdir(e.path);
      return 0;
    }
    const int fd = sys().open(
        e.path, kern::kOCreat | kern::kOExcl | kern::kOWrOnly, Op::Create);
    if (fd < 0) return 0;
    const std::uint64_t key = content_key(k, 0, ctx_.seed);
    for (std::uint64_t off = 0; off < e.size; off += kMiB) {
      buf_.resize(std::min(kMiB, e.size - off));
      fill(buf_, key, off);
      if (!sys().pwrite(fd, buf_, off)) break;
    }
    sys().close(fd);
    return static_cast<std::int64_t>(e.size);
  }

 private:
  const std::vector<bsim::wl::UntarEntry>& manifest_;
  std::vector<std::byte> buf_;
};

class UntarPlan final : public Plan {
 public:
  explicit UntarPlan(std::uint64_t seed)
      : seed_(seed), manifest_(bsim::wl::linux_tree_manifest(0.25, seed)) {}

  void prepare(Sys&) override {}  // untar starts from an empty file system

  std::unique_ptr<Client> client(RunCtx& ctx, int) override {
    return std::make_unique<UntarClient>(ctx, manifest_);
  }
  [[nodiscard]] int clients() const override { return 1; }

  void verify(Sys& sys, bool) override {
    for (std::size_t k = 0; k < manifest_.size(); ++k) {
      const bsim::wl::UntarEntry& e = manifest_[k];
      if (e.is_dir) continue;
      const int fd = sys.open(e.path, kern::kORdOnly);
      if (fd < 0) continue;
      sys.read_whole(fd, e.size, content_key(k, 0, seed_), e.path);
      sys.close(fd);
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<bsim::wl::UntarEntry> manifest_;
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"mail", "",
       [](std::uint64_t seed, bool short_run) -> std::unique_ptr<Plan> {
         return std::make_unique<MailPlan>(seed, short_run);
       }},
      {"stream", "stripe=4",
       [](std::uint64_t seed, bool) -> std::unique_ptr<Plan> {
         return std::make_unique<StreamPlan>(seed);
       }},
      {"untar", "",
       [](std::uint64_t seed, bool) -> std::unique_ptr<Plan> {
         return std::make_unique<UntarPlan>(seed);
       }},
  };
  return kSpecs;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace perfbench
