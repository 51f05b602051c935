// The benchmark's request generators. Each workload is a Plan: an untimed
// data-set preparation, a fixed number of closed-loop clients (simulated
// threads run by sim::run_workloads), and an untimed verification pass.
// Every input comes from the workload seed; every read is checked against
// the content model (content.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "spans.h"

namespace perfbench {

namespace kern = bsim::kern;
namespace sim = bsim::sim;

/// Syscall outcome counts for one deployment run.
struct Counters {
  std::uint64_t syscalls = 0;
  std::uint64_t failed = 0;      // syscalls that returned an error
  std::uint64_t mismatches = 0;  // reads whose bytes differ from the model
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_written = 0;
  std::string first_error;

  void error(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
};

/// The benchmark's syscall surface: counts every call, records failures,
/// and opens a Kernel span around each call when a recorder is armed.
class Sys {
 public:
  Sys(kern::Kernel& k, kern::Process& p, Counters& c, Recorder* rec)
      : k_(k), p_(p), c_(c), rec_(rec) {}

  /// Returns the fd, or -1 after recording the failure.
  int open(const std::string& path, int flags, Op op = Op::Open);
  bool close(int fd);
  /// Returns the byte count, or -1 after recording the failure.
  std::int64_t pread(int fd, std::span<std::byte> out, std::uint64_t off);
  /// Writes all of `in` or records a failure.
  bool pwrite(int fd, std::span<const std::byte> in, std::uint64_t off);
  bool fsync(int fd);
  bool unlink(const std::string& path);
  bool mkdir(const std::string& path);
  /// An open that may legitimately find no file (verification passes):
  /// NoEnt is returned, not counted as a failure.
  kern::Result<int> probe(const std::string& path);
  /// Reads `size` bytes at offset 0 and checks that the file ends there and
  /// holds the bytes of `key`. Counts a mismatch otherwise.
  bool read_whole(int fd, std::uint64_t size, std::uint64_t key,
                  const std::string& path);

  [[nodiscard]] Counters& counters() { return c_; }

 private:
  bool failed(const char* call, const std::string& what, kern::Err e);

  kern::Kernel& k_;
  kern::Process& p_;
  Counters& c_;
  Recorder* rec_;
  std::vector<std::byte> buf_;
  std::vector<std::byte> scratch_;
};

/// Shared state of one deployment run, handed to every client.
struct RunCtx {
  explicit RunCtx(kern::Kernel& k) : kernel(k) {}

  kern::Kernel& kernel;
  Recorder* rec = nullptr;  // armed only in the traced run
  std::uint64_t seed = 0;
  Counters counters;
  std::vector<Nanos> latency;          // virtual ns, one per request
  std::vector<std::int64_t> host_ns;  // host ns, one per request
  Nanos ready_at = 0;          // virtual end of set-up
  int pending_setups = 0;
  /// Runs once, when the last client has finished its setup().
  std::function<void()> on_ready;
};

/// One closed-loop client. step() is one request; its virtual latency is
/// the client's clock at the end minus at the start.
class Client : public sim::Workload {
 public:
  Client(RunCtx& ctx, int id, std::uint64_t requests)
      : ctx_(ctx),
        id_(id),
        requests_(requests),
        rng_(ctx.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id)) {}

  void setup() final;
  std::int64_t step() final;
  /// Close what the client keeps open (after the measured phase).
  virtual void teardown() {}
  /// Whether the client made all its requests.
  [[nodiscard]] bool finished() const { return done_ == requests_; }

 protected:
  virtual void open_files() {}
  virtual std::int64_t request(std::uint64_t k) = 0;
  Sys& sys() { return *sys_; }

  RunCtx& ctx_;
  int id_;
  std::uint64_t requests_;
  std::uint64_t done_ = 0;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  std::unique_ptr<Sys> sys_;
};

/// A workload on one mounted deployment.
class Plan {
 public:
  virtual ~Plan() = default;
  /// Create the data set through `sys` (timed as set-up on the host).
  virtual void prepare(Sys& sys) = 0;
  virtual std::unique_ptr<Client> client(RunCtx& ctx, int id) = 0;
  [[nodiscard]] virtual int clients() const = 0;
  /// Untimed post-run checks of what the clients wrote. After a power cut
  /// (`after_crash`) only fsync-acknowledged state must have survived.
  virtual void verify(Sys& sys, bool after_crash) = 0;
};

struct WorkloadSpec {
  std::string name;
  std::string mount_opts;  // volume geometry, e.g. "stripe=4"
  /// `short_run`: the reduced request count of the durability pass.
  std::function<std::unique_ptr<Plan>(std::uint64_t seed, bool short_run)>
      make;
};

/// "mail", "stream" or "untar"; null for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

}  // namespace perfbench
