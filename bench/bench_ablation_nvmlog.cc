// Ablation A7: the Strata-style NVM op-log (paper §3).
//
// The paper motivates Bento with extensions a developer would actually
// want to ship, and names this one: "prepending an operation log stored
// in NVM can dramatically improve write performance". xv6_nvmlog is that
// extension, built as a stacked Bento file system (NvmLogFs over the
// unmodified xv6 FS). We run the paper's own fsync-heavy macrobenchmark
// (varmail, Table 6) plus a small-synchronous-write microbenchmark, and
// compare against plain kernel-Bento xv6 and ext4 data=journal.
//
// Expected shape: varmail is dominated by fsync; the op-log turns each
// fsync from a journal commit into a ~0.5us persist barrier, so
// xv6_nvmlog clears both xv6 and ext4 by a wide margin. Non-sync
// workloads are unchanged (the log only interposes on the write path).
#include "common.h"

#include "kernel/kernel.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

double varmail_ops(const std::string& fs, int nthreads) {
  BenchRun run;
  run.bed.fs = fs;
  run.nthreads = nthreads;
  run.horizon = 30 * sim::kSecond;
  run.max_ops = 20'000;
  auto set = std::make_shared<wl::MailSet>();
  return run_bench(run, [set](wl::TestBed& bed, int tid) {
           return std::make_unique<wl::Varmail>(bed, *set, tid, 11);
         })
      .ops_per_sec();
}

/// append-fsync: the mail/WAL pattern at its purest — small append, then
/// fsync, repeatedly, one file per thread.
class AppendFsync final : public sim::Workload {
 public:
  AppendFsync(wl::TestBed& bed, std::size_t iosize, int thread_id)
      : bed_(bed), iosize_(iosize), thread_id_(thread_id) {}

  void setup() override {
    proc_ = bed_.kernel().new_process();
    const std::string path = "/mnt/wal" + std::to_string(thread_id_);
    auto fd = bed_.kernel().open(*proc_, path,
                                 kern::kOCreat | kern::kOWrOnly);
    fd_ = fd.ok() ? fd.value() : -1;
    buf_.assign(iosize_, std::byte{0x57});
  }

  std::int64_t step() override {
    if (fd_ < 0) return -1;
    auto w = bed_.kernel().write(*proc_, fd_, buf_);
    if (!w.ok()) return -1;
    if (bed_.kernel().fsync(*proc_, fd_) != kern::Err::Ok) return -1;
    return static_cast<std::int64_t>(w.value());
  }

 private:
  wl::TestBed& bed_;
  std::size_t iosize_;
  int thread_id_;
  std::unique_ptr<kern::Process> proc_;
  int fd_ = -1;
  std::vector<std::byte> buf_;
};

double append_fsync_ops(const std::string& fs, std::size_t iosize) {
  BenchRun run;
  run.bed.fs = fs;
  run.nthreads = 1;
  run.horizon = 20 * sim::kSecond;
  run.max_ops = 30'000;
  return run_bench(run, [&](wl::TestBed& bed, int tid) {
           return std::make_unique<AppendFsync>(bed, iosize, tid);
         })
      .ops_per_sec();
}

}  // namespace

int main() {
  reset_costs();
  std::printf("Ablation A7: Strata-style NVM op-log over xv6 (paper §3)\n\n");

  JsonReport json("nvmlog", "ops/s");
  std::printf("%-14s %16s %20s %20s\n", "fs", "varmail ops/s",
              "4K append+fsync/s", "64K append+fsync/s");
  for (const auto& [label, fs] :
       std::vector<std::pair<std::string, std::string>>{
           {"Bento", "xv6_bento"},
           {"Bento+NVMlog", "xv6_nvmlog"},
           {"Ext4", "ext4j"}}) {
    const double vm = varmail_ops(fs, 1);
    const double a4 = append_fsync_ops(fs, 4096);
    const double a64 = append_fsync_ops(fs, 65536);
    std::printf("%-14s %16.0f %20.0f %20.0f\n", label.c_str(), vm, a4, a64);
    json.add(label, "varmail_ops_per_s", vm);
    json.add(label, "append_fsync_4k", a4);
    json.add(label, "append_fsync_64k", a64);
    std::fflush(stdout);
  }
  std::printf(
      "\nThe op-log converts fsync from a journal commit into one NVM\n"
      "persist barrier; digests push data to the lower FS in bulk off the\n"
      "critical path. This is the §3 velocity story: the extension is a\n"
      "stacked Bento module over an unmodified xv6.\n");
  return 0;
}
