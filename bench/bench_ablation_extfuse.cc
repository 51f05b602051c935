// Ablation A6: the eBPF design point (paper §2.2, Table 2).
//
// ExtFUSE accelerates FUSE by answering metadata requests from verified
// eBPF programs in the kernel — "for kernel code that can fit within the
// eBPF model, this provides safe extensibility without significant
// performance overhead". We run a stat-heavy workload (the web/file-
// serving pattern: resolve + stat the same hot set over and over) across
// the four design points in Table 2:
//
//   VFS (C)         — fast, unsafe
//   FUSE            — safe, slow (every stat is a daemon round trip
//                     through the writeback-cache-less metadata path)
//   FUSE + ExtFUSE  — safe, fast *for what fits the eBPF model*
//   Bento           — safe, fast, general
//
// Expected shape: ExtFUSE recovers most of FUSE's metadata gap (hot set
// cached in maps), landing near Bento/VFS; Bento needs no such carve-out
// because the whole file system already runs in the kernel.
#include "common.h"

#include "kernel/kernel.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

/// statfiles: resolve and stat files from a pre-created hot set,
/// round-robin. Metadata-only (the ExtFUSE use case).
class StatFiles final : public sim::Workload {
 public:
  StatFiles(wl::TestBed& bed, int nfiles, int thread_id)
      : bed_(bed), nfiles_(nfiles), thread_id_(thread_id) {}

  void setup() override {
    proc_ = bed_.kernel().new_process();
    if (thread_id_ != 0) return;
    for (int i = 0; i < nfiles_; ++i) {
      auto fd = bed_.kernel().open(*proc_, path(i),
                                   kern::kOCreat | kern::kOWrOnly);
      if (fd.ok()) (void)bed_.kernel().close(*proc_, fd.value());
    }
  }

  std::int64_t step() override {
    auto st = bed_.kernel().stat(*proc_, path(next_));
    next_ = (next_ + 1) % nfiles_;
    return st.ok() ? 0 : -1;
  }

 private:
  std::string path(int i) const {
    return "/mnt/hot" + std::to_string(i) + ".dat";
  }

  wl::TestBed& bed_;
  int nfiles_;
  int thread_id_;
  std::unique_ptr<kern::Process> proc_;
  int next_ = 0;
};

double stat_ops(const std::string& fs, const std::string& opts) {
  BenchRun run;
  run.bed.fs = fs;
  run.bed.mount_opts = opts;
  run.nthreads = 1;
  run.horizon = 10 * sim::kSecond;
  run.max_ops = 200'000;
  return run_bench(run, [&](wl::TestBed& bed, int tid) {
           return std::make_unique<StatFiles>(bed, 64, tid);
         })
      .ops_per_sec();
}

}  // namespace

int main() {
  reset_costs();
  std::printf("Ablation A6: ExtFUSE (eBPF metadata caching) on a stat-heavy "
              "workload\n\n");
  JsonReport json("extfuse", "stats/s");
  std::printf("%-20s %14s %10s\n", "deployment", "stats/s", "vs FUSE");
  const double fuse = stat_ops("xv6_fuse", "");
  struct Row {
    const char* label;
    const char* fs;
    const char* opts;
  };
  const Row rows[] = {
      {"C-Kernel (VFS)", "xv6_vfs", ""},
      {"FUSE", "xv6_fuse", ""},
      {"FUSE + ExtFUSE", "xv6_fuse", "extfuse"},
      {"Bento", "xv6_bento", ""},
  };
  for (const auto& row : rows) {
    const double ops =
        (std::string_view(row.opts).empty() &&
         std::string_view(row.fs) == "xv6_fuse")
            ? fuse
            : stat_ops(row.fs, row.opts);
    std::printf("%-20s %14.0f %9.1fx\n", row.label, ops, ops / fuse);
    json.add(row.label, "stats_per_s", ops);
    std::fflush(stdout);
  }
  std::printf(
      "\nExtFUSE recovers the metadata fast path within the eBPF model;\n"
      "Table 2's generality column is why it stops there (see the\n"
      "VerifierRejects tests for what the model cannot express).\n");
  return 0;
}
