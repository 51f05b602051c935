// Figure 2: 4 KB read performance, ops/sec (x1000), for sequential and
// random reads with 1 and 32 threads, across Bento / C-Kernel / FUSE.
//
// Expected shape (paper §6.5.1): all three versions nearly identical —
// after warmup every request hits the same in-kernel page cache, so the
// interposition layer is never on the hot path.
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  reset_costs();
  struct Config {
    const char* label;
    bool sequential;
    int threads;
  };
  const Config configs[] = {{"seq-1t", true, 1},
                            {"seq-32t", true, 32},
                            {"rnd-1t", false, 1},
                            {"rnd-32t", false, 32}};

  std::printf("Figure 2: Read Performance (4KB), Ops/sec (x1000)\n");
  JsonReport json("fig2_read4k", "kops/s");
  std::printf("%-10s %10s %10s %10s %10s\n", "fs", "seq-1t", "seq-32t",
              "rnd-1t", "rnd-32t");
  for (const auto& [label, fsname] : kKernelFses) {
    std::printf("%-10s", label.c_str());
    for (const auto& cfg : configs) {
      BenchRun run;
      run.bed.fs = fsname;
      run.nthreads = cfg.threads;
      run.max_ops = 400'000;
      wl::SharedFile file;
      auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
        return std::make_unique<wl::ReadMicro>(bed, file, cfg.sequential,
                                               4096, tid, 42);
      });
      std::printf(" %10.1f", stats.ops_per_sec() / 1000.0);
      json.add(label, cfg.label, stats.ops_per_sec() / 1000.0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
