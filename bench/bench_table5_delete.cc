// Table 5: deletefiles microbenchmark, ops/sec, 1 and 32 threads, over a
// pre-created file set.
//
// Expected shape (paper §6.5.4): Bento ~= C-Kernel (unlink is one small
// synchronous log transaction); FUSE ~60x slower (those same transaction
// writes each become pwrite + whole-file fsync from userspace).
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  reset_costs();
  std::printf("Table 5: Delete Microbenchmark Performance (Ops/sec)\n");
  JsonReport json("table5_delete", "ops/s");
  std::printf("%-10s %12s %12s\n", "fs", "1 Thread", "32 Threads");
  for (const auto& [label, fsname] : kKernelFses) {
    std::printf("%-10s", label.c_str());
    for (const int threads : {1, 32}) {
      BenchRun run;
      run.bed.fs = fsname;
      run.nthreads = threads;
      run.horizon = 8 * sim::kSecond;
      const std::uint64_t nfiles = 60'000;
      auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
        return std::make_unique<wl::DeleteFiles>(bed, nfiles,
                                                 /*dirwidth=*/100, tid,
                                                 threads);
      });
      std::printf(" %12.0f", stats.ops_per_sec());
      json.add(label, std::to_string(threads) + "t", stats.ops_per_sec());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
