// Figure 3 (a-c): read throughput for 32KB / 128KB / 1024KB I/O sizes,
// seq/rnd x 1/32 threads, MBps (x1000 in the paper's axes).
//
// Expected shape: all three file systems equivalent (page-cache bound).
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
  struct Size {
    const char* label;
    std::size_t iosize;
    std::uint64_t max_ops;
  };
  const Size sizes[] = {{"32KB", 32 << 10, 60'000},
                        {"128KB", 128 << 10, 16'000},
                        {"1024KB", 1 << 20, 3'000}};

  std::printf("Figure 3: Read Performance (32KB-1024KB), Throughput MBps\n");
  JsonReport json("fig3_read_tput", "MBps");
  for (const auto& size : sizes) {
    std::printf("\n(%s reads)\n", size.label);
    std::printf("%-10s %10s %10s %10s %10s\n", "fs", "seq-1t", "seq-32t",
                "rnd-1t", "rnd-32t");
    for (const auto& [label, fsname] : kKernelFses) {
      std::printf("%-10s", label.c_str());
      for (const auto& cfg : configs) {
        BenchRun run;
        run.bed.fs = fsname;
        run.nthreads = cfg.threads;
        run.max_ops = size.max_ops;
        wl::SharedFile file;
        auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
          return std::make_unique<wl::ReadMicro>(bed, file, cfg.sequential,
                                                 size.iosize, tid, 42);
        });
        std::printf(" %10.0f", stats.mbytes_per_sec());
        json.add(label, std::string(cfg.label) + "/" + size.label,
                 stats.mbytes_per_sec());
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  return 0;
}
