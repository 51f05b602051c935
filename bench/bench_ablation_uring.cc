// Ablation A5: io_uring for the FUSE daemon's block I/O (paper §8.1).
//
// The paper's future work: "Using this interface for the I/O accesses from
// the FUSE version of the xv6 file system in the evaluation could result
// in better performance numbers, potentially decreasing the overhead seen
// by using FUSE." We run the metadata-heavy create workload (FUSE's worst
// case, Table 4) and the write microbenchmark with the daemon's block I/O
// issued per-op via syscalls vs batched through io_uring, against kernel
// Bento as the reference.
//
// Expected shape: io_uring trims the per-block crossing tax, but FUSE's
// collapse is dominated by the whole-disk-file fsync semantics (§6.4,
// ablation A3), which batching cannot remove — so FUSE improves by a
// modest factor and stays far from Bento. This is the quantified version
// of the paper's "potentially decreasing the overhead".
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

double create_ops(const std::string& fs, const std::string& opts,
                  bool plp_ssd = false) {
  BenchRun run;
  run.bed.fs = fs;
  run.bed.mount_opts = opts;
  run.nthreads = 1;
  run.horizon = 30 * sim::kSecond;
  run.max_ops = 3'000;
  if (plp_ssd) {
    // Enterprise SSD with power-loss protection: FLUSH is a no-op.
    run.bed.device.flush_base = 0;
    run.bed.device.destage_per_block = 0;
  }
  return run_bench(run, [&](wl::TestBed& bed, int tid) {
           return std::make_unique<wl::CreateFiles>(bed, 16384, 100, tid, 7);
         })
      .ops_per_sec();
}

double write_mbps(const std::string& fs, const std::string& opts) {
  BenchRun run;
  run.bed.fs = fs;
  run.bed.mount_opts = opts;
  run.nthreads = 1;
  run.horizon = 20 * sim::kSecond;
  run.max_ops = 2'000;
  return run_bench(run, [&](wl::TestBed& bed, int tid) {
           wl::SharedFile file;
           file.size = 64ull << 20;
           return std::make_unique<wl::WriteMicro>(bed, file,
                                                   /*sequential=*/true,
                                                   128 * 1024, tid, 7);
         })
      .mbytes_per_sec();
}

}  // namespace

int main() {
  reset_costs();
  std::printf("Ablation A5: FUSE block I/O over io_uring (paper §8.1)\n\n");
  JsonReport json("uring", "mixed");

  std::printf("%-26s %14s %16s\n", "deployment", "creates/s",
              "write MBps(128K)");
  const double bento_c = create_ops("xv6_bento", "");
  const double bento_w = write_mbps("xv6_bento", "");
  std::printf("%-26s %14.1f %16.1f\n", "Bento (reference)", bento_c, bento_w);

  const double fuse_c = create_ops("xv6_fuse", "");
  const double fuse_w = write_mbps("xv6_fuse", "");
  std::printf("%-26s %14.1f %16.1f\n", "FUSE (syscalls)", fuse_c, fuse_w);

  const double uring_c = create_ops("xv6_fuse", "io_uring");
  const double uring_w = write_mbps("xv6_fuse", "io_uring");
  std::printf("%-26s %14.1f %16.1f\n", "FUSE (io_uring)", uring_c, uring_w);
  json.add("Bento", "creates_per_s", bento_c);
  json.add("Bento", "write_mbps_128k", bento_w);
  json.add("FUSE", "creates_per_s", fuse_c);
  json.add("FUSE", "write_mbps_128k", fuse_w);
  json.add("FUSE+io_uring", "creates_per_s", uring_c);
  json.add("FUSE+io_uring", "write_mbps_128k", uring_w);

  std::printf("\nio_uring speedup on FUSE:  creates %.2fx, writes %.2fx\n",
              uring_c / fuse_c, uring_w / fuse_w);
  std::printf("remaining gap to Bento:    creates %.1fx, writes %.1fx\n",
              bento_c / uring_c, bento_w / uring_w);
  std::printf(
      "\nAt the defaults, batching crossings is invisible: each whole-file\n"
      "fsync forces a host-side fsync (~600us) plus a device FLUSH (~800us\n"
      "on consumer NVMe), and those semantics (ablation A3) are first-\n"
      "order. Removing them step by step exposes the crossing term that\n"
      "io_uring amortizes:\n\n");

  struct Step {
    const char* label;
    sim::Nanos host_fsync;
    bool plp;
  };
  const Step steps[] = {
      {"consumer SSD, 600us fsync", sim::usec(600), false},
      {"consumer SSD, free fsync", 0, false},
      {"PLP SSD, 600us fsync", sim::usec(600), true},
      {"PLP SSD, free fsync", 0, true},
  };
  std::printf("%-28s %14s %12s %10s\n", "configuration", "FUSE creates/s",
              "+io_uring", "speedup");
  for (const auto& step : steps) {
    reset_costs();
    sim::costs().host_file_fsync = step.host_fsync;
    const double plain = create_ops("xv6_fuse", "", step.plp);
    const double uring = create_ops("xv6_fuse", "io_uring", step.plp);
    std::printf("%-28s %14.1f %12.1f %9.2fx\n", step.label, plain, uring,
                uring / plain);
    json.add("sweep/plain", step.label, plain);
    json.add("sweep/io_uring", step.label, uring);
    std::fflush(stdout);
  }
  reset_costs();
  return 0;
}
