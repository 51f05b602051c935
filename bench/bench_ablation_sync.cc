// Ablation A3: sync granularity (§6.4). The FUSE deployment's durable
// block write is pwrite + fsync of the *whole disk file*; the kernel
// deployments write one block synchronously. We sweep the host-side fsync
// cost to show it is the first-order term in FUSE's create collapse, and
// print the kernel Bento number as the reference line.
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

namespace {

double run_create(const char* fs) {
  BenchRun run;
  run.bed.fs = fs;
  run.nthreads = 1;
  run.horizon = 30 * sim::kSecond;
  run.max_ops = 3'000;
  return run_bench(run, [&](wl::TestBed& bed, int tid) {
           return std::make_unique<wl::CreateFiles>(bed, 16384, 100, tid, 7);
         })
      .ops_per_sec();
}

}  // namespace

int main() {
  std::printf("Ablation A3: whole-file fsync cost sweep (create, 1 thread)\n");
  JsonReport json("sync", "creates/s");
  reset_costs();
  const double bento = run_create("xv6_bento");
  std::printf("%-28s %12.1f\n", "kernel Bento (reference)", bento);
  json.add("Bento", "reference", bento);

  std::printf("%18s %12s\n", "host fsync (us)", "FUSE creates/s");
  for (const sim::Nanos host : {sim::usec(100), sim::usec(500), sim::usec(2200),
                                sim::usec(5000), sim::usec(10000)}) {
    reset_costs();
    sim::costs().host_file_fsync = host;
    const double ops = run_create("xv6_fuse");
    std::printf("%18lld %12.1f\n",
                static_cast<long long>(host / sim::kMicrosecond), ops);
    json.add("FUSE", std::to_string(host / sim::kMicrosecond) + "us", ops);
    std::fflush(stdout);
  }
  reset_costs();
  return 0;
}
