// Ablation A2: how much of FUSE's collapse is the transport (user/kernel
// crossings + request copies) versus the userspace block-I/O durability
// path? We sweep the per-crossing cost on the create microbenchmark.
//
// Expected: nearly flat. The paper's §6.4 observation holds in the model —
// the dominant cost is the per-block whole-file fsync, not the transport.
// (Compare with bench_ablation_sync, which sweeps the fsync cost and moves
// the needle dramatically.)
#include "common.h"

using namespace bsim;
using namespace bsim::bench;

int main() {
  std::printf("Ablation A2: FUSE crossing-cost sweep (create, 1 thread)\n");
  JsonReport json("crossings", "creates/s");
  std::printf("%14s %12s\n", "crossing (ns)", "creates/s");
  for (const sim::Nanos crossing : {0, 500, 1500, 3000, 6000}) {
    reset_costs();
    sim::costs().fuse_crossing = crossing;
    BenchRun run;
    run.bed.fs = "xv6_fuse";
    run.nthreads = 1;
    run.horizon = 30 * sim::kSecond;
    run.max_ops = 2'000;
    auto stats = run_bench(run, [&](wl::TestBed& bed, int tid) {
      return std::make_unique<wl::CreateFiles>(bed, 16384, 100, tid, 7);
    });
    std::printf("%14lld %12.1f\n", static_cast<long long>(crossing),
                stats.ops_per_sec());
    json.add("FUSE", std::to_string(crossing) + "ns", stats.ops_per_sec());
    std::fflush(stdout);
  }
  reset_costs();
  return 0;
}
