// The repository benchmark's simulation binary. For one workload it runs
// every deployment (xv6_bento, xv6_vfs, xv6_fuse, ext4j) through the same
// sequence: build the bed (mkfs + mount), prepare the data set, remount,
// run the clients for a fixed number of requests, verify. It prints one
// JSON line with the results; perfbench/run.py turns that into the
// benchmark's metrics.
//
//   perfbench --workload mail|stream|untar --seed N --seconds S
//             --trace 0|1 --out DIR
//
// --trace 0 repeats untraced rounds (at least two) until S host seconds
// have passed; virtual results must be identical in every round. setup_s is
// the median over rounds, host_s sums each request's least host time.
// --trace 1 runs two untraced rounds and one traced round, checks that
// their virtual results are identical and writes the traced round's stats
// snapshots and block trace to DIR.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "content.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/testbed.h"
#include "xv6fs/fsck.h"

namespace perfbench {
namespace {

namespace blk = bsim::blk;
namespace wl = bsim::wl;

const char* const kDeployments[] = {"xv6_bento", "xv6_vfs", "xv6_fuse",
                                    "ext4j"};

/// Trace-ring capacity for the traced round; the ring must not overflow.
constexpr std::size_t kTraceEvents = 40'000'000;

double seconds_since(std::int64_t t) {
  return static_cast<double>(host_ns() - t) / 1e9;
}

bool is_xv6(const std::string& dep) { return dep != "ext4j"; }

std::string join_opts(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "," + b;
}

std::string num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{} || !std::isfinite(v)) return "0";
  return std::string(buf, end);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

/// Nearest-rank percentile of sorted samples, in microseconds; reported
/// only when at least 10 samples lie beyond it.
struct Pct {
  bool ok = false;
  double us = 0;
};

Pct percentile(const std::vector<Nanos>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0 || sorted.size() - rank < 10) return {};
  return {true, static_cast<double>(sorted[rank - 1]) / 1e3};
}

enum class Mode { Untraced, Traced, Crash };

struct DepResult {
  std::string dep;
  std::uint64_t requests = 0;
  Nanos elapsed = 0;
  std::vector<Nanos> latency;  // sorted
  std::vector<std::int64_t> host_ns;  // per request, in execution order
  double setup_s = 0;
  double host_s = 0;
  Counters counters;
  std::vector<std::string> problems;
  // traced round only
  Attribution attr;
  BlockLatency blk;
  std::string stats_pre, stats_start, stats_end, trace_jsonl;
};

class Problems {
 public:
  void add(const std::string& p) {
    if (list_.size() < 20) list_.push_back(p);
    count_ += 1;
  }
  [[nodiscard]] bool any() const { return count_ > 0; }
  [[nodiscard]] const std::vector<std::string>& list() const { return list_; }

 private:
  std::vector<std::string> list_;
  std::uint64_t count_ = 0;
};

void mount_or_throw(kern::Kernel& k, const std::string& type,
                    const std::string& opts) {
  const kern::Err e = k.mount(type, "ssd0", "/mnt", opts);
  if (e != kern::Err::Ok) {
    throw std::runtime_error("mount " + type + " (" + opts +
                             ") failed: " + kern::err_name(e));
  }
}

void fsck_or_report(blk::BlockDevice& dev, const std::string& what,
                    std::vector<std::string>& problems) {
  const bsim::xv6::FsckReport r = bsim::xv6::fsck(dev);
  if (!r.ok) problems.push_back(what + ": fsck: " + r.summary());
}

/// Recover a crashed image on a fresh bed of the same geometry: copy every
/// block over a newly formatted device, then mount so the journal replays.
void recover_and_verify(const wl::BedOptions& opts,
                        const std::vector<blk::BlockData>& image, Plan& plan,
                        DepResult& res) {
  wl::TestBed bed(opts);
  kern::Kernel& k = bed.kernel();
  sim::SimThread t(2000);
  sim::ScopedThread in(t);
  (void)k.umount("/mnt");
  for (std::uint64_t b = 0; b < image.size(); ++b) {
    bed.device().write_untimed(b, image[b]);
  }
  mount_or_throw(k, opts.fs, opts.mount_opts);
  Counters c;
  {
    auto proc = k.new_process();
    Sys sys(k, *proc, c, nullptr);
    plan.verify(sys, /*after_crash=*/true);
  }
  (void)k.umount("/mnt");
  if (c.failed != 0 || c.mismatches != 0) {
    res.problems.push_back(res.dep + ": durability: " + c.first_error);
  }
  if (is_xv6(res.dep)) {
    fsck_or_report(bed.device(), res.dep + " after recovery", res.problems);
  }
}

DepResult run_deployment(const WorkloadSpec& spec, const std::string& dep,
                         std::uint64_t seed, Mode mode, bool verify,
                         const std::string& out_dir) {
  DepResult res;
  res.dep = dep;
  std::unique_ptr<Plan> plan = spec.make(seed, mode == Mode::Crash);

  const std::int64_t t_setup = host_ns();
  wl::BedOptions opts;
  opts.fs = dep;
  opts.mount_opts = spec.mount_opts;
  if (mode == Mode::Crash) {
    opts.device_blocks = 16384;  // 64 MiB: the image is copied whole
    opts.ninodes = 4096;
  }
  Recorder rec;  // outlives the bed: the traced types hold references to it
  wl::TestBed bed(opts);
  kern::Kernel& k = bed.kernel();
  if (mode == Mode::Traced) register_traced_types(k, rec);

  sim::SimThread boot(1000);
  sim::ScopedThread in(boot);
  RunCtx ctx(k);
  ctx.seed = seed;
  {
    auto proc = k.new_process();
    Sys sys(k, *proc, ctx.counters, nullptr);
    plan->prepare(sys);
  }
  // Remount: the measured phase starts with cold caches and a clean
  // journal, on the same path for every round.
  (void)k.umount("/mnt");
  std::string mount_opts = spec.mount_opts;
  std::string type = dep;
  if (mode == Mode::Traced) {
    res.stats_pre = k.dump_stats();
    mount_opts = join_opts(mount_opts,
                           "trace=" + std::to_string(kTraceEvents));
    type = "traced." + dep;
  }
  mount_or_throw(k, type, mount_opts);
  res.setup_s = seconds_since(t_setup);
  if (mode == Mode::Crash) bed.device().enable_crash_tracking();

  std::vector<std::unique_ptr<sim::Workload>> jobs;
  std::vector<Client*> clients;
  for (int i = 0; i < plan->clients(); ++i) {
    auto c = plan->client(ctx, i);
    clients.push_back(c.get());
    jobs.push_back(std::move(c));
  }
  ctx.ready_at = boot.now();
  ctx.pending_setups = plan->clients();
  ctx.rec = mode == Mode::Traced ? &rec : nullptr;
  std::int64_t t_measure = host_ns();
  ctx.on_ready = [&] {
    if (mode == Mode::Traced) {
      res.stats_start = k.dump_stats();
      rec.arm(bed.device().tracer());
    }
    t_measure = host_ns();
  };
  sim::RunnerOptions ro;
  ro.horizon = 1'000'000 * sim::kSecond;  // fixed work: never cut short
  const sim::RunStats st = sim::run_workloads(jobs, ro);
  res.host_s = seconds_since(t_measure);
  rec.disarm();
  res.requests = st.ops;
  res.elapsed = st.elapsed;
  res.latency = std::move(ctx.latency);
  res.host_ns = std::move(ctx.host_ns);
  std::sort(res.latency.begin(), res.latency.end());

  if (mode == Mode::Traced) {
    res.stats_end = k.dump_stats();
    const blk::Tracer* tr = bed.device().tracer();
    if (tr == nullptr || tr->dropped() != 0) {
      res.problems.push_back(dep + ": trace ring missing or overflowed");
    } else {
      const std::vector<blk::TraceEvent> events = tr->events();
      res.attr = rec.attribute(events, blk::DeviceParams{});
      res.blk = block_latency(events);
      res.trace_jsonl = out_dir + "/" + spec.name + "." + dep + ".trace.jsonl";
      if (!tr->dump_jsonl(res.trace_jsonl)) {
        res.problems.push_back(dep + ": cannot write " + res.trace_jsonl);
      }
    }
  }

  for (Client* c : clients) {
    if (!c->finished()) res.problems.push_back(dep + ": a client stopped early");
    c->teardown();
  }
  if (mode == Mode::Crash) {
    // Power cut: everything the device had not made durable is lost.
    sim::Rng crash_rng(seed ^ 0xc7a5'4ULL);
    bed.device().crash(0.0, crash_rng);
    std::vector<blk::BlockData> image(bed.device().nblocks());
    for (std::uint64_t b = 0; b < image.size(); ++b) {
      bed.device().read_untimed(b, image[b]);
    }
    recover_and_verify(opts, image, *plan, res);
  } else {
    if (verify) {
      auto proc = k.new_process();
      Sys sys(k, *proc, ctx.counters, nullptr);
      plan->verify(sys, /*after_crash=*/false);
    }
    (void)k.umount("/mnt");
    if (verify && is_xv6(dep)) fsck_or_report(bed.device(), dep, res.problems);
  }
  res.counters = ctx.counters;
  return res;
}

struct Round {
  std::vector<DepResult> deps;
  double setup_s = 0;
  double host_s = 0;
};

Round run_round(const WorkloadSpec& spec, std::uint64_t seed, Mode mode,
                bool verify, const std::string& out_dir) {
  Round r;
  for (const char* dep : kDeployments) {
    r.deps.push_back(run_deployment(spec, dep, seed, mode, verify, out_dir));
    r.setup_s += r.deps.back().setup_s;
    r.host_s += r.deps.back().host_s;
  }
  return r;
}

/// Virtual results of two rounds must agree bit for bit.
bool same_virtual(const Round& a, const Round& b) {
  for (std::size_t i = 0; i < a.deps.size(); ++i) {
    if (a.deps[i].requests != b.deps[i].requests ||
        a.deps[i].elapsed != b.deps[i].elapsed ||
        a.deps[i].latency != b.deps[i].latency) {
      return false;
    }
  }
  return true;
}

/// host_s: every round does identical work request by request (their
/// virtual results are bit-identical), so each request's host cost is the
/// least it took in any round. That drops the time a busy machine kept the
/// benchmark waiting, which a per-round total would carry.
double min_host_seconds(const std::vector<Round>& rounds) {
  double total = 0;
  for (std::size_t d = 0; d < rounds.front().deps.size(); ++d) {
    std::vector<std::int64_t> best = rounds.front().deps[d].host_ns;
    for (const Round& r : rounds) {
      const std::vector<std::int64_t>& h = r.deps[d].host_ns;
      for (std::size_t i = 0; i < best.size() && i < h.size(); ++i) {
        best[i] = std::min(best[i], h[i]);
      }
    }
    for (const std::int64_t ns : best) total += static_cast<double>(ns);
  }
  return total / 1e9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The gate must catch a corrupted read: write a file, flip one byte of
/// its data on the device, remount cold and read it back.
bool negative_check(Problems& problems) {
  wl::BedOptions opts;
  opts.device_blocks = 4096;
  opts.ninodes = 256;
  wl::TestBed bed(opts);
  kern::Kernel& k = bed.kernel();
  sim::SimThread t(3000);
  sim::ScopedThread in(t);
  const std::uint64_t key = content_key(7, 7, 7);
  const std::uint64_t size = 3 * 4096;
  std::vector<std::byte> data(size);
  fill(data, key, 0);
  Counters c;
  auto proc = k.new_process();
  {
    Sys sys(k, *proc, c, nullptr);
    const int fd = sys.open("/mnt/victim", kern::kOCreat | kern::kOWrOnly);
    sys.pwrite(fd, data, 0);
    sys.close(fd);
  }
  (void)k.umount("/mnt");
  // Flip one byte in every device copy of the file's second block (the
  // journal may hold one besides the home location).
  blk::BlockData block{};
  bool corrupted = false;
  for (std::uint64_t b = 0; b < bed.device().nblocks(); ++b) {
    bed.device().read_untimed(b, block);
    if (std::memcmp(block.data(), data.data() + 4096, 4096) == 0) {
      block[100] ^= std::byte{0x01};
      bed.device().write_untimed(b, block);
      corrupted = true;
    }
  }
  mount_or_throw(k, opts.fs, "");
  Sys sys(k, *proc, c, nullptr);
  const int fd = sys.open("/mnt/victim", kern::kORdOnly);
  const bool caught =
      corrupted && fd >= 0 && !sys.read_whole(fd, size, key, "/mnt/victim") &&
      c.mismatches == 1;
  if (fd >= 0) sys.close(fd);
  if (!caught) problems.add("negative check: a corrupted read was not caught");
  return caught;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (find_workload(a.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  return a;
}

void check_round(const Round& r, Problems& problems) {
  for (const DepResult& d : r.deps) {
    for (const std::string& p : d.problems) problems.add(p);
    if (d.counters.failed != 0) {
      problems.add(d.dep + ": failed syscall: " + d.counters.first_error);
    }
    if (d.counters.mismatches != 0) {
      problems.add(d.dep + ": " + std::to_string(d.counters.mismatches) +
                   " mismatches: " + d.counters.first_error);
    }
    if (d.latency.size() != d.requests || d.requests == 0) {
      problems.add(d.dep + ": request count mismatch");
      continue;
    }
    const Pct p50 = percentile(d.latency, 0.50);
    const Pct p99 = percentile(d.latency, 0.99);
    const double max_us = static_cast<double>(d.latency.back()) / 1e3;
    if (!p50.ok || !p99.ok) {
      problems.add(d.dep + ": too few requests for an exact p99");
    } else if (!(p50.us <= p99.us && p99.us <= max_us)) {
      problems.add(d.dep + ": p50 <= p99 <= max violated");
    }
  }
}

void print_round_table(const char* title, const Round& r) {
  std::printf("%s\n", title);
  std::printf("  %-10s %9s %12s %10s %10s %10s %9s %9s\n", "deployment",
              "requests", "ops/s", "p50_us", "p99_us", "max_us", "setup_s",
              "host_s");
  for (const DepResult& d : r.deps) {
    if (d.latency.empty()) continue;
    std::printf("  %-10s %9llu %12.1f %10.1f %10.1f %10.1f %9.3f %9.3f\n",
                d.dep.c_str(), static_cast<unsigned long long>(d.requests),
                static_cast<double>(d.requests) /
                    (static_cast<double>(d.elapsed) / 1e9),
                percentile(d.latency, 0.5).us, percentile(d.latency, 0.99).us,
                static_cast<double>(d.latency.back()) / 1e3, d.setup_s,
                d.host_s);
  }
}

/// Per-layer metrics the spans give, keyed by "<deployment>.<metric>".
void span_metrics(const DepResult& d, std::map<std::string, double>& m) {
  const Attribution& a = d.attr;
  const double reqs = std::max<double>(1.0, static_cast<double>(a.requests));
  auto self_us = [&](Layer l) {
    return static_cast<double>(a.self_ns[static_cast<std::size_t>(l)]) /
           reqs / 1e3;
  };
  // Percentiles of unsorted samples; 0 when too few samples.
  auto pct = [](std::vector<Nanos> v, double q) {
    std::sort(v.begin(), v.end());
    return percentile(v, q).us;
  };
  auto lat = [&](Op op, double q) {
    return pct(a.kernel_lat[static_cast<std::size_t>(op)], q);
  };
  const std::string p = d.dep + ".";
  m[p + "kernel.syscall.host_ns"] =
      static_cast<double>(a.kernel_host_ns) /
      std::max<double>(1.0, static_cast<double>(a.kernel_calls));
  m[p + "kernel.self_us"] = self_us(Layer::Kernel);
  m[p + "kernel.create.p99_us"] = lat(Op::Create, 0.99);
  m[p + "kernel.write.p50_us"] = lat(Op::Write, 0.50);
  m[p + "kernel.fsync.p99_us"] = lat(Op::Fsync, 0.99);
  m[p + "kernel.read.p50_us"] = lat(Op::Read, 0.50);
  m[p + "blockdev.self_us"] = self_us(Layer::Blockdev);
  m[p + "blockdev.queue_wait.p99_us"] = pct(d.blk.queue_wait, 0.99);
  m[p + "blockdev.service.p50_us"] = pct(d.blk.service, 0.50);
  const char* module = d.dep == "xv6_bento"  ? "bento.dispatch.self_us"
                       : d.dep == "xv6_fuse" ? "fuse.transport.self_us"
                       : d.dep == "xv6_vfs"  ? "xv6fs_c.self_us"
                                             : "ext4.self_us";
  m[p + module] = self_us(Layer::Module);
  if (d.dep == "xv6_bento" || d.dep == "xv6_fuse") {
    m[p + "xv6fs.self_us"] = self_us(Layer::FsApi);
    m[p + "xv6fs.host_ns"] =
        static_cast<double>(a.fs_host_ns) /
        std::max<double>(1.0, static_cast<double>(a.fs_calls));
  }
}

std::string dep_artifacts(const DepResult& d, const std::string& out_dir,
                          const std::string& workload, Problems& problems) {
  auto write = [&](const std::string& tag, const std::string& body) {
    const std::string path =
        out_dir + "/" + workload + "." + d.dep + "." + tag + ".json";
    std::ofstream f(path);
    f << body;
    if (!f) problems.add("cannot write " + path);
    return path;
  };
  const Attribution& a = d.attr;
  auto count = [&](Op op) {
    return static_cast<double>(a.kernel_lat[static_cast<std::size_t>(op)].size());
  };
  const double mutations =
      count(Op::Create) + count(Op::Write) + count(Op::Unlink) +
      count(Op::Mkdir);
  std::string s = "{";
  s += "\"stats_pre\": " + quote(write("stats_pre", d.stats_pre));
  s += ", \"stats_start\": " + quote(write("stats_start", d.stats_start));
  s += ", \"stats_end\": " + quote(write("stats_end", d.stats_end));
  s += ", \"trace\": " + quote(d.trace_jsonl);
  s += ", \"elapsed_ns\": " + num(static_cast<double>(d.elapsed));
  s += ", \"syscalls\": " + num(static_cast<double>(a.kernel_calls));
  s += ", \"fsyncs\": " + num(count(Op::Fsync));
  s += ", \"mutations\": " + num(mutations);
  s += ", \"bytes_written\": " + num(static_cast<double>(d.counters.bytes_written));
  s += "}";
  return s;
}

int run(const Args& args) {
  const WorkloadSpec& spec = *find_workload(args.workload);
  Problems problems;
  negative_check(problems);

  const std::int64_t t0 = host_ns();
  std::vector<Round> rounds;
  rounds.push_back(run_round(spec, args.seed, Mode::Untraced, true, args.out));
  print_round_table("untraced round 1", rounds.back());
  check_round(rounds.back(), problems);

  if (spec.name == "mail") {
    // Durability pass, outside the timed rounds.
    for (const char* dep : kDeployments) {
      DepResult r = run_deployment(spec, dep, args.seed, Mode::Crash, true,
                                   args.out);
      for (const std::string& p : r.problems) problems.add(p);
      if (r.counters.failed != 0 || r.counters.mismatches != 0) {
        problems.add(std::string(dep) + ": durability run: " +
                     r.counters.first_error);
      }
    }
    std::printf("durability pass: %s\n", problems.any() ? "FAILED" : "ok");
  }

  std::map<std::string, double> metrics;
  std::string artifacts;
  if (args.trace == 0) {
    // At least two rounds, so every request's host time has a second
    // sample.
    while (rounds.size() < 2 || seconds_since(t0) < args.seconds) {
      rounds.push_back(
          run_round(spec, args.seed, Mode::Untraced, false, args.out));
      check_round(rounds.back(), problems);
      std::printf("round %zu: setup_s %.3f host_s %.3f\n", rounds.size(),
                  rounds.back().setup_s, rounds.back().host_s);
      if (!same_virtual(rounds.front(), rounds.back())) {
        problems.add("virtual results differ between untraced rounds");
      }
    }
    std::vector<double> setup;
    for (const Round& r : rounds) setup.push_back(r.setup_s);
    for (const DepResult& d : rounds.front().deps) {
      if (d.latency.empty()) continue;
      metrics[d.dep + ".ops_s"] = static_cast<double>(d.requests) /
                                  (static_cast<double>(d.elapsed) / 1e9);
      metrics[d.dep + ".p50_us"] = percentile(d.latency, 0.50).us;
      metrics[d.dep + ".p99_us"] = percentile(d.latency, 0.99).us;
    }
    metrics["setup_s"] = median(setup);
    metrics["host_s"] = min_host_seconds(rounds);
    metrics["peak_rss_mb"] = peak_rss_mb();
    std::printf("rounds %zu, setup_s %s, host_s %s\n", rounds.size(),
                num(metrics["setup_s"]).c_str(),
                num(metrics["host_s"]).c_str());
  } else {
    // The first round of a process also pays for growing its heap, so the
    // tracing cost is taken against a second, warm untraced round.
    const Round warm =
        run_round(spec, args.seed, Mode::Untraced, false, args.out);
    Round traced = run_round(spec, args.seed, Mode::Traced, false, args.out);
    print_round_table("traced round", traced);
    check_round(traced, problems);
    if (!same_virtual(rounds.front(), traced) ||
        !same_virtual(rounds.front(), warm)) {
      problems.add("traced and untraced virtual results differ");
    }
    artifacts = "{";
    for (const DepResult& d : traced.deps) {
      const Attribution& a = d.attr;
      if (a.bad_nesting != 0 || a.bad_sums != 0) {
        problems.add(d.dep + ": span check: " + a.first_problem);
      }
      if (d.blk.disorder != 0) {
        problems.add(d.dep + ": " + std::to_string(d.blk.disorder) +
                     " trace ids violate Q <= D <= C");
      }
      span_metrics(d, metrics);
      if (artifacts.size() > 1) artifacts += ", ";
      artifacts += quote(d.dep) + ": " +
                   dep_artifacts(d, args.out, spec.name, problems);
      std::printf("  %-10s self_us per request:", d.dep.c_str());
      const char* names[] = {"bench", "kernel", "module", "fs", "blockdev"};
      for (int l = 0; l < kLayers; ++l) {
        std::printf(" %s=%.2f", names[l],
                    static_cast<double>(a.self_ns[static_cast<std::size_t>(l)]) /
                        std::max<double>(1.0, static_cast<double>(a.requests)) /
                        1e3);
      }
      std::printf("\n");
    }
    artifacts += "}";
    metrics["trace.host_overhead"] =
        traced.host_s / std::max(1e-9, warm.host_s);
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const DepResult& d : rounds.front().deps) {
    attempted += d.counters.syscalls;
    failed += d.counters.failed;
  }
  std::string out = "{\"correct\": ";
  out += problems.any() ? "false" : "true";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < problems.list().size(); ++i) {
    out += (i ? ", " : "") + quote(problems.list()[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    out += (first ? "" : ", ") + quote(k) + ": " + num(v);
    first = false;
  }
  out += "}";
  if (!artifacts.empty()) out += ", \"artifacts\": " + artifacts;
  out += "}";
  for (const std::string& p : problems.list()) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  std::printf("%s\n", out.c_str());
  return problems.any() ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
