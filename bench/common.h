// Shared benchmark harness: builds a TestBed per (file system, workload)
// pair, runs it under the virtual-time Runner, and prints paper-style rows.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/runner.h"
#include "workloads/macro.h"
#include "workloads/micro.h"
#include "workloads/testbed.h"

namespace bsim::bench {

/// The deployments in the paper's naming.
inline const std::vector<std::pair<std::string, std::string>> kKernelFses = {
    {"Bento", "xv6_bento"}, {"C-Kernel", "xv6_vfs"}, {"FUSE", "xv6_fuse"}};
inline const std::vector<std::pair<std::string, std::string>> kAllFses = {
    {"Bento", "xv6_bento"},
    {"C-Kernel", "xv6_vfs"},
    {"FUSE", "xv6_fuse"},
    {"Ext4", "ext4j"}};

/// Reset the global cost model to defaults (benches that sweep a parameter
/// mutate sim::costs() and must restore it).
inline void reset_costs() { sim::costs() = sim::CostModel{}; }

using WorkloadFactory =
    std::function<std::unique_ptr<sim::Workload>(wl::TestBed&, int tid)>;

struct BenchRun {
  /// The deployment: fs, device size and latency model, mount options
  /// (volume geometry included, e.g. "stripe=4,chunk=16").
  wl::BedOptions bed;
  int nthreads = 1;
  sim::Nanos horizon = 60 * sim::kSecond;
  std::uint64_t max_ops = 0;
  // ---- observability dumps (written while the bed is still mounted) ----
  std::string stats_path;  // non-empty: Kernel::dump_stats() JSON snapshot
  std::string trace_path;  // non-empty: trace ring JSONL (needs "trace=N")
};

inline sim::RunStats run_bench(const BenchRun& cfg,
                               const WorkloadFactory& factory) {
  wl::TestBed bed(cfg.bed);
  std::vector<std::unique_ptr<sim::Workload>> jobs;
  jobs.reserve(static_cast<std::size_t>(cfg.nthreads));
  for (int t = 0; t < cfg.nthreads; ++t) jobs.push_back(factory(bed, t));
  sim::RunnerOptions ropts;
  ropts.horizon = cfg.horizon;
  ropts.max_ops = cfg.max_ops;
  sim::RunStats stats = sim::run_workloads(jobs, ropts);
  if (!cfg.stats_path.empty()) {
    (void)bed.kernel().dump_stats_to(cfg.stats_path);
  }
  if (!cfg.trace_path.empty() && bed.device().tracer() != nullptr) {
    (void)bed.device().tracer()->dump_jsonl(cfg.trace_path);
  }
  return stats;
}

inline void print_header(const char* title, const char* unit) {
  std::printf("\n%s  [%s]\n", title, unit);
  std::printf("%-12s", "");
}

inline void print_row_label(const char* label) { std::printf("%-12s", label); }

/// Machine-readable result sink: collects (series, label, value) rows and
/// writes BENCH_<name>.json next to the binary on destruction, so every
/// bench run leaves a data point and the perf trajectory accumulates
/// across PRs.
///
/// Schema v2: rows may carry their own unit and a gating direction —
/// "up" (higher is better; trend.py fails CI on a >threshold drop) or
/// "down" (lower is better, e.g. latency; trend.py fails on a >threshold
/// increase). Untagged rows keep the legacy behaviour (gated as "up" when
/// the report unit is MBps). A report can also record the BenchRun
/// configurations it measured (add_config) so the JSON artifact is
/// self-describing.
class JsonReport {
 public:
  explicit JsonReport(std::string name, std::string unit = "")
      : name_(std::move(name)), unit_(std::move(unit)) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { write(); }

  /// Legacy row in the report's default unit, e.g.
  /// add("Bento", "seq-1t/32KB", 114.2).
  void add(std::string series, std::string label, double value) {
    rows_.push_back(Row{std::move(series), std::move(label), value, "", ""});
  }

  /// Tagged row: `direction` is "up", "down", or "" (tracked, not gated).
  void add(std::string series, std::string label, double value,
           std::string unit, std::string direction) {
    rows_.push_back(Row{std::move(series), std::move(label), value,
                        std::move(unit), std::move(direction)});
  }

  /// Latency attribution: p50 rides along untagged-direction (tracked
  /// only), p99 is gated downward — a >threshold p99 increase fails CI
  /// even if bandwidth improved.
  void add_latency(const std::string& series, const std::string& label,
                   const sim::LatencyHistogram& h) {
    add(series + ".p50", label, static_cast<double>(h.quantile(0.50)), "ns",
        "");
    add(series + ".p99", label, static_cast<double>(h.quantile(0.99)), "ns",
        "down");
  }

  /// Record the provenance of one measured configuration.
  void add_config(std::string cname, const BenchRun& run) {
    Config c;
    c.name = std::move(cname);
    c.fs = run.bed.fs;
    c.mount_opts = run.bed.mount_opts;
    c.nthreads = run.nthreads;
    c.device_blocks = run.bed.device_blocks;
    auto mo = kern::MountOptions::parse(run.bed.mount_opts);
    if (mo.ok()) {
      const kern::MountOptions& g = mo.value();
      c.stripe_devices = static_cast<int>(g.stripe.ndevices);
      c.mirror_devices = static_cast<int>(g.mirror.nmirrors);
      if (g.parity_volume()) {
        c.parity_devices = static_cast<int>(g.parity.ndata);
      }
      c.spare_devices = static_cast<int>(g.parity.nspares);
    }
    configs_.push_back(std::move(c));
  }

 private:
  struct Row {
    std::string series;
    std::string label;
    double value;
    std::string unit;       // "" = report default
    std::string direction;  // "up" | "down" | "" (tracked only)
  };

  struct Config {
    std::string name;
    std::string fs;
    std::string mount_opts;
    int nthreads = 1;
    std::uint64_t device_blocks = 0;
    int stripe_devices = 1;
    int mirror_devices = 1;
    int parity_devices = 1;
    int spare_devices = 0;
  };

  static void escape(std::FILE* f, const std::string& s) {
    for (const char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', f);
      std::fputc(c, f);
    }
  }

  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"schema_version\": 2,\n"
                 "  \"unit\": \"%s\",\n",
                 name_.c_str(), unit_.c_str());
    if (!configs_.empty()) {
      std::fprintf(f, "  \"configs\": [\n");
      for (std::size_t i = 0; i < configs_.size(); ++i) {
        const Config& c = configs_[i];
        std::fprintf(f, "    {\"name\": \"");
        escape(f, c.name);
        std::fprintf(f, "\", \"fs\": \"");
        escape(f, c.fs);
        std::fprintf(f, "\", \"mount_opts\": \"");
        escape(f, c.mount_opts);
        std::fprintf(f,
                     "\", \"threads\": %d, \"device_blocks\": %llu, "
                     "\"stripe_devices\": %d, \"mirror_devices\": %d, "
                     "\"parity_devices\": %d, \"spare_devices\": %d}%s\n",
                     c.nthreads,
                     static_cast<unsigned long long>(c.device_blocks),
                     c.stripe_devices, c.mirror_devices, c.parity_devices,
                     c.spare_devices, i + 1 < configs_.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
    }
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {\"series\": \"");
      escape(f, rows_[i].series);
      std::fprintf(f, "\", \"label\": \"");
      escape(f, rows_[i].label);
      std::fprintf(f, "\", \"value\": %.6g", rows_[i].value);
      if (!rows_[i].unit.empty()) {
        std::fprintf(f, ", \"unit\": \"");
        escape(f, rows_[i].unit);
        std::fprintf(f, "\"");
      }
      if (!rows_[i].direction.empty()) {
        std::fprintf(f, ", \"direction\": \"");
        escape(f, rows_[i].direction);
        std::fprintf(f, "\"");
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  std::string name_;
  std::string unit_;
  std::vector<Row> rows_;
  std::vector<Config> configs_;
};

}  // namespace bsim::bench
