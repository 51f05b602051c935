// Request tracing for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code at four boundaries:
//   Request  one workload request (generated by the benchmark)
//   Kernel   every kern::Kernel call the request makes (see Sys)
//   Module   every VFS -> file-system-type operation (SpanOps, a shim the
//            benchmark installs on the mount's inodes): the Bento module,
//            the FUSE kernel driver, xv6fs_c or ext4
//   FsApi    every bento::FileSystem call (SpanFs, a forwarding decorator
//            around the xv6 file system that xv6_bento and xv6_fuse mount)
// plus the block layer's Q/C/F events from the device's trace ring.
//
// A layer's self time is its span minus the parts of it covered by its
// children. Every instant of a request is attributed to exactly one layer:
// Blockdev when a bio (or FLUSH) the request issued is in flight and
// completes before the issuing span returns, otherwise the deepest span
// covering the instant. The layer self times therefore sum exactly to the
// request's virtual latency; attribute() checks it per request, together
// with span nesting.
//
// Recording is host-side only: it reads clocks and never charges virtual
// time, so traced and untraced runs give bit-identical virtual results
// (main.cc checks this on every traced run).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bento/api.h"
#include "blockdev/device.h"
#include "blockdev/trace.h"
#include "kernel/kernel.h"
#include "sim/thread.h"

namespace perfbench {

using bsim::sim::Nanos;

enum class Layer : std::uint8_t { Request, Kernel, Module, FsApi, Blockdev };
inline constexpr int kLayers = 5;

/// Kernel-call classes, for per-syscall latency.
enum class Op : std::uint8_t {
  Open, Create, Read, Write, Fsync, Close, Unlink, Mkdir, None
};
inline constexpr int kOps = static_cast<int>(Op::None) + 1;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::Kernel;
  Op op = Op::None;
  bool background = false;  // ran on another simulated thread
  std::int32_t parent = -1;  // enclosing foreground span, -1 = request
  Nanos v0 = 0, v1 = 0;      // virtual start / end
  std::int64_t h0 = 0, h1 = 0;  // host start / end (steady clock ns)
  std::uint64_t ev0 = 0, ev1 = 0;  // trace events emitted before begin / end
};

/// What attribute() derives from one traced run.
struct Attribution {
  std::uint64_t requests = 0;
  std::array<Nanos, kLayers> self_ns{};  // summed over requests
  std::array<std::vector<Nanos>, kOps> kernel_lat;  // per kernel call
  std::uint64_t kernel_calls = 0;
  std::int64_t kernel_host_ns = 0;
  std::uint64_t fs_calls = 0;  // FsApi spans, any thread
  std::int64_t fs_host_ns = 0;
  std::uint64_t bad_nesting = 0;  // spans outside their parent / overlaps
  std::uint64_t bad_sums = 0;     // requests whose self times do not sum
  std::string first_problem;
};

/// Per-request block latencies rebuilt from the trace ring with the rules
/// of bench/blkparse.py: ids are global, queue wait is Q->D, service is
/// D->C, and every id must keep Q <= D <= C.
struct BlockLatency {
  std::vector<Nanos> queue_wait, service;
  std::uint64_t disorder = 0;  // ids violating Q <= D <= C
};
BlockLatency block_latency(const std::vector<bsim::blk::TraceEvent>& events);

class Recorder {
 public:
  /// Start recording; `tracer` is the device tree's trace ring.
  void arm(const bsim::blk::Tracer* tracer) {
    tracer_ = tracer;
    armed_ = true;
  }
  void disarm() { armed_ = false; }

  void begin_request();
  void end_request();
  /// Open a span on the current simulated thread; returns its handle
  /// (-1 when disarmed). Spans close in LIFO order.
  int begin(Layer layer, Op op = Op::None);
  void end(int handle);

  /// Attribute every recorded request. `events` is the full trace ring
  /// (it must not have dropped events); `dev` prices FLUSH service.
  [[nodiscard]] Attribution attribute(
      const std::vector<bsim::blk::TraceEvent>& events,
      const bsim::blk::DeviceParams& dev) const;

 private:
  struct Req {
    std::size_t first = 0, last = 0;  // span index range
    Nanos v0 = 0, v1 = 0;
    std::uint64_t ev0 = 0, ev1 = 0;
  };

  [[nodiscard]] std::uint64_t emitted() const {
    return tracer_ == nullptr ? 0 : tracer_->emitted();
  }

  bool armed_ = false;
  const bsim::blk::Tracer* tracer_ = nullptr;
  const bsim::sim::SimThread* req_thread_ = nullptr;
  std::vector<Span> spans_;
  std::vector<Req> reqs_;
  std::vector<int> open_;  // stack of open span handles
};

/// RAII span; a null recorder records nothing.
class Scope {
 public:
  Scope(Recorder* rec, Layer layer, Op op = Op::None)
      : rec_(rec), h_(rec == nullptr ? -1 : rec->begin(layer, op)) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->end(h_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
  int h_;
};

/// Register "traced.<deployment>" for the four deployments: the same file
/// system stack as "<deployment>", with SpanOps on the VFS boundary and,
/// for xv6_bento and xv6_fuse, SpanFs around the xv6 file system. Neither
/// adds virtual time.
void register_traced_types(bsim::kern::Kernel& kernel, Recorder& rec);

}  // namespace perfbench
