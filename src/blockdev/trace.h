// Block-layer tracing, modeled on blktrace/blkparse: a bounded ring of
// virtual-time events shared by one device tree (the traced root plus its
// volume members), armed at mount time by "-o trace=N" (N = ring capacity
// in events) and dumped as JSONL for the in-tree analyzer
// (bench/blkparse.py).
//
// Event vocabulary (blktrace letters where one exists):
//   Q  bio queued (enters a volume or a request queue, whichever first)
//   M  bio merged into the preceding request (back-merge/absorption)
//   D  merged request dispatched to a device channel
//   C  bio completed
//   R  bio requeued for a bounded retry after a transient error
//   X  fan-out child: a volume fragment bio linked to its logical parent
//   F  device FLUSH (cache destage barrier)
//   TO/TC  journal transaction opened / closed (id = txn sequence)
//   JW journal log-run write submitted    JR commit record submitted
//   JK checkpoint (install to home locations) submitted
//
// Tracing is free on the simulated clock: emission is host-side only and
// never calls into sim time, so "-o trace=" leaves every virtual-time
// result bit-identical (the trace-invariant tests pin this down).
//
// The ring drops the OLDEST events when full (dropped_ counts them), but
// per-device per-event counters are exact regardless of capacity, so
// count-based cross-checks against DeviceStats stay valid even after an
// overflow.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace bsim::blk {

enum class TraceEv : std::uint8_t {
  Queue,
  Merge,
  Dispatch,
  Complete,
  FanChild,
  Flush,
  TxnOpen,
  TxnClose,
  JLogWrite,
  JCommitRecord,
  JCheckpoint,
  Requeue,
};

inline constexpr int kTraceEvCount = 12;

/// The blkparse-style letter for an event ("Q", "D", "TO", ...).
const char* trace_ev_name(TraceEv ev);

/// Operation class of a traced event.
enum class TraceOp : std::uint8_t { Read, Write, Flush, Journal };

const char* trace_op_name(TraceOp op);

struct TraceEvent {
  sim::Nanos t = 0;          // virtual time of the event
  std::uint64_t id = 0;      // bio id, or txn sequence for journal events
  std::uint64_t parent = 0;  // logical parent bio id (FanChild), else 0
  std::uint64_t block = 0;   // first block of the bio/request
  std::uint32_t nblocks = 0;
  std::uint16_t dev = 0;     // slot from Tracer::register_device
  TraceEv ev = TraceEv::Queue;
  TraceOp op = TraceOp::Read;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Add a device to the trace's device table; returns its slot index.
  std::uint16_t register_device(std::string name);
  [[nodiscard]] const std::vector<std::string>& devices() const {
    return names_;
  }

  /// Fresh bio/request id (never 0).
  std::uint64_t next_id() { return ++last_id_; }

  void emit(const TraceEvent& e);

  /// Surviving ring contents in emission order (oldest first).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return emitted_ <= capacity_ ? 0 : emitted_ - capacity_;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Exact per-device count of `ev` events, independent of ring overflow.
  [[nodiscard]] std::uint64_t count(std::uint16_t dev, TraceEv ev) const;

  /// Dump header + events + trailer as JSONL (see bench/blkparse.py for
  /// the consumer). Returns false when the file cannot be written.
  bool dump_jsonl(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // overwrite cursor once the ring is full
  std::uint64_t emitted_ = 0;
  std::uint64_t last_id_ = 0;
  std::vector<std::string> names_;
  std::vector<std::array<std::uint64_t, kTraceEvCount>> counts_;
};

}  // namespace bsim::blk
