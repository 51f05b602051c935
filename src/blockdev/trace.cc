#include "blockdev/trace.h"

#include <algorithm>
#include <cstdio>

namespace bsim::blk {

const char* trace_ev_name(TraceEv ev) {
  switch (ev) {
    case TraceEv::Queue: return "Q";
    case TraceEv::Merge: return "M";
    case TraceEv::Dispatch: return "D";
    case TraceEv::Complete: return "C";
    case TraceEv::FanChild: return "X";
    case TraceEv::Flush: return "F";
    case TraceEv::TxnOpen: return "TO";
    case TraceEv::TxnClose: return "TC";
    case TraceEv::JLogWrite: return "JW";
    case TraceEv::JCommitRecord: return "JR";
    case TraceEv::JCheckpoint: return "JK";
    case TraceEv::Requeue: return "R";
  }
  return "?";
}

const char* trace_op_name(TraceOp op) {
  switch (op) {
    case TraceOp::Read: return "R";
    case TraceOp::Write: return "W";
    case TraceOp::Flush: return "F";
    case TraceOp::Journal: return "J";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

std::uint16_t Tracer::register_device(std::string name) {
  names_.push_back(std::move(name));
  counts_.emplace_back();
  return static_cast<std::uint16_t>(names_.size() - 1);
}

void Tracer::emit(const TraceEvent& e) {
  emitted_ += 1;
  if (e.dev < counts_.size()) {
    counts_[e.dev][static_cast<std::size_t>(e.ev)] += 1;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  // Full: overwrite the oldest event (head_ is the logical start).
  ring_[head_] = e;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Tracer::count(std::uint16_t dev, TraceEv ev) const {
  if (dev >= counts_.size()) return 0;
  return counts_[dev][static_cast<std::size_t>(ev)];
}

bool Tracer::dump_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"type\": \"header\", \"schema\": 1, \"capacity\": %zu, "
                  "\"devices\": [",
               capacity_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "", names_[i].c_str());
  }
  std::fprintf(f, "]}\n");
  for (const TraceEvent& e : events()) {
    std::fprintf(f, "{\"t\": %lld, \"ev\": \"%s\", \"dev\": %u, \"id\": %llu",
                 static_cast<long long>(e.t), trace_ev_name(e.ev),
                 static_cast<unsigned>(e.dev),
                 static_cast<unsigned long long>(e.id));
    if (e.parent != 0) {
      std::fprintf(f, ", \"parent\": %llu",
                   static_cast<unsigned long long>(e.parent));
    }
    std::fprintf(f, ", \"block\": %llu, \"n\": %u, \"op\": \"%s\"}\n",
                 static_cast<unsigned long long>(e.block), e.nblocks,
                 trace_op_name(e.op));
  }
  std::fprintf(f, "{\"type\": \"trailer\", \"emitted\": %llu, "
                  "\"dropped\": %llu, \"counts\": [",
               static_cast<unsigned long long>(emitted_),
               static_cast<unsigned long long>(dropped()));
  for (std::size_t d = 0; d < names_.size(); ++d) {
    std::fprintf(f, "%s{\"dev\": %zu, \"name\": \"%s\"", d > 0 ? ", " : "", d,
                 names_[d].c_str());
    for (int ev = 0; ev < kTraceEvCount; ++ev) {
      std::fprintf(f, ", \"%s\": %llu",
                   trace_ev_name(static_cast<TraceEv>(ev)),
                   static_cast<unsigned long long>(counts_[d][ev]));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return true;
}

}  // namespace bsim::blk
