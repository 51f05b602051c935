// Mount options: the whole "-o" vocabulary, parsed once into typed
// fields. Every layer that is configured at mount time — the volume the
// test bed builds, Kernel::mount's device-tree knobs and errors= policy,
// the flusher, the xv6 and ext4 journals, the FUSE transport — reads its
// fields from here; nothing else splits an option string.
//
// Syntax: tokens separated by ',' or ' '. Numeric values are parsed
// whole ("chunk=16k" is malformed, not 16). An unknown or malformed token
// fails the parse with Err::Inval, so a typo ("mirrro=2") fails the mount
// instead of silently mounting with the option ignored.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

#include "blockdev/mirrored.h"
#include "blockdev/parity.h"
#include "blockdev/striped.h"
#include "kernel/errno.h"
#include "sim/time.h"

namespace bsim::kern {

/// What a detected file-system error (journal abort, failed metadata
/// write the FS cannot recover) does to the mount — ext4's errors=.
enum class ErrorsMode : std::uint8_t {
  RemountRo,  // flip read-only: reads keep serving, writes fail RoFs
  Continue,   // record and keep going (errors still report via errseq)
  Panic,      // abort the simulation (errors=panic)
};

struct MountOptions {
  // ---- volume geometry (whoever builds the device: wl::TestBed) ----
  /// stripe=N (N>1 selects RAID0), chunk=K, linear.
  blk::StripeParams stripe{.ndevices = 1};
  /// mirror=N (N>1 selects RAID1; RAID10 with stripe), policy=rr|sq,
  /// spare=N, scrub.
  blk::MirrorParams mirror{.nmirrors = 1};
  /// parity=N (N>=2 data columns selects RAID5; RAID50 with stripe; beats
  /// mirror), chunk=K, spare=N, scrub.
  blk::ParityParams parity{.ndata = 0};

  // ---- device tree, armed by Kernel::mount before the FS mounts ----
  /// trace=N: blktrace-style ring of N events (0 = off).
  std::size_t trace = 0;
  /// retries=N, retry_backoff_us=N, io_deadline_ms=N: override the
  /// device tree's RetryPolicy field by field.
  std::optional<std::uint32_t> retries;
  std::optional<sim::Nanos> retry_backoff;
  std::optional<sim::Nanos> io_deadline;

  // ---- the mount itself ----
  /// errors=remount-ro|continue|panic.
  ErrorsMode errors = ErrorsMode::RemountRo;
  /// noflusher: writeback stays in writer context (no background flusher).
  bool noflusher = false;

  // ---- journals (xv6 Log and the C-kernel log; ext4 jbd: nopipeline) ----
  /// nogroup: commit at every closed op instead of pooling a group.
  bool nogroup = false;
  bool nopipeline = false;

  // ---- FUSE transport ----
  bool io_uring = false;  // the daemon batches its block I/O
  bool extfuse = false;   // eBPF metadata caches

  [[nodiscard]] std::optional<blk::StripeParams> striped() const {
    if (stripe.ndevices <= 1) return std::nullopt;
    return stripe;
  }
  [[nodiscard]] std::optional<blk::MirrorParams> mirrored() const {
    if (mirror.nmirrors <= 1) return std::nullopt;
    return mirror;
  }
  [[nodiscard]] std::optional<blk::ParityParams> parity_volume() const {
    if (parity.ndata < 2) return std::nullopt;
    return parity;
  }

  static Result<MountOptions> parse(std::string_view opts);
};

inline Result<MountOptions> MountOptions::parse(std::string_view opts) {
  MountOptions mo;
  std::size_t i = 0;
  while (i < opts.size()) {
    while (i < opts.size() && (opts[i] == ',' || opts[i] == ' ')) ++i;
    std::size_t j = i;
    while (j < opts.size() && opts[j] != ',' && opts[j] != ' ') ++j;
    if (j == i) break;
    const std::string_view tok = opts.substr(i, j - i);
    i = j;

    const std::size_t eq = tok.find('=');
    const std::string_view key = tok.substr(0, eq);
    const std::string_view val =
        eq == std::string_view::npos ? std::string_view{} : tok.substr(eq + 1);
    std::uint64_t n = 0;
    const auto [end, ec] =
        std::from_chars(val.data(), val.data() + val.size(), n);
    const bool numeric = eq != std::string_view::npos && !val.empty() &&
                         ec == std::errc{} && end == val.data() + val.size();
    const bool positive = numeric && n >= 1;

    if (tok == "rw") {  // the default; accepted for fstab compatibility
    } else if (tok == "linear") {
      mo.stripe.mode = blk::StripeMode::Linear;
    } else if (tok == "scrub") {
      mo.mirror.auto_scrub = mo.parity.auto_scrub = true;
    } else if (tok == "policy=rr") {
      mo.mirror.policy = blk::MirrorReadPolicy::RoundRobin;
    } else if (tok == "policy=sq") {
      mo.mirror.policy = blk::MirrorReadPolicy::ShortestQueue;
    } else if (tok == "errors=remount-ro") {
      mo.errors = ErrorsMode::RemountRo;
    } else if (tok == "errors=continue") {
      mo.errors = ErrorsMode::Continue;
    } else if (tok == "errors=panic") {
      mo.errors = ErrorsMode::Panic;
    } else if (tok == "noflusher") {
      mo.noflusher = true;
    } else if (tok == "nogroup") {
      mo.nogroup = true;
    } else if (tok == "nopipeline") {
      mo.nopipeline = true;
    } else if (tok == "io_uring") {
      mo.io_uring = true;
    } else if (tok == "extfuse") {
      mo.extfuse = true;
    } else if (key == "stripe" && positive) {
      mo.stripe.ndevices = n;
    } else if (key == "chunk" && positive) {
      mo.stripe.chunk_blocks = mo.parity.chunk_blocks = n;
    } else if (key == "mirror" && positive) {
      mo.mirror.nmirrors = n;
    } else if (key == "parity" && numeric) {
      mo.parity.ndata = n;
    } else if (key == "spare" && numeric) {
      mo.mirror.nspares = mo.parity.nspares = n;
    } else if (key == "trace" && numeric) {
      mo.trace = n;
    } else if (key == "retries" && numeric) {
      mo.retries = static_cast<std::uint32_t>(n);
    } else if (key == "retry_backoff_us" && numeric) {
      mo.retry_backoff = sim::usec(static_cast<sim::Nanos>(n));
    } else if (key == "io_deadline_ms" && numeric) {
      mo.io_deadline = sim::msec(static_cast<sim::Nanos>(n));
    } else {
      return Err::Inval;
    }
  }
  return mo;
}

}  // namespace bsim::kern
