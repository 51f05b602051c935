// The mount-option vocabulary, table-driven: every token sets its typed
// MountOptions field, and typos, malformed values and removed tokens fail
// both MountOptions::parse and Kernel::mount with EINVAL.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "../testutil.h"
#include "kernel/mount_options.h"

namespace bsim::test {
namespace {

using kern::Err;
using kern::ErrorsMode;
using kern::MountOptions;

struct Accepted {
  const char* opts;
  std::function<bool(const MountOptions&)> sets;
};

const Accepted kVocabulary[] = {
    // rw is the default: it sets nothing.
    {"rw", [](const MountOptions& m) { return !m.striped(); }},
    {"stripe=4", [](const MountOptions& m) { return m.stripe.ndevices == 4; }},
    {"chunk=32",
     [](const MountOptions& m) {
       return m.stripe.chunk_blocks == 32 && m.parity.chunk_blocks == 32;
     }},
    {"linear",
     [](const MountOptions& m) {
       return m.stripe.mode == blk::StripeMode::Linear;
     }},
    {"mirror=2", [](const MountOptions& m) { return m.mirror.nmirrors == 2; }},
    {"policy=rr",
     [](const MountOptions& m) {
       return m.mirror.policy == blk::MirrorReadPolicy::RoundRobin;
     }},
    {"policy=sq",
     [](const MountOptions& m) {
       return m.mirror.policy == blk::MirrorReadPolicy::ShortestQueue;
     }},
    {"parity=4", [](const MountOptions& m) { return m.parity.ndata == 4; }},
    {"spare=1",
     [](const MountOptions& m) {
       return m.mirror.nspares == 1 && m.parity.nspares == 1;
     }},
    {"scrub",
     [](const MountOptions& m) {
       return m.mirror.auto_scrub && m.parity.auto_scrub;
     }},
    {"trace=100", [](const MountOptions& m) { return m.trace == 100; }},
    {"retries=3", [](const MountOptions& m) { return m.retries == 3u; }},
    {"retry_backoff_us=200",
     [](const MountOptions& m) { return m.retry_backoff == sim::usec(200); }},
    {"io_deadline_ms=5",
     [](const MountOptions& m) { return m.io_deadline == sim::msec(5); }},
    {"errors=remount-ro",
     [](const MountOptions& m) { return m.errors == ErrorsMode::RemountRo; }},
    {"errors=continue",
     [](const MountOptions& m) { return m.errors == ErrorsMode::Continue; }},
    {"errors=panic",
     [](const MountOptions& m) { return m.errors == ErrorsMode::Panic; }},
    {"noflusher", [](const MountOptions& m) { return m.noflusher; }},
    {"nogroup", [](const MountOptions& m) { return m.nogroup; }},
    {"nopipeline", [](const MountOptions& m) { return m.nopipeline; }},
    {"io_uring", [](const MountOptions& m) { return m.io_uring; }},
    {"extfuse", [](const MountOptions& m) { return m.extfuse; }},
};

const char* const kRejected[] = {
    "mirrro=2",        // typo'd key
    "chunk=16k",       // trailing junk in a numeric value
    "stripe=",         // missing value
    "stripe=0",        // out of range
    "chunk=0",
    "trace=-1",
    "retries=99999999999999999999999",  // overflows
    "policy=xx",
    "errors=maybe",
    "noflusher,bogus",  // one bad token fails the whole string
    "noplug",           // removed: request plugging is gone
    "lax_opts",         // removed: there is no opt-out of validation
    "log_blocks=64",    // removed: no workload tuned the block threshold
    "max_log_batch=4",  // removed: no workload pooled other than 8 or 1
    "max_log_batch=0",
};

class MountOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::set_current(&thread_);
    blk::DeviceParams params;
    params.nblocks = 8192;
    xv6::mkfs(kernel_.add_device("ssd0", params), /*ninodes=*/256);
    register_all_xv6(kernel_);
  }

  sim::SimThread thread_{0};
  kern::Kernel kernel_;
};

TEST_F(MountOptionsTest, EveryTokenSetsItsFieldAndRejectsTheRest) {
  for (const Accepted& a : kVocabulary) {
    SCOPED_TRACE(a.opts);
    auto mo = MountOptions::parse(a.opts);
    ASSERT_TRUE(mo.ok());
    EXPECT_TRUE(a.sets(mo.value()));
    ASSERT_EQ(kernel_.mount("xv6_bento", "ssd0", "/mnt", a.opts), Err::Ok);
    ASSERT_EQ(kernel_.umount("/mnt"), Err::Ok);
  }
  for (const char* bad : kRejected) {
    SCOPED_TRACE(bad);
    auto mo = MountOptions::parse(bad);
    ASSERT_FALSE(mo.ok());
    EXPECT_EQ(mo.error(), Err::Inval);
    EXPECT_EQ(kernel_.mount("xv6_bento", "ssd0", "/mnt", bad), Err::Inval);
    EXPECT_EQ(kernel_.umount("/mnt"), Err::NoEnt);  // nothing mounted
  }
}

TEST_F(MountOptionsTest, CombinedStringsSelectVolumesAndTuneTheLog) {
  auto mo = MountOptions::parse("stripe=4 chunk=8,mirror=2,,nogroup");
  ASSERT_TRUE(mo.ok());
  ASSERT_TRUE(mo.value().striped().has_value());
  EXPECT_EQ(mo.value().striped()->chunk_blocks, 8u);
  ASSERT_TRUE(mo.value().mirrored().has_value());
  EXPECT_FALSE(mo.value().parity_volume().has_value());
  // "=1" (or parity below two data columns) selects no volume layer.
  auto plain = MountOptions::parse("stripe=1,mirror=1,parity=1");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().striped() || plain.value().mirrored() ||
               plain.value().parity_volume());

  // The journal tokens set only their own flags.
  EXPECT_TRUE(mo.value().nogroup);
  EXPECT_FALSE(mo.value().nopipeline);
  auto tuned = MountOptions::parse("nogroup,nopipeline");
  ASSERT_TRUE(tuned.ok());
  EXPECT_TRUE(tuned.value().nogroup && tuned.value().nopipeline);
  EXPECT_FALSE(plain.value().nogroup || plain.value().nopipeline);
}

}  // namespace
}  // namespace bsim::test
