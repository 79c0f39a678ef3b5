// Machine state fingerprint tests (invariant SNAP-1): TestBed::state_bytes()
// is a pure function of the simulated machine state — the same drive gives
// the same bytes, a different seed gives different bytes, and a machine at
// a fingerprintable point passes the full coherence audit. Parameterized
// across the tracker backends x EPT granularity configurations so every
// serialized subsystem (guest PTs in both backends, huge leaves,
// eager-split state, PML/EPML rings, uffd-free quiescent state, frame
// digests) gets exercised.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "base/rng.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/check/invariant.hpp"
#include "technique_label.hpp"

namespace ooh::lib {
namespace {

enum class Gran { k4k, k2m, k2mSplit };

std::string gran_label(Gran g) {
  switch (g) {
    case Gran::k4k: return "4k";
    case Gran::k2m: return "2m";
    case Gran::k2mSplit: return "2m_split";
  }
  return "?";
}

using test::technique_label;

TestBedOptions bed_options(Gran g) {
  TestBedOptions opts;
  opts.host_mem_bytes = 2 * kGiB;
  opts.vm_mem_bytes = 256 * kMiB;
  opts.ept_huge = g != Gran::k4k;
  opts.eager_split = g == Gran::k2mSplit;
  return opts;
}

/// Drive the bed through a tracked run and leave it quiescent: a realistic
/// mid-experiment machine (faulted translations, dirty flags, ring history,
/// per-vCPU time) at a fingerprintable point.
void advance(TestBed& bed, Technique tech, u64 seed) {
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 96;
  // data-backed so writes materialise frame contents: the fingerprint then
  // also covers the per-frame digests.
  const Gva base = proc.mmap(pages * kPageSize, /*data_backed=*/true);
  auto tracker = make_tracker(tech, k, proc);
  RunOptions opts;
  opts.collect_period = usecs(200);
  const RunResult r = run_tracked(
      k, proc,
      [=](guest::Process& p) {
        Rng rng(seed);
        for (u64 i = 0; i < pages * 3; ++i) {
          const Gva page = base + rng.below(pages) * kPageSize;
          p.write_u64(page, seed + i);
        }
      },
      tracker.get(), opts);
  tracker->shutdown();
  // Tracker shutdown untracks the process but deliberately leaves the OoH
  // module resident (one module per guest); the fingerprint additionally
  // requires the module unloaded — part of the quiescence contract.
  k.unload_ooh_module();
  ASSERT_GT(r.truth_pages, 0u);
}

class SnapshotRoundTrip
    : public ::testing::TestWithParam<std::tuple<Technique, Gran>> {};

// A second bed driven the same way from scratch fingerprints to the same
// bytes, fingerprinting leaves the bed unchanged, and the bed passes audit.
TEST_P(SnapshotRoundTrip, RestoredStateStreamIsByteIdentical) {
  const auto [tech, gran] = GetParam();
  const u64 seed = 0x5eed + static_cast<u64>(tech);
  TestBed bed(bed_options(gran));
  advance(bed, tech, seed);
  const std::vector<u8> bytes = bed.state_bytes();
  EXPECT_GT(bytes.size(), 0u);
  // Fingerprinting observes the machine; it must not perturb it.
  EXPECT_TRUE(bed.state_bytes() == bytes);

  TestBed rebuilt(bed_options(gran));
  advance(rebuilt, tech, seed);
  EXPECT_TRUE(rebuilt.state_bytes() == bytes)
      << technique_label(tech) << "/" << gran_label(gran)
      << ": the same drive serialized differently";

  // SNAP-1 closes with the oracle's word, not just stream equality: a
  // fingerprintable machine passes the full cross-layer coherence audit.
  EXPECT_NO_THROW(bed.checker().audit_all());
}

// Two beds through the same two drive phases fingerprint alike; a different
// second-phase seed fingerprints differently.
TEST_P(SnapshotRoundTrip, RestoredMachineContinuesIdentically) {
  const auto [tech, gran] = GetParam();
  const u64 seed = 0xabcd + static_cast<u64>(tech);

  // Everything — virtual time, counters, tables, ring history, frame
  // contents — must match.
  TestBed first(bed_options(gran));
  advance(first, tech, seed);
  advance(first, tech, seed ^ 0xff);
  TestBed second(bed_options(gran));
  advance(second, tech, seed);
  advance(second, tech, seed ^ 0xff);
  const std::vector<u8> bytes = first.state_bytes();
  EXPECT_TRUE(second.state_bytes() == bytes)
      << technique_label(tech) << "/" << gran_label(gran)
      << ": the same two-phase drive diverged";

  // A different second-phase seed writes other pages and values: the
  // fingerprint must see it.
  TestBed other(bed_options(gran));
  advance(other, tech, seed);
  advance(other, tech, seed ^ 0xfe);
  EXPECT_FALSE(other.state_bytes() == bytes)
      << technique_label(tech) << "/" << gran_label(gran)
      << ": a different seed produced the same fingerprint";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllGrans, SnapshotRoundTrip,
    ::testing::Combine(::testing::Values(Technique::kProc, Technique::kUfd,
                                         Technique::kSpml, Technique::kEpml,
                                         Technique::kWp),
                       ::testing::Values(Gran::k4k, Gran::k2m, Gran::k2mSplit)),
    [](const ::testing::TestParamInfo<SnapshotRoundTrip::ParamType>& param_info) {
      return technique_label(std::get<0>(param_info.param)) + "_" +
             gran_label(std::get<1>(param_info.param));
    });

TEST(Snapshot, SaveRefusesNonQuiescentMachine) {
  TestBed bed(bed_options(Gran::k4k));
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(8 * kPageSize);
  auto tracker = make_tracker(Technique::kEpml, k, proc);
  tracker->init();
  tracker->begin_interval();
  proc.touch_write(base);
  // Mid-session (OoH module loaded, rings armed) is not fingerprintable.
  EXPECT_THROW((void)bed.state_bytes(), std::logic_error);
  tracker->shutdown();
  // Shutdown alone is not quiescent either: the module stays resident.
  EXPECT_THROW((void)bed.state_bytes(), std::logic_error);
  k.unload_ooh_module();
  EXPECT_NO_THROW((void)bed.state_bytes());
}

// FRAME-4: materialised frame contents claimed by nothing are orphaned
// bytes; the ownership audit must say so.
TEST(Snapshot, FrameAuditFlagsOrphanedBacking) {
  TestBed bed(bed_options(Gran::k4k));
  advance(bed, Technique::kProc, 13);
  EXPECT_NO_THROW(bed.checker().audit_frames());

  // Materialise contents for a frame no mapping or PML buffer accounts
  // for: FRAME-4 must fire.
  const Hpa orphan = (bed.machine().pmem.total_frames() - 1) * kPageSize;
  (void)bed.machine().pmem.frame_data(orphan);
  try {
    bed.checker().audit_frames();
    FAIL() << "FRAME-4 did not fire on an orphaned backed frame";
  } catch (const check::InvariantViolation& v) {
    EXPECT_EQ(v.id, "FRAME-4");
  }
}

}  // namespace
}  // namespace ooh::lib
