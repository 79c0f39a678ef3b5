// Fault-injection suite (FAULT-1/FAULT-2 in docs/invariants.md): the
// deterministic FaultPlan/FaultInjector machinery, each injection point fired
// through the real PML/EPML/allocation/migration paths, graceful degradation
// to weaker techniques, bounded-retry self-IPI redelivery, and bit-identical
// same-seed replays. In audit builds every injected fault is chased by a full
// CoherenceChecker pass (the TestBed wires the post-fault hook), so a green
// run here is also the "audits stay clean after every fault" guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "guest/ooh_module.hpp"
#include "hypervisor/migration.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "sim/fault/fault_plan.hpp"
#include "sim/fault/injector.hpp"

namespace ooh::lib {
namespace {

using sim::fault::FaultInjector;
using sim::fault::FaultPlan;
using sim::fault::FaultPoint;
using sim::fault::FaultRule;
using sim::fault::kFaultPointCount;

// ---- FaultPlan / FaultInjector unit tests -----------------------------------

TEST(FaultPlanTest, RuleFiresAtFirstThenEveryUpToLimit) {
  FaultPlan plan;
  plan.add({FaultPoint::kPmlForceFull, /*first=*/2, /*every=*/3, /*limit=*/2});
  FaultInjector inj(plan);
  std::vector<u64> fired_at;
  for (u64 i = 0; i < 12; ++i) {
    if (inj.fire(FaultPoint::kPmlForceFull)) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, (std::vector<u64>{2, 5})) << "limit 2 stops arrival 8";
  EXPECT_EQ(inj.arrivals(FaultPoint::kPmlForceFull), 12u);
  EXPECT_EQ(inj.fired(FaultPoint::kPmlForceFull), 2u);
  EXPECT_EQ(inj.total_fired(), 2u);
}

TEST(FaultPlanTest, OnceRuleFiresExactlyOnce) {
  FaultPlan plan;
  plan.add({FaultPoint::kGpaAllocFail, /*first=*/4, /*every=*/0, /*limit=*/1});
  FaultInjector inj(plan);
  std::vector<u64> fired_at;
  for (u64 i = 0; i < 20; ++i) {
    if (inj.fire(FaultPoint::kGpaAllocFail)) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, std::vector<u64>{4});
}

TEST(FaultPlanTest, ZeroLimitMeansUncapped) {
  FaultPlan plan;
  plan.add({FaultPoint::kMigrationSendFail, /*first=*/0, /*every=*/1, /*limit=*/0});
  FaultInjector inj(plan);
  u64 fired = 0;
  for (u64 i = 0; i < 9; ++i) fired += inj.fire(FaultPoint::kMigrationSendFail) ? 1 : 0;
  EXPECT_EQ(fired, 9u);
}

TEST(FaultPlanTest, ArrivalCountsAreIsolatedPerPoint) {
  FaultPlan plan;
  plan.add({FaultPoint::kPmlForceFull, /*first=*/1, /*every=*/0, /*limit=*/1});
  FaultInjector inj(plan);
  // Arrivals at *other* points must not advance kPmlForceFull's count.
  EXPECT_FALSE(inj.fire(FaultPoint::kEpmlForceFull));
  EXPECT_FALSE(inj.fire(FaultPoint::kEpmlForceFull));
  EXPECT_FALSE(inj.fire(FaultPoint::kPmlForceFull)) << "arrival 0: not yet";
  EXPECT_TRUE(inj.fire(FaultPoint::kPmlForceFull)) << "arrival 1 fires";
  EXPECT_EQ(inj.arrivals(FaultPoint::kEpmlForceFull), 2u);
  EXPECT_EQ(inj.fired(FaultPoint::kEpmlForceFull), 0u);
}

TEST(FaultPlanTest, FromSeedIsDeterministicAndCoversEveryPoint) {
  const FaultPlan a = FaultPlan::from_seed(1234);
  const FaultPlan b = FaultPlan::from_seed(1234);
  ASSERT_EQ(a.rules().size(), b.rules().size());
  for (std::size_t i = 0; i < a.rules().size(); ++i) {
    EXPECT_EQ(a.rules()[i].point, b.rules()[i].point);
    EXPECT_EQ(a.rules()[i].first, b.rules()[i].first);
    EXPECT_EQ(a.rules()[i].every, b.rules()[i].every);
    EXPECT_EQ(a.rules()[i].limit, b.rules()[i].limit);
    EXPECT_EQ(a.rules()[i].arg, b.rules()[i].arg);
  }
  // Whole-surface coverage: at least one rule per injection point.
  std::vector<bool> covered(kFaultPointCount, false);
  for (const FaultRule& r : a.rules()) covered[static_cast<std::size_t>(r.point)] = true;
  for (std::size_t p = 0; p < kFaultPointCount; ++p) {
    EXPECT_TRUE(covered[p]) << "no rule for "
                            << sim::fault::fault_point_name(static_cast<FaultPoint>(p));
  }
  // Different seeds diverge somewhere (sanity that the seed is used).
  const FaultPlan c = FaultPlan::from_seed(1235);
  bool differs = false;
  for (std::size_t i = 0; i < a.rules().size() && i < c.rules().size(); ++i) {
    differs |= a.rules()[i].first != c.rules()[i].first ||
               a.rules()[i].every != c.rules()[i].every;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, IpiGateDropsArgEncountersThenRedelivers) {
  FaultPlan plan;
  plan.add({FaultPoint::kSelfIpiSuppress, /*first=*/0, /*every=*/0, /*limit=*/1,
            /*arg=*/2});
  FaultInjector inj(plan);
  const auto g0 = inj.gate_self_ipi();  // opens the window, drop 1 of 2
  EXPECT_FALSE(g0.deliver);
  EXPECT_TRUE(g0.fired);
  const auto g1 = inj.gate_self_ipi();  // drop 2 of 2
  EXPECT_FALSE(g1.deliver);
  EXPECT_FALSE(g1.fired);
  const auto g2 = inj.gate_self_ipi();  // window dry: the redelivery
  EXPECT_TRUE(g2.deliver);
  const auto g3 = inj.gate_self_ipi();  // back to normal delivery
  EXPECT_TRUE(g3.deliver);
  EXPECT_EQ(inj.ipis_suppressed(), 2u);
  EXPECT_EQ(inj.ipis_redelivered(), 1u);
}

TEST(FaultInjectorTest, IpiGateClampsDropWindowToBound) {
  FaultPlan plan;
  plan.add({FaultPoint::kSelfIpiSuppress, /*first=*/0, /*every=*/0, /*limit=*/1,
            /*arg=*/100000});
  FaultInjector inj(plan);
  u64 drops = 0;
  while (!inj.gate_self_ipi().deliver) {
    ++drops;
    ASSERT_LE(drops, FaultInjector::kMaxIpiDrops + 1) << "window must be bounded";
  }
  EXPECT_EQ(drops, FaultInjector::kMaxIpiDrops);
  EXPECT_EQ(inj.ipis_redelivered(), 1u) << "a writing guest always gets its IPI back";
}

// ---- shared scenario helpers ------------------------------------------------

struct TrackedRun {
  RunResult result;
  VirtDuration final_clock{0};
  EventCounters counters;
  u64 faults_fired = 0;
};

/// One tracked run of `pages` sequential writes under `plan`.
TrackedRun run_tracked_with_plan(Technique tech, const FaultPlan& plan,
                                 u64 pages = 300,
                                 VirtDuration collect_period = msecs(0.1)) {
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(pages * kPageSize);
  auto tracker = make_tracker(tech, k, proc);
  RunOptions ropts;
  ropts.collect_period = collect_period;
  TrackedRun out;
  out.result = run_tracked(
      k, proc,
      [=](guest::Process& p) {
        for (u64 i = 0; i < pages; ++i) p.touch_write(base + i * kPageSize);
      },
      tracker.get(), ropts);
  tracker->shutdown();
  bed.audit();  // full machine audit on top of the per-fault audits
  out.final_clock = k.ctx().clock.now();
  out.counters = k.ctx().counters;
  if (const FaultInjector* inj = bed.fault_injector()) {
    out.faults_fired = inj->total_fired();
  }
  return out;
}

// ---- injected buffer-full faults (PML + EPML) -------------------------------

TEST(FaultInjection, ForcedPmlFullExitsEarlyAndSpmlStaysComplete) {
  FaultPlan plan;
  // Buffer-full at adversarial indices: arrival 0, then every 37 log events.
  plan.add({FaultPoint::kPmlForceFull, /*first=*/0, /*every=*/37, /*limit=*/0});
  const TrackedRun r = run_tracked_with_plan(Technique::kSpml, plan);
  EXPECT_GT(r.faults_fired, 0u);
  EXPECT_EQ(r.counters.get(Event::kFaultInjected), r.faults_fired);
  // Forced fulls mean far more PML-full exits than the 300-page workload
  // could produce naturally (300 writes < one 512-entry buffer).
  EXPECT_GE(r.counters.get(Event::kVmExitPmlFull), r.faults_fired);
  // The injected exits drain partial buffers; no page may be lost to them.
  EXPECT_EQ(r.result.captured_truth, r.result.truth_pages);
  EXPECT_EQ(r.result.dropped, 0u);
}

TEST(FaultInjection, ForcedEpmlFullPostsEarlyIpisAndEpmlStaysComplete) {
  FaultPlan plan;
  plan.add({FaultPoint::kEpmlForceFull, /*first=*/5, /*every=*/41, /*limit=*/0});
  const TrackedRun r = run_tracked_with_plan(Technique::kEpml, plan);
  EXPECT_GT(r.faults_fired, 0u);
  EXPECT_GE(r.counters.get(Event::kSelfIpi), r.faults_fired)
      << "every forced full posts a (non-suppressed) self-IPI";
  EXPECT_EQ(r.counters.get(Event::kVmExitPmlFull), 0u)
      << "forced EPML fulls post IPIs, never PML-full VM exits";
  EXPECT_EQ(r.result.captured_truth, r.result.truth_pages);
  EXPECT_EQ(r.result.dropped, 0u);
}

// ---- self-IPI suppression + bounded-retry redelivery ------------------------

TEST(FaultInjection, SuppressedSelfIpiLosesBoundedEntriesThenRedelivers) {
  FaultPlan plan;
  plan.add({FaultPoint::kSelfIpiSuppress, /*first=*/0, /*every=*/0, /*limit=*/1,
            /*arg=*/3});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 600;
  const Gva base = proc.mmap(pages * kPageSize);
  guest::OohModule& mod = k.load_ooh_module(guest::OohMode::kEpml);
  mod.track(proc);
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());

  // Write 512 fills the buffer; its IPI opens the drop window (drop 1/3).
  // Writes 513 and 514 find the buffer wrapped, their IPIs drop (2/3, 3/3)
  // and the entries are lost. Write 515's encounter is the redelivery: the
  // buffer drains and everything after it logs normally.
  const FaultInjector* inj = bed.fault_injector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->ipis_suppressed(), 3u);
  EXPECT_EQ(inj->ipis_redelivered(), 1u);
  EXPECT_EQ(bed.ctx().counters.get(Event::kSelfIpiSuppressed), 3u);
  EXPECT_EQ(bed.ctx().counters.get(Event::kEpmlEntryLost), 2u)
      << "exactly the two writes inside the dead window are lost, visibly";
  EXPECT_EQ(mod.fetch(proc).size(), pages - 2);
  bed.audit();
  mod.untrack(proc);
}

// ---- graceful degradation (allocation faults) -------------------------------

TEST(FaultInjection, EpmlDegradesToSpmlWhenGuestBufferAllocFails) {
  FaultPlan plan;
  plan.add({FaultPoint::kGpaAllocFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 200;
  const Gva base = proc.mmap(pages * kPageSize);
  auto tracker = make_tracker(Technique::kEpml, k, proc);
  tracker->init();  // guest buffer page allocation fails -> degrade
  EXPECT_TRUE(tracker->degraded());
  EXPECT_EQ(tracker->technique(), Technique::kEpml);
  EXPECT_EQ(tracker->effective_technique(), Technique::kSpml);
  EXPECT_EQ(bed.ctx().counters.get(Event::kTrackerDegraded), 1u);
  EXPECT_EQ(bed.fault_injector()->degradations(), 1u);

  // The degraded session still tracks completely (on the SPML path).
  tracker->begin_interval();
  k.scheduler().enter_process(proc.pid());
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
  k.scheduler().exit_process(proc.pid());
  const std::vector<Gva> dirty = tracker->collect();
  EXPECT_EQ(dirty.size(), pages);
  EXPECT_GT(bed.ctx().counters.get(Event::kReverseMapLookup), 0u)
      << "collection went through SPML's reverse map, not EPML's ring";
  tracker->shutdown();
  bed.audit();
}

TEST(FaultInjection, SpmlDegradesToProcWhenHostPmlBufferAllocFails) {
  FaultPlan plan;
  plan.add({FaultPoint::kFrameAllocFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 150;
  const Gva base = proc.mmap(pages * kPageSize);
  auto tracker = make_tracker(Technique::kSpml, k, proc);
  tracker->init();  // kOohInitPml fails host-side -> degrade to soft-dirty
  EXPECT_TRUE(tracker->degraded());
  EXPECT_EQ(tracker->effective_technique(), Technique::kProc);
  EXPECT_EQ(bed.ctx().counters.get(Event::kTrackerDegraded), 1u);

  tracker->begin_interval();
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
  const std::vector<Gva> dirty = tracker->collect();
  EXPECT_EQ(dirty.size(), pages);
  EXPECT_GT(bed.ctx().counters.get(Event::kClearRefs), 0u)
      << "the fallback is running the /proc soft-dirty protocol";
  tracker->shutdown();
  bed.audit();
}

TEST(FaultInjection, WpDegradesToProcWhenProtectPassFails) {
  FaultPlan plan;
  plan.add({FaultPoint::kWpProtectFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 100;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  auto tracker = make_tracker(Technique::kWp, k, proc);
  tracker->init();
  EXPECT_TRUE(tracker->degraded());
  EXPECT_EQ(tracker->effective_technique(), Technique::kProc);
  EXPECT_EQ(bed.ctx().counters.get(Event::kTrackerDegraded), 1u);
  EXPECT_EQ(bed.ctx().counters.get(Event::kEptWpFault), 0u)
      << "the failed protect pass must not have write-protected anything";

  tracker->begin_interval();
  for (u64 i = 0; i < pages; i += 2) proc.touch_write(base + i * kPageSize);
  const std::vector<Gva> dirty = tracker->collect();
  EXPECT_EQ(dirty.size(), pages / 2);
  tracker->shutdown();
  bed.audit();
}

TEST(FaultInjection, DegradationChainsEpmlToSpmlToProc) {
  // Both allocation points fail: EPML's guest buffer AND the host PML buffer
  // behind SPML. The chain must walk all the way down to /proc and still
  // produce a complete session.
  FaultPlan plan;
  plan.add({FaultPoint::kGpaAllocFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  plan.add({FaultPoint::kFrameAllocFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 120;
  const Gva base = proc.mmap(pages * kPageSize);
  auto tracker = make_tracker(Technique::kEpml, k, proc);
  tracker->init();
  EXPECT_TRUE(tracker->degraded());
  EXPECT_EQ(tracker->effective_technique(), Technique::kProc);
  EXPECT_EQ(bed.ctx().counters.get(Event::kTrackerDegraded), 2u);
  EXPECT_EQ(bed.fault_injector()->degradations(), 2u);

  tracker->begin_interval();
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);
  EXPECT_EQ(tracker->collect().size(), pages);
  tracker->shutdown();
  bed.audit();
}

TEST(FaultInjection, InitPhaseCoversFailedAttemptsOfADegradedTracker) {
  // phases().init must equal the virtual time init() took. A degraded
  // tracker reports its fallback's phases, so the failed backends' attempts
  // (for EPML: the track ioctl, its world switches, the init hypercall and
  // the rollback) must be counted there too.
  const auto init_account = [](const FaultPlan& plan, Technique effective) {
    TestBedOptions o;
    o.fault_plan = plan;
    TestBed bed(o);
    guest::GuestKernel& k = bed.kernel();
    guest::Process& proc = k.create_process();
    (void)proc.mmap(64 * kPageSize);  // no writes: they would take the faults
    auto tracker = make_tracker(Technique::kEpml, k, proc);
    const VirtDuration before = bed.ctx().clock.now();
    tracker->init();
    const VirtDuration took = bed.ctx().clock.now() - before;
    EXPECT_EQ(tracker->effective_technique(), effective);
    EXPECT_GT(took.count(), 0.0);
    EXPECT_NEAR(tracker->phases().init.count(), took.count(), 1e-6)
        << "init() advanced the clock by " << took.count() << " us";
    tracker->shutdown();
    bed.audit();
  };
  init_account(FaultPlan{}, Technique::kEpml);

  FaultPlan chain;  // as in DegradationChainsEpmlToSpmlToProc
  chain.add({FaultPoint::kGpaAllocFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  chain.add({FaultPoint::kFrameAllocFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  init_account(chain, Technique::kProc);
}

// ---- migration transfer faults ----------------------------------------------

TEST(FaultInjection, MigrationSendRetriesWithBackoffThenSucceeds) {
  FaultPlan plan;
  plan.add({FaultPoint::kMigrationSendFail, /*first=*/0, /*every=*/0, /*limit=*/1});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(40 * kPageSize);
  for (u64 i = 0; i < 40; ++i) proc.touch_write(base + i * kPageSize);

  hv::MigrationEngine engine(bed.hypervisor());
  hv::MigrationOptions mopts;
  const auto before = bed.ctx().clock.now();
  const hv::MigrationReport rep = engine.migrate(bed.vm(), [] {}, mopts);
  EXPECT_TRUE(rep.converged);
  EXPECT_FALSE(rep.aborted);
  EXPECT_EQ(rep.send_retries, 1u);
  EXPECT_EQ(bed.ctx().counters.get(Event::kMigrationSendRetry), 1u);
  EXPECT_GE((bed.ctx().clock.now() - before).count(),
            usecs(mopts.retry_backoff_us).count())
      << "the retry charged its backoff";
  EXPECT_GE(rep.pages_sent, rep.initial_pages) << "no page lost to the retry";
  bed.audit();
}

TEST(FaultInjection, MigrationAbortsWhenTransportStaysDead) {
  FaultPlan plan;
  plan.add({FaultPoint::kMigrationSendFail, /*first=*/0, /*every=*/1, /*limit=*/0});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(16 * kPageSize);
  for (u64 i = 0; i < 16; ++i) proc.touch_write(base + i * kPageSize);

  hv::MigrationEngine engine(bed.hypervisor());
  const hv::MigrationReport rep = engine.migrate(bed.vm(), [] {});
  EXPECT_TRUE(rep.aborted);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.pages_sent, 0u) << "every attempt failed: nothing transferred";
  EXPECT_EQ(rep.send_retries, 3u) << "default retry budget is 3 attempts";
  EXPECT_EQ(bed.ctx().counters.get(Event::kMigrationAborted), 1u);
  bed.audit();
}

TEST(FaultInjection, MigrationCarriesFailedRoundIntoNextInsteadOfDropping) {
  // The initial copy succeeds (arrival 0 clean); the first pre-copy round's
  // transfer fails through its whole retry budget (arrivals 1..3), so its
  // dirty set must be carried into the next round, not dropped.
  FaultPlan plan;
  plan.add({FaultPoint::kMigrationSendFail, /*first=*/1, /*every=*/1, /*limit=*/3});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 50;
  const Gva base = proc.mmap(pages * kPageSize);
  for (u64 i = 0; i < pages; ++i) proc.touch_write(base + i * kPageSize);

  hv::MigrationEngine engine(bed.hypervisor());
  hv::MigrationOptions mopts;
  mopts.stop_copy_threshold_pages = 0;
  int round = 0;
  const hv::MigrationReport rep = engine.migrate(
      bed.vm(),
      [&] {
        if (round++ == 0) {
          for (int i = 0; i < 10; ++i) proc.touch_write(base + i * kPageSize);
        }
      },
      mopts);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.send_retries, 3u);
  EXPECT_EQ(rep.pages_sent, rep.initial_pages + 10)
      << "the failed round's 10 pages arrive via the carry, exactly once";
  bed.audit();
}

TEST(FaultInjection, MigrationSurvivesRetryBudgetBeyondShiftWidth) {
  // Regression: the backoff charge computed retry_backoff_us * (u64{1} <<
  // attempt) with an unclamped exponent — undefined behaviour the moment
  // send_retry_limit exceeds 63. The exponent now clamps at 20, so a huge
  // retry budget must abort cleanly after charging a bounded backoff.
  FaultPlan plan;
  plan.add({FaultPoint::kMigrationSendFail, /*first=*/0, /*every=*/1, /*limit=*/0});
  TestBedOptions o;
  o.fault_plan = plan;
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const Gva base = proc.mmap(8 * kPageSize);
  for (u64 i = 0; i < 8; ++i) proc.touch_write(base + i * kPageSize);

  hv::MigrationEngine engine(bed.hypervisor());
  hv::MigrationOptions mopts;
  mopts.send_retry_limit = 80;  // > 63: would have shifted past the u64 width
  mopts.retry_backoff_us = 0.01;
  const auto before = bed.ctx().clock.now();
  const hv::MigrationReport rep = engine.migrate(bed.vm(), [] {}, mopts);
  EXPECT_TRUE(rep.aborted);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.send_retries, 80u);
  // Attempts 0..19 back off exponentially, 20..79 at the 2^20 cap:
  // sum = (2^20 - 1) + 60 * 2^20 backoff units.
  const double cap = static_cast<double>(u64{1} << 20);
  const double expected_backoff_us = mopts.retry_backoff_us * ((cap - 1.0) + 60.0 * cap);
  const double waited_us = (bed.ctx().clock.now() - before).count();
  EXPECT_GE(waited_us, expected_backoff_us);
  EXPECT_LE(waited_us, expected_backoff_us * 1.05 + 1000.0)
      << "backoff must stay bounded by the clamped exponent";
  bed.audit();
}

// ---- determinism: same-seed replay + faults-off transparency ----------------

TEST(FaultReplay, SameSeedReplaysBitIdentically) {
  const FaultPlan plan = FaultPlan::from_seed(42);
  const TrackedRun a = run_tracked_with_plan(Technique::kEpml, plan, 2000, msecs(2));
  const TrackedRun b = run_tracked_with_plan(Technique::kEpml, plan, 2000, msecs(2));
  EXPECT_GT(a.faults_fired, 0u) << "the seeded plan must actually exercise faults";
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  // Bit-identical virtual time: compare the double's bits, not its value.
  u64 abits = 0;
  u64 bbits = 0;
  const double aclk = a.final_clock.count();
  const double bclk = b.final_clock.count();
  std::memcpy(&abits, &aclk, sizeof(abits));
  std::memcpy(&bbits, &bclk, sizeof(bbits));
  EXPECT_EQ(abits, bbits);
  EXPECT_TRUE(a.counters == b.counters) << "every event count must replay exactly";
}

TEST(FaultReplay, DifferentSeedsProduceDifferentSchedules) {
  const TrackedRun a =
      run_tracked_with_plan(Technique::kEpml, FaultPlan::from_seed(7), 2000, msecs(2));
  const TrackedRun b =
      run_tracked_with_plan(Technique::kEpml, FaultPlan::from_seed(8), 2000, msecs(2));
  // Either the fired counts differ or some counter does; identical runs for
  // different seeds would mean the seed never reaches the schedule.
  EXPECT_TRUE(a.faults_fired != b.faults_fired || !(a.counters == b.counters));
}

TEST(FaultReplay, WiredButNeverFiringPlanIsBitIdenticalToNoInjector) {
  // Stronger than "empty plan == no injector" (the TestBed skips wiring for
  // an empty plan): a *wired* injector whose rules never fire must leave the
  // run bit-identical to a bed without the fault subsystem at all.
  FaultPlan inert;
  inert.add({FaultPoint::kPmlForceFull, /*first=*/u64{1} << 60, /*every=*/0,
             /*limit=*/1});
  const TrackedRun with = run_tracked_with_plan(Technique::kSpml, inert);
  const TrackedRun without = run_tracked_with_plan(Technique::kSpml, FaultPlan{});
  EXPECT_EQ(with.faults_fired, 0u);
  u64 wbits = 0;
  u64 obits = 0;
  const double wclk = with.final_clock.count();
  const double oclk = without.final_clock.count();
  std::memcpy(&wbits, &wclk, sizeof(wbits));
  std::memcpy(&obits, &oclk, sizeof(obits));
  EXPECT_EQ(wbits, obits);
  EXPECT_TRUE(with.counters == without.counters);
}

// ---- seeded whole-surface sweep (FAULT-2: audits clean after every fault) ---

/// A storm scenario designed to reach every injection point class that a
/// tracked run can reach: EPML (buffer fulls + IPI gate + guest allocs),
/// then migration on the same bed. Guest OOM injected on the demand-paging
/// path stops the workload early (run_tracked's graceful path) and an
/// injected host OOM at migration's logging setup aborts the migration;
/// either way the bed must stay alive, coherent, and replayable.
EventCounters seeded_storm(u64 seed, u64* fired_out) {
  TestBedOptions o;
  o.fault_plan = FaultPlan::from_seed(seed);
  TestBed bed(o);
  guest::GuestKernel& k = bed.kernel();
  guest::Process& proc = k.create_process();
  const u64 pages = 1600;  // > 3 buffer fills in one interval
  const Gva base = proc.mmap(pages * kPageSize);
  auto tracker = make_tracker(Technique::kEpml, k, proc);
  RunOptions ropts;
  ropts.collect_period = msecs(1);
  (void)run_tracked(
      k, proc,
      [&](guest::Process& p) {
        for (u64 i = 0; i < pages; ++i) p.touch_write(base + i * kPageSize);
      },
      tracker.get(), ropts);
  tracker->shutdown();
  hv::MigrationEngine engine(bed.hypervisor());
  (void)engine.migrate(bed.vm(), [] {});
  bed.audit();  // the whole machine must still be coherent
  if (fired_out != nullptr) *fired_out = bed.fault_injector()->total_fired();
  return bed.ctx().counters;
}

TEST(FaultSweep, SeededStormsFireAuditCleanAndReplay) {
  for (const u64 seed : {u64{1}, u64{7}, u64{42}}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    u64 fired_a = 0;
    u64 fired_b = 0;
    const EventCounters a = seeded_storm(seed, &fired_a);
    const EventCounters b = seeded_storm(seed, &fired_b);
    EXPECT_GT(fired_a, 0u);
    EXPECT_EQ(fired_a, fired_b);
    EXPECT_TRUE(a == b) << "seed " << seed << " did not replay bit-identically";
  }
}

}  // namespace
}  // namespace ooh::lib
