// Guest kernel tests: processes and demand paging, the /proc soft-dirty
// interface, userfaultfd, and the scheduler's hooks/quantum/service windows.
#include <gtest/gtest.h>

#include "guest/kernel.hpp"
#include "guest/ooh_module.hpp"
#include "guest/procfs.hpp"
#include "guest/uffd.hpp"
#include "hypervisor/hypervisor.hpp"

namespace ooh::guest {
namespace {

class GuestTest : public ::testing::Test {
 protected:
  GuestTest()
      : machine_(256 * kMiB, CostModel::unit()),
        hv_(machine_),
        vm_(hv_.create_vm(128 * kMiB)),
        kernel_(hv_, vm_) {}

  sim::Machine machine_;
  hv::Hypervisor hv_;
  hv::Vm& vm_;
  GuestKernel kernel_;
};

// ---- process & demand paging -------------------------------------------------

TEST_F(GuestTest, MmapAssignsDisjointVmas) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(3 * kPageSize);
  const Gva b = p.mmap(10);
  EXPECT_TRUE(is_page_aligned(a));
  EXPECT_GE(b, a + 3 * kPageSize);
  EXPECT_EQ(p.mapped_bytes(), 4 * kPageSize);
  EXPECT_NE(p.vma_of(a), nullptr);
  EXPECT_NE(p.vma_of(b), nullptr);
  EXPECT_EQ(p.vma_of(a + 100 * kPageSize), nullptr);
  EXPECT_THROW((void)p.mmap(0), std::invalid_argument);
}

TEST_F(GuestTest, AccessRejectsAProcessOfAnotherKernel) {
  // The ownership check guards the inline hit arm as well as the slow path:
  // a local process with the same pid and GVA makes (pid, page) resident in
  // this kernel's TLB, and the foreign process must still be refused.
  Process& local = kernel_.create_process();
  const Gva local_base = local.mmap(kPageSize);
  local.write_u64(local_base, 1);
  hv::Vm& other_vm = hv_.create_vm(16 * kMiB);
  GuestKernel other(hv_, other_vm);
  Process& foreign = other.create_process();
  const Gva base = foreign.mmap(kPageSize);
  ASSERT_EQ(foreign.pid(), local.pid());
  ASSERT_EQ(base, local_base);
  foreign.write_u64(base, 1);
  EXPECT_THROW((void)kernel_.access(foreign, base, /*is_write=*/true),
               std::logic_error);
  EXPECT_THROW((void)kernel_.access(foreign, base, /*is_write=*/false),
               std::logic_error);
  EXPECT_THROW(kernel_.touch_run(foreign, base, 8, 4, /*is_write=*/true),
               std::logic_error);
  EXPECT_NO_THROW((void)other.access(foreign, base, /*is_write=*/true));
}

TEST_F(GuestTest, DemandPagingMapsOnFirstTouch) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(4 * kPageSize);
  EXPECT_EQ(kernel_.page_table(p).present_pages(), 0u);
  p.touch_write(a);
  p.touch_write(a + kPageSize);
  EXPECT_EQ(kernel_.page_table(p).present_pages(), 2u);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultDemand), 2u);
  p.touch_write(a);  // no further fault
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultDemand), 2u);
}

TEST_F(GuestTest, FreshPagesAreSoftDirty) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(kPageSize);
  p.touch_write(a);
  EXPECT_TRUE(kernel_.page_table(p).pte(a)->soft_dirty);
}

TEST_F(GuestTest, SegfaultOutsideVma) {
  Process& p = kernel_.create_process();
  EXPECT_THROW(p.touch_write(0xdead0000), GuestSegfault);
}

TEST_F(GuestTest, DataBackedRoundTrip) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize, /*data_backed=*/true);
  p.write_u64(a + 8, 0x1122334455667788ULL);
  EXPECT_EQ(p.read_u64(a + 8), 0x1122334455667788ULL);
  EXPECT_EQ(p.read_u64(a + 16), 0u);

  std::vector<u8> buf(5000, 0xAB);
  p.write_bytes(a, buf);  // spans both pages
  std::vector<u8> out(5000, 0);
  p.read_bytes(a, out);
  EXPECT_EQ(out, buf);
}

TEST_F(GuestTest, TruthRecordsWrittenPages) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(8 * kPageSize);
  p.touch_write(a);
  p.touch_write(a + 3 * kPageSize);
  p.touch_read(a + 5 * kPageSize);
  EXPECT_EQ(p.truth_dirty().size(), 2u);
  EXPECT_TRUE(p.truth_dirty().contains(a));
  EXPECT_TRUE(p.truth_dirty().contains(a + 3 * kPageSize));
  p.truth_reset();
  EXPECT_TRUE(p.truth_dirty().empty());
}

TEST_F(GuestTest, ProcessesHaveIndependentPageTables) {
  Process& p1 = kernel_.create_process();
  Process& p2 = kernel_.create_process();
  EXPECT_NE(p1.pid(), p2.pid());
  const Gva a1 = p1.mmap(kPageSize);
  const Gva a2 = p2.mmap(kPageSize);
  EXPECT_EQ(a1, a2) << "address spaces are private, so bases coincide";
  p1.touch_write(a1);
  EXPECT_EQ(kernel_.page_table(p1).present_pages(), 1u);
  EXPECT_EQ(kernel_.page_table(p2).present_pages(), 0u);
}

// ---- procfs --------------------------------------------------------------------

TEST_F(GuestTest, ClearRefsThenWriteSetsSoftDirtyViaFault) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(4 * kPageSize);
  for (int i = 0; i < 4; ++i) p.touch_write(a + i * kPageSize);

  kernel_.procfs().clear_refs(p);
  EXPECT_FALSE(kernel_.page_table(p).pte(a)->soft_dirty);
  EXPECT_FALSE(kernel_.page_table(p).pte(a)->writable) << "write-protected";
  EXPECT_TRUE(kernel_.procfs().pagemap_dirty(p).empty());

  p.touch_write(a + kPageSize);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultSoftDirty), 1u);
  const std::vector<Gva> dirty = kernel_.procfs().pagemap_dirty(p);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], a + kPageSize);
  // The faulted page is writable again; a second write does not re-fault.
  p.touch_write(a + kPageSize);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultSoftDirty), 1u);
}

TEST_F(GuestTest, ReadsDoNotSetSoftDirty) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(kPageSize);
  p.touch_write(a);
  kernel_.procfs().clear_refs(p);
  p.touch_read(a);
  EXPECT_TRUE(kernel_.procfs().pagemap_dirty(p).empty());
}

TEST_F(GuestTest, PagemapEntriesExposeTranslations) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize);
  p.touch_write(a);
  p.touch_write(a + kPageSize);
  const auto entries = kernel_.procfs().pagemap_entries(p);
  EXPECT_EQ(entries.size(), 2u);
  for (const auto& [gva, gpa] : entries) {
    EXPECT_EQ(kernel_.page_table(p).pte(gva)->gpa_page, gpa);
  }
}

// ---- userfaultfd ----------------------------------------------------------------

TEST_F(GuestTest, UffdWpFaultsOncePerProtectRound) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(4 * kPageSize);
  for (int i = 0; i < 4; ++i) p.touch_write(a + i * kPageSize);

  std::vector<Gva> seen;
  kernel_.uffd().register_wp(p, [&](Gva page) { seen.push_back(page); });
  p.touch_write(a);
  p.touch_write(a);  // unprotected now: no second event
  p.touch_write(a + 2 * kPageSize);
  EXPECT_EQ(seen, (std::vector<Gva>{a, a + 2 * kPageSize}));
  EXPECT_EQ(vm_.ctx().counters.get(Event::kPageFaultUffd), 2u);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kUffdWriteUnprotect), 2u);

  kernel_.uffd().rearm_wp(p);
  p.touch_write(a);
  EXPECT_EQ(seen.size(), 3u) << "re-protecting re-arms the fault";
}

TEST_F(GuestTest, UffdCatchesFreshDemandPages) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize);
  std::vector<Gva> seen;
  kernel_.uffd().register_wp(p, [&](Gva page) { seen.push_back(page); });
  p.touch_write(a);  // miss -> mapped wp -> wp fault
  EXPECT_EQ(seen, std::vector<Gva>{a});
}

TEST_F(GuestTest, UffdUnregisterStopsEvents) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(kPageSize);
  p.touch_write(a);
  int events = 0;
  kernel_.uffd().register_wp(p, [&](Gva) { ++events; });
  kernel_.uffd().unregister(p);
  p.touch_write(a);
  EXPECT_EQ(events, 0);
}

TEST_F(GuestTest, UffdMissingModeReportsFirstTouch) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(2 * kPageSize);
  std::vector<Gva> seen;
  kernel_.uffd().register_missing(p, [&](Gva page) { seen.push_back(page); });
  p.touch_write(a + kPageSize);
  p.touch_write(a + kPageSize);
  EXPECT_EQ(seen, std::vector<Gva>{a + kPageSize});
}

// ---- scheduler ------------------------------------------------------------------

struct RecordingHook final : SchedHook {
  void on_schedule_in(u32 pid) override { ins.push_back(pid); }
  void on_schedule_out(u32 pid) override { outs.push_back(pid); }
  std::vector<u32> ins, outs;
};

TEST_F(GuestTest, QuantumTickFiresHooksAndCounts) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(64 * kPageSize);
  RecordingHook hook;
  Scheduler& sched = kernel_.scheduler();
  sched.add_hook(&hook);
  sched.set_quantum(usecs(50));

  sched.enter_process(p.pid());
  for (int i = 0; i < 64; ++i) p.touch_write(a + i * kPageSize);  // >50us at unit costs
  sched.exit_process(p.pid());

  EXPECT_GT(sched.quantum_switches(), 0u);
  EXPECT_GT(vm_.ctx().counters.get(Event::kSchedQuantum), 0u);
  // enter + each tick fires in; each tick + exit fires out.
  EXPECT_EQ(hook.ins.size(), 1 + sched.quantum_switches());
  EXPECT_EQ(hook.outs.size(), sched.quantum_switches() + 1);
  sched.remove_hook(&hook);
}

TEST_F(GuestTest, PeriodicServicePreemptsAndRuns) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(256 * kPageSize);
  Scheduler& sched = kernel_.scheduler();
  int services = 0;
  sched.set_periodic(usecs(100), [&] { ++services; });
  sched.enter_process(p.pid());
  for (int i = 0; i < 256; ++i) p.touch_write(a + i * kPageSize);
  sched.exit_process(p.pid());
  sched.clear_periodic();
  EXPECT_GT(services, 0);
}

TEST_F(GuestTest, ServiceWindowsDoNotRecurse) {
  Process& p = kernel_.create_process();
  const Gva a = p.mmap(8 * kPageSize);
  p.touch_write(a);
  Scheduler& sched = kernel_.scheduler();
  int depth = 0, max_depth = 0;
  sched.set_periodic(usecs(1), [&] {
    ++depth;
    max_depth = std::max(max_depth, depth);
    // Service code touching guest memory must not re-trigger service.
    p.touch_write(a + 4 * kPageSize);
    --depth;
  });
  sched.enter_process(p.pid());
  for (int i = 0; i < 8; ++i) p.touch_write(a + i * kPageSize);
  sched.exit_process(p.pid());
  sched.clear_periodic();
  EXPECT_EQ(max_depth, 1);
}

TEST_F(GuestTest, RunServiceChargesContextSwitches) {
  Process& p = kernel_.create_process();
  const u64 before = vm_.ctx().counters.get(Event::kContextSwitch);
  bool ran = false;
  kernel_.scheduler().run_service(p.pid(), [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(vm_.ctx().counters.get(Event::kContextSwitch), before + 2);
}

}  // namespace
}  // namespace ooh::guest
