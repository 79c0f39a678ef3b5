// Workload `fleet`: fig. 10's two sections.
//   1. kTenants tenant VMs, each running Boehm over Phoenix-histogram
//      (Large / kScale), on TestBed::run_tenants with up to nproc workers,
//      once per technique. Set-up is the bed plus a first run_tenants that
//      creates each tenant's process, heap and workload and prepares the
//      tracker; the timed section is the run_tenants that runs them,
//      counted as the tenants' summed busy seconds.
//   2. One SMP guest: per vCPU a pinned writer process, a producer thread
//      writing it and a drainer thread popping that vCPU's dirty ring
//      through Hypervisor::drain_dirty_ring, kSmpEpochs times, each epoch
//      ending in harvest_hyp_dirty.
// The registry application keeps its built-in input, so this workload does
// not depend on the seed.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "hypervisor/hypervisor.hpp"
#include "trackers/boehmgc/gc.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {
namespace {

using ooh::Gpa;
using ooh::Gva;
using ooh::kPageSize;
using ooh::lib::Technique;

constexpr unsigned kTenants = 4;
constexpr u64 kScale = 16;
constexpr Technique kTechs[] = {Technique::kSpml, Technique::kEpml, Technique::kWp,
                                Technique::kSeg};
/// SMP section: fits the 1536-entry TLB, as the fig. 10 vCPU axis does.
constexpr u64 kSmpPages = 1024;
constexpr int kSmpPasses = 4;
/// Harvests, each re-arming logging so the next epoch logs every page again.
constexpr int kSmpEpochs = 32;

struct Tenant {
  ooh::guest::Process* proc = nullptr;
  std::unique_ptr<ooh::wl::Workload> workload;
  std::unique_ptr<ooh::gc::GcHeap> heap;
  double busy_s = 0.0;
};

void boehm_cell(Cell& cell, Technique tech, unsigned workers) {
  const std::string tname = slug(tech);
  cell.set_name("boehm/" + tname);
  Tracer& tr = cell.tracer();
  std::unique_ptr<ooh::lib::TestBed> bed;
  std::vector<Tenant> tenants(kTenants);

  cell.setup([&] {
    {
      auto s = tr.span("ooh.testbed.build");
      ooh::lib::TestBedOptions opts;
      opts.tenant_vms = kTenants;
      bed = std::make_unique<ooh::lib::TestBed>(opts);
    }
    const std::int64_t parent = tr.current();
    bed->run_tenants(
        [&](unsigned i) {
          Tenant& t = tenants[i];
          ooh::guest::GuestKernel& k = bed->kernel(i);
          t.proc = &k.create_process();
          t.workload =
              ooh::wl::make_workload("histogram", ooh::wl::ConfigSize::kLarge, kScale);
          // fig. 10's heap sizing: 2x the footprint, threshold footprint/8.
          const u64 foot = t.workload->footprint_bytes();
          t.heap = std::make_unique<ooh::gc::GcHeap>(
              k, *t.proc, std::max<u64>(foot * 2, 16 * ooh::kMiB),
              std::clamp<u64>(foot / 8, 256 * 1024, 4 * ooh::kMiB));
          t.heap->set_technique(tech);
          {
            auto s = tr.span_under("ooh.tracker.init." + tname, parent);
            t.heap->prepare_tracker();
          }
          t.workload->attach_gc(t.heap.get());
          auto s = tr.span_under("workloads.setup", parent);
          t.workload->setup(*t.proc);
        },
        workers);
  });

  const ooh::EventCounters before = bed_counters(*bed);
  double run_wall = 0.0;
  // Timed as the tenants' summed busy seconds, the worker-seconds the other
  // workloads' concurrent cells count; the run's own elapsed time goes to
  // ooh.run_tenants_s and ooh.parallel_efficiency.
  cell.timed_workers([&] {
    auto span = tr.span("ooh.run_tenants");
    const std::int64_t parent = span.id();
    const double t0 = now_s();
    bed->run_tenants(
        [&](unsigned i) {
          auto s = tr.span_under("tenant", parent);
          const double b0 = now_s();
          Tenant& t = tenants[i];
          ooh::guest::GuestKernel& k = bed->kernel(i);
          k.scheduler().enter_process(t.proc->pid());
          t.workload->run(*t.proc);
          (void)t.heap->collect();  // Boehm's final full cycle
          k.scheduler().exit_process(t.proc->pid());
          t.busy_s = now_s() - b0;
        },
        workers);
    run_wall = now_s() - t0;
    double busy = 0.0;
    for (const Tenant& t : tenants) busy += t.busy_s;
    return busy;
  });
  cell.add_events(bed_counters(*bed).diff(before));

  // Output check (fig. 10's flatness claim): tenants doing identical work
  // report identical GC virtual time and cycle counts.
  double busy = 0.0;
  for (unsigned i = 0; i < kTenants; ++i) {
    const ooh::gc::GcStats& a = tenants[0].heap->stats();
    const ooh::gc::GcStats& b = tenants[i].heap->stats();
    cell.check(a.total_gc_time == b.total_gc_time && a.cycle_count() == b.cycle_count(),
               "tenant " + std::to_string(i) + " GC time differs from tenant 0");
    cell.check(b.cycle_count() > 0, "tenant " + std::to_string(i) + " ran no GC cycle");
    busy += tenants[i].busy_s;
  }
  cell.add("fleet.busy_s", busy);
  cell.add("fleet.capacity_s", run_wall * std::min(workers, kTenants));
  for (Tenant& t : tenants) t.heap.reset();
  cell.set_digest(bed_digest(*bed));
}

void smp_drain_cell(Cell& cell, unsigned vcpus) {
  cell.set_name("smp-drain/" + std::to_string(vcpus));
  Tracer& tr = cell.tracer();
  std::unique_ptr<ooh::lib::TestBed> bed;
  std::vector<ooh::guest::Process*> procs(vcpus);
  std::vector<Gva> bases(vcpus);
  const u64 bytes = kSmpPages * kPageSize;

  cell.setup([&] {
    {
      auto s = tr.span("ooh.testbed.build");
      ooh::lib::TestBedOptions opts = bed_options(u64{vcpus} * bytes);
      opts.vcpus_per_vm = vcpus;
      bed = std::make_unique<ooh::lib::TestBed>(opts);
    }
    for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
      procs[cpu] = &bed->kernel().create_process();  // round-robin: proc i on vCPU i
      bases[cpu] = procs[cpu]->mmap(bytes);
      procs[cpu]->touch_range_write(bases[cpu], bytes);
    }
    bed->hypervisor().enable_pml_for_hyp(bed->vm());
  });

  ooh::hv::Hypervisor& hv = bed->hypervisor();
  ooh::hv::Vm& vm = bed->vm();
  const bool timing = tr.enabled();
  std::vector<double> drain_s(vcpus, 0.0);
  std::atomic<u64> popped{0};
  std::vector<std::vector<Gpa>> harvests(kSmpEpochs);
  const ooh::EventCounters before = bed_counters(*bed);

  cell.timed([&] {
    for (int epoch = 0; epoch < kSmpEpochs; ++epoch) {
      std::atomic<bool> done{false};
      std::vector<std::thread> drainers;
      for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
        drainers.emplace_back([&, cpu] {
          std::vector<Gpa> local;
          const auto drain = [&] {
            const double t0 = timing ? now_s() : 0.0;
            popped.fetch_add(hv.drain_dirty_ring(vm, cpu, local), std::memory_order_relaxed);
            if (timing) drain_s[cpu] += now_s() - t0;
          };
          while (!done.load(std::memory_order_acquire)) {
            drain();
            std::this_thread::yield();
          }
          drain();
        });
      }
      std::vector<std::thread> producers;
      for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
        producers.emplace_back([&, cpu] {
          for (int pass = 0; pass < kSmpPasses; ++pass) {
            procs[cpu]->touch_range_write(bases[cpu], bytes);
          }
        });
      }
      for (std::thread& t : producers) t.join();
      done.store(true, std::memory_order_release);
      for (std::thread& t : drainers) t.join();
      // Quiescent epoch boundary: take the union and re-arm logging.
      auto s = tr.span("hypervisor.harvest");
      harvests[epoch] = hv.harvest_hyp_dirty(vm);
    }
  });
  cell.add_events(bed_counters(*bed).diff(before));
  hv.disable_pml_for_hyp(vm);

  double drain_total = 0.0;
  for (const double d : drain_s) drain_total += d;
  cell.add("hypervisor.ring_drain_s", drain_total);
  cell.add("hypervisor.ring_entries_drained",
           static_cast<double>(popped.load(std::memory_order_relaxed)));
  // Output check: every epoch's harvest names each page the producers
  // wrote, once.
  for (int epoch = 0; epoch < kSmpEpochs; ++epoch) {
    std::vector<Gpa>& h = harvests[epoch];
    std::sort(h.begin(), h.end());
    const bool unique = std::adjacent_find(h.begin(), h.end()) == h.end();
    cell.check(unique && h.size() == u64{vcpus} * kSmpPages,
               "epoch " + std::to_string(epoch) + " harvested " + std::to_string(h.size()) +
                   " pages, producers wrote " + std::to_string(u64{vcpus} * kSmpPages));
  }
  // How many entries spill past a full ring depends on drainer timing.
  cell.set_digest(bed_digest(*bed, {ooh::Event::kDirtyRingFull}));
}

}  // namespace

FleetThreads fleet_threads() {
  FleetThreads t;
  t.tenant_workers = std::min(kTenants, nproc());
  t.smp_vcpus = std::max(1u, std::min(2u, nproc() / 2));
  return t;
}

const Workload kFleetWorkload = {
    "fleet", std::size(kTechs) + 1, false,
    [](std::size_t i, Cell& cell, const Options& /*opt*/) {
      const FleetThreads threads = fleet_threads();
      if (i < std::size(kTechs)) {
        boehm_cell(cell, kTechs[i], threads.tenant_workers);
      } else {
        smp_drain_cell(cell, threads.smp_vcpus);
      }
    }};

}  // namespace perfbench
