#include "model/formulas.hpp"

#include <cmath>
#include <stdexcept>

namespace ooh::model {

Estimate estimate(lib::Technique t, const ModelParams& p, const CostModel& cost) {
  Estimate e;
  const double mem = static_cast<double>(p.mem_bytes);
  const double intervals = static_cast<double>(p.intervals);
  const double dirty = static_cast<double>(p.dirty_pages);
  const double faults = static_cast<double>(p.faults);
  const double n = static_cast<double>(p.n_ctx_switches);
  (void)mem;

  switch (t) {
    case lib::Technique::kProc:
      // E(C_/proc) = E(clear_refs) + E(userspace page-table walk), per interval.
      e.technique_us =
          intervals * (cost.clear_refs_us(p.mem_bytes) + cost.pagemap_scan_us(p.mem_bytes) +
                       cost.tlb_flush_us + 4 * cost.ctx_switch_us);
      // I(C_/proc, C_tked) = kernel-space #PF handling + context switches.
      e.impact_us =
          faults * (cost.pfh_kernel_per_fault_us(p.mem_bytes) + 2 * cost.ctx_switch_us);
      break;

    case lib::Technique::kUfd:
      // E(C_UFD) = write-protect/register ioctls + the full fault service
      // (the paper's Formula 4 lists PFH_user under I; in our shared-clock
      // attribution the whole fault lands in the Tracker's monitor bucket,
      // so the model mirrors that and sets I = 0 to avoid double counting).
      e.technique_us = intervals * (cost.ufd_write_protect_us(p.mem_bytes) +
                                    cost.tlb_flush_us + 2 * cost.ctx_switch_us) +
                       faults * (cost.pfh_user_per_fault_us(p.mem_bytes) +
                                 cost.pfh_kernel_per_fault_us(p.mem_bytes) +
                                 2 * cost.ctx_switch_us);
      e.impact_us = 0.0;
      break;

    case lib::Technique::kSpml:
      // E(C_SPML) = ring-buffer copy + reverse mapping (+ the pagemap scan
      // that builds the GPA->GVA index) + fetch ioctls + interval reset.
      // Reverse-mapped addresses are cached (§VI-E footnote 2): dirty_pages
      // here counts only the *uncached* lookups (kReverseMapLookup).
      e.technique_us = dirty * cost.reverse_map_per_page_us(p.mem_bytes) +
                       static_cast<double>(p.rb_entries) *
                           (cost.rb_copy_per_entry_us(p.mem_bytes) +
                            cost.dbit_clear_ns * 1e-3) +
                       static_cast<double>(p.rmap_scans) *
                           cost.pagemap_scan_us(p.mem_bytes) +
                       intervals * (cost.hc_enable_logging_us + cost.tlb_flush_us +
                                    2 * cost.ctx_switch_us);
      // I(C_SPML, C_tked) = PML-full VM-exits + N x enable/disable hypercalls.
      e.impact_us = static_cast<double>(p.pml_full_exits) *
                        (cost.vmexit_us +
                         kPmlBufferEntries * cost.drain_entry_ns * 1e-3) +
                    n * (cost.hc_enable_logging_us +
                         cost.spml_disable_logging_us(p.mem_bytes) +
                         static_cast<double>(p.rb_entries) /
                             std::max(1.0, n) * cost.drain_entry_ns * 1e-3);
      break;

    case lib::Technique::kEpml:
      // E(C_EPML) = ring-buffer copy into userspace + per-page dirty-flag
      // re-arm + fetch ioctls; no reverse mapping (§IV-D).
      e.technique_us = static_cast<double>(p.rb_entries) *
                           (cost.rb_copy_per_entry_us(p.mem_bytes) +
                            cost.dbit_clear_ns * 1e-3) +
                       intervals * 2 * cost.ctx_switch_us;
      // I(C_EPML, C_tked) = N x vmread/vmwrite + self-IPI drains.
      e.impact_us =
          n * 3 * cost.vmwrite_us +
          static_cast<double>(p.self_ipis) *
              (cost.self_ipi_us + cost.irq_dispatch_us + cost.vmread_us + cost.vmwrite_us +
               kPmlBufferEntries * cost.drain_entry_ns * 1e-3);
      break;

    case lib::Technique::kWp:
      // E(C_wp) = per-interval re-protect pass (EPT entry updates + TLB
      // shootdown + the collect ioctl's world switches).
      e.technique_us = intervals * (cost.tlb_flush_us + 2 * cost.ctx_switch_us) +
                       dirty * cost.dbit_clear_ns * 1e-3;
      // I(C_wp, C_tked) = one EPT-violation VM-exit per first write.
      e.impact_us = faults * (cost.ept_violation_us + cost.vmexit_us);
      break;

    case lib::Technique::kOracle:
      break;  // E(C_oracle) = 0 by definition (§VI-B).

    case lib::Technique::kSeg:
      // No closed-form estimate: seg's superset reporting is
      // workload-dependent; measure, don't model.
      break;
  }
  return e;
}

ModelParams params_from_events(lib::Technique t, u64 mem_bytes,
                               const EventCounters& events) {
  ModelParams p;
  p.mem_bytes = mem_bytes;
  p.intervals = std::max<u64>(1, events.get(Event::kTrackerCollect));
  p.rb_entries = events.get(Event::kRingBufFetchEntry);
  p.dirty_pages = p.rb_entries;
  p.n_ctx_switches = events.get(Event::kSchedQuantum) + p.intervals + 1;
  p.pml_full_exits = events.get(Event::kVmExitPmlFull);
  p.self_ipis = events.get(Event::kSelfIpi);
  switch (t) {
    case lib::Technique::kProc:
      p.faults = events.get(Event::kPageFaultSoftDirty);
      break;
    case lib::Technique::kUfd:
      p.faults = events.get(Event::kPageFaultUffd);
      break;
    case lib::Technique::kSpml:
      p.dirty_pages = events.get(Event::kReverseMapLookup);
      p.rmap_scans = events.get(Event::kPagemapScan);
      break;
    case lib::Technique::kWp:
      p.faults = events.get(Event::kEptWpFault);
      p.dirty_pages = p.faults;
      break;
    default:
      break;
  }
  return p;
}

double accuracy_pct(double estimated, double measured) {
  if (measured <= 0.0) throw std::invalid_argument("accuracy_pct: nonpositive measured");
  return 100.0 * (1.0 - std::fabs(estimated - measured) / measured);
}

}  // namespace ooh::model
