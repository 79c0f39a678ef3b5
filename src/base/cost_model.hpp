// Calibrated latencies of every simulated primitive.
//
// The *mechanisms* of the simulation (which faults, VM-exits, hypercalls,
// vmwrites, buffer copies occur, and how many) are produced by the machine
// model; this struct only supplies the unit latency of each primitive.
// Size-independent constants are taken verbatim from the paper's Table V(a)
// (metric ids M1..M18 kept in the field comments); size-dependent primitives
// are log-log interpolations of Table V(b)'s seven calibration points.
//
// CostModel is a plain value type so tests can substitute synthetic models
// and verify mechanism behaviour independent of calibration.
#pragma once

#include "base/interp.hpp"
#include "base/types.hpp"

namespace ooh {

struct CostModel {
  // ---- Table V(a): size-independent costs, microseconds -------------------
  double ctx_switch_us = 0.315;            ///< M1: user<->kernel context switch.
  double ioctl_init_pml_us = 5651.0;       ///< M3: ioctl PML init (SPML & EPML).
  double ioctl_deactivate_pml_us = 2816.0; ///< M4: ioctl PML deactivate.
  double vmread_us = 0.936;                ///< M7: vmread from guest mode (EPML).
  double vmwrite_us = 0.801;               ///< M8: vmwrite from guest mode (EPML).
  double hc_init_pml_us = 5495.0;          ///< M9: hypercall PML init (SPML).
  double hc_init_pml_shadow_us = 5878.0;   ///< M10: M9 + VMCS-shadowing init (EPML).
  double hc_deact_pml_us = 2060.0;         ///< M11: hypercall PML deactivate (SPML).
  double hc_deact_pml_shadow_us = 2755.0;  ///< M12: M11 + shadowing teardown (EPML).
  double hc_enable_logging_us = 0.3;       ///< M13: enable_logging hypercall (SPML).

  // ---- Documented assumptions (not itemised in Table V) -------------------
  double vmexit_us = 1.5;          ///< bare VM-exit + VM-entry round trip.
  double self_ipi_us = 0.5;        ///< posted-interrupt delivery, no VM-exit.
  double demand_fault_us = 1.0;    ///< first-touch minor fault (charged to all techniques alike).
  double ept_violation_us = 2.0;   ///< EPT violation exit + hypervisor backfill.
  double tlb_flush_us = 2.0;       ///< full TLB flush on one vCPU (INVEPT-style).
  /// Remote TLB shootdown: IPI send + remote invalidation + ack wait, charged
  /// per remote vCPU in the process's mm_cpumask. Hardware Translation
  /// Coherence for Virtualized Systems reports low-single-digit us per
  /// shootdown round trip under virtualization.
  double tlb_shootdown_us = 1.3;
  double disk_write_page_us = 3.0; ///< CRIU image write, per 4KiB page.
  /// Per simulated word access (write_u64/touch): page-stride accesses miss
  /// the cache on real hardware, so this models compute + a DRAM touch.
  double workload_write_ns = 100.0;
  /// Per word of a bulk transfer (write_bytes/read_bytes): sequential
  /// streams amortise misses across the cache line.
  double workload_bulk_word_ns = 2.0;
  double irq_dispatch_us = 0.2;    ///< guest IRQ table dispatch (self-IPI handler entry).
  double tlb_hit_ns = 1.0;         ///< translation served from the TLB.
  double guest_walk_ns = 50.0;     ///< 4-level guest page-table walk.
  double ept_walk_ns = 80.0;       ///< 4-level EPT walk (nested walk is pricier).
  double pml_log_ns = 15.0;        ///< hardware store of one PML entry.
  double dbit_clear_ns = 10.0;     ///< clearing one dirty flag during buffer drain.
  double drain_entry_ns = 20.0;    ///< moving one logged entry out of a PML buffer.
  double migration_send_page_us = 4.0;  ///< live-migration page transfer (10GbE-ish).
  double spp_violation_us = 2.5;   ///< SPP-violation exit + virtual #PF injection.
  double swap_in_page_us = 5.0;    ///< major fault: read one page from swap.
  double hc_spp_protect_us = 1.2;  ///< hypercall installing one sub-page mask.
  /// Eager page splitting: shattering one huge EPT leaf into 512 children
  /// (allocate a page-table page, fill 512 entries, one INVEPT amortised by
  /// the session-start flush). KVM's tdp_mmu split path is a low-single-
  /// digit-microsecond operation per 2 MiB leaf.
  double ept_split_leaf_us = 2.0;

  // ---- Table V(b): size-dependent totals, x = tracked bytes, y = us -------
  LogLogInterp m5_pfh_kernel;      ///< kernel-space #PF handling, total per full pass.
  LogLogInterp m6_pfh_user;        ///< userspace (ufd) #PF handling, total per full pass.
  LogLogInterp m14_disable_logging;///< SPML disable_logging hypercall, per call.
  LogLogInterp m15_clear_refs;     ///< echo 4 > clear_refs, per call.
  LogLogInterp m16_pt_walk_user;   ///< userspace pagemap scan, per full scan.
  LogLogInterp m17_reverse_map;    ///< SPML GPA->GVA reverse mapping, total per full pass.
  LogLogInterp m18_rb_copy;        ///< ring-buffer copy, total per full pass.

  /// The model with all Table V numbers installed.
  [[nodiscard]] static CostModel paper_calibrated();

  /// A unit-cost model for mechanism tests: every primitive costs 1us and
  /// size-dependent metrics are flat, so event counts equal microseconds.
  [[nodiscard]] static CostModel unit();

  // ---- Per-event helpers (mem = tracked process memory in bytes) ----------
  [[nodiscard]] double pfh_kernel_per_fault_us(u64 mem_bytes) const;
  [[nodiscard]] double pfh_user_per_fault_us(u64 mem_bytes) const;
  [[nodiscard]] double clear_refs_us(u64 mem_bytes) const;
  [[nodiscard]] double pagemap_scan_us(u64 mem_bytes) const;
  [[nodiscard]] double reverse_map_per_page_us(u64 mem_bytes) const;
  [[nodiscard]] double rb_copy_per_entry_us(u64 mem_bytes) const;
  [[nodiscard]] double spml_disable_logging_us(u64 mem_bytes) const;
  /// M2: ufd write-protect/register ioctl. Table V(a) marks it size-dependent
  /// without listing values; it parses the range's PTEs like clear_refs does,
  /// so we model it as one clear_refs-shaped pass (documented assumption).
  [[nodiscard]] double ufd_write_protect_us(u64 mem_bytes) const;
};

}  // namespace ooh
