#include "base/cost_model.hpp"

#include <algorithm>

namespace ooh {
namespace {

constexpr double kMs = 1e3;  // Table V(b) reports milliseconds; we store us.

/// The seven calibration sizes of Table V(b).
constexpr double kSz[7] = {1.0 * kMiB,   10.0 * kMiB,  50.0 * kMiB, 100.0 * kMiB,
                           250.0 * kMiB, 500.0 * kMiB, 1024.0 * kMiB};

LogLogInterp table_vb(const double (&ms)[7]) {
  std::vector<LogLogInterp::Point> pts;
  pts.reserve(7);
  for (int i = 0; i < 7; ++i) pts.push_back({kSz[i], ms[i] * kMs});
  return LogLogInterp{std::move(pts)};
}

LogLogInterp flat(double us) {
  return LogLogInterp{{{1.0, us}, {1e15, us}}};
}

[[nodiscard]] double per_page(const LogLogInterp& total_us, u64 mem_bytes) {
  const double pages = static_cast<double>(std::max<u64>(1, pages_for_bytes(mem_bytes)));
  return total_us.at(static_cast<double>(std::max<u64>(mem_bytes, 1))) / pages;
}

}  // namespace

CostModel CostModel::paper_calibrated() {
  CostModel m;
  // Table V(b) rows, in milliseconds, at 1MB/10MB/50MB/100MB/250MB/500MB/1GB.
  m.m15_clear_refs = table_vb({0.032, 0.0912, 0.174, 0.288, 0.613, 1.153, 2.234});
  m.m16_pt_walk_user = table_vb({1.912, 14.479, 41.832, 82.289, 161.973, 307.109, 594.187});
  m.m5_pfh_kernel = table_vb({0.003, 0.3, 1.68, 3.34, 8.39, 16.79, 33.58});
  m.m6_pfh_user = table_vb({2.5, 27.3, 152.3, 347.1, 882.8, 1585.0, 3483.0});
  m.m14_disable_logging = table_vb({0.042, 0.047, 0.138, 0.156, 0.189, 0.203, 0.208});
  m.m18_rb_copy = table_vb({0.003, 0.01, 0.03, 0.048, 0.109, 0.383, 0.671});
  m.m17_reverse_map = table_vb({6.183, 24.653, 85.117, 255.437, 1211.0, 4123.0, 15738.0});
  return m;
}

CostModel CostModel::unit() {
  CostModel m;
  m.ctx_switch_us = 1.0;
  m.ioctl_init_pml_us = 1.0;
  m.ioctl_deactivate_pml_us = 1.0;
  m.vmread_us = 1.0;
  m.vmwrite_us = 1.0;
  m.hc_init_pml_us = 1.0;
  m.hc_init_pml_shadow_us = 1.0;
  m.hc_deact_pml_us = 1.0;
  m.hc_deact_pml_shadow_us = 1.0;
  m.hc_enable_logging_us = 1.0;
  m.vmexit_us = 1.0;
  m.self_ipi_us = 1.0;
  m.demand_fault_us = 1.0;
  m.ept_violation_us = 1.0;
  m.tlb_flush_us = 1.0;
  m.tlb_shootdown_us = 1.0;
  m.disk_write_page_us = 1.0;
  m.workload_write_ns = 0.0;
  m.workload_bulk_word_ns = 0.0;
  m.irq_dispatch_us = 1.0;
  m.tlb_hit_ns = 0.0;
  m.guest_walk_ns = 0.0;
  m.ept_walk_ns = 0.0;
  m.pml_log_ns = 0.0;
  m.dbit_clear_ns = 0.0;
  m.drain_entry_ns = 0.0;
  m.migration_send_page_us = 1.0;
  m.spp_violation_us = 1.0;
  m.hc_spp_protect_us = 1.0;
  m.swap_in_page_us = 1.0;
  m.ept_split_leaf_us = 1.0;
  // Flat size-dependent metrics: totals of 1us regardless of size, so tests
  // can predict exact clock values from event counts.
  m.m5_pfh_kernel = flat(1.0);
  m.m6_pfh_user = flat(1.0);
  m.m14_disable_logging = flat(1.0);
  m.m15_clear_refs = flat(1.0);
  m.m16_pt_walk_user = flat(1.0);
  m.m17_reverse_map = flat(1.0);
  m.m18_rb_copy = flat(1.0);
  return m;
}

double CostModel::pfh_kernel_per_fault_us(u64 mem_bytes) const {
  return per_page(m5_pfh_kernel, mem_bytes);
}
double CostModel::pfh_user_per_fault_us(u64 mem_bytes) const {
  return per_page(m6_pfh_user, mem_bytes);
}
double CostModel::clear_refs_us(u64 mem_bytes) const {
  return m15_clear_refs.at(static_cast<double>(std::max<u64>(mem_bytes, 1)));
}
double CostModel::pagemap_scan_us(u64 mem_bytes) const {
  return m16_pt_walk_user.at(static_cast<double>(std::max<u64>(mem_bytes, 1)));
}
double CostModel::reverse_map_per_page_us(u64 mem_bytes) const {
  return per_page(m17_reverse_map, mem_bytes);
}
double CostModel::rb_copy_per_entry_us(u64 mem_bytes) const {
  return per_page(m18_rb_copy, mem_bytes);
}
double CostModel::spml_disable_logging_us(u64 mem_bytes) const {
  return m14_disable_logging.at(static_cast<double>(std::max<u64>(mem_bytes, 1)));
}
double CostModel::ufd_write_protect_us(u64 mem_bytes) const {
  return clear_refs_us(mem_bytes);
}

}  // namespace ooh
