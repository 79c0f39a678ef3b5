// Shared runners for the CRIU experiments (Figs. 7-9): checkpoint one
// application while it runs, under the given technique, and the untracked
// ideal run Fig. 9 compares against.
#pragma once

#include "common.hpp"
#include "trackers/criu/checkpoint.hpp"
#include "workloads/registry.hpp"

namespace ooh::bench {

inline criu::CheckpointResult run_criu(std::string_view app, wl::ConfigSize size,
                                       u64 scale, lib::Technique tech) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  const WorkloadRun wr = prepare_workload(k, app, size, scale);
  criu::Checkpointer cp(k, tech);
  criu::CheckpointOptions opts;
  opts.initial_full_copy = true;
  return cp.checkpoint_during(*wr.proc, wr.workload->runner(), opts);
}

/// The application's untracked completion time (us). It does not depend on
/// the technique, so Fig. 9 computes it once per application.
inline double criu_ideal_us(std::string_view app, wl::ConfigSize size, u64 scale) {
  lib::TestBed bed;
  auto& k = bed.kernel();
  const WorkloadRun wr = prepare_workload(k, app, size, scale);
  return lib::run_baseline(k, *wr.proc, wr.workload->runner()).tracked_time.count();
}

/// Fig. 7-9 application set: Phoenix + tkrzw at Large configuration.
inline std::vector<std::pair<std::string_view, wl::ConfigSize>> criu_apps() {
  std::vector<std::pair<std::string_view, wl::ConfigSize>> apps;
  for (const std::string_view a : wl::phoenix_apps()) {
    apps.emplace_back(a, wl::ConfigSize::kLarge);
  }
  for (const std::string_view a : wl::tkrzw_apps()) {
    apps.emplace_back(a, wl::ConfigSize::kLarge);
  }
  return apps;
}

}  // namespace ooh::bench
