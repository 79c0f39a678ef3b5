// The four benchmark workloads. A workload is a fixed list of cells; each
// cell builds its own TestBed and derives all generated input from
// `opt.seed` and its index, so cells and rounds are independent.
#pragma once

#include <string>
#include <vector>

#include "base/rng.hpp"
#include "harness.hpp"
#include "ooh/testbed.hpp"
#include "ooh/tracker.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  std::size_t cells;
  /// Whether cells run concurrently on the pool (nproc workers). Cells that
  /// start host threads of their own run one at a time.
  bool parallel_cells;
  void (*run_cell)(std::size_t index, Cell& cell, const Options& opt);
};

extern const Workload kGcWorkload;
extern const Workload kAccessWorkload;
extern const Workload kCkptWorkload;
extern const Workload kFleetWorkload;

/// Host threads the fleet workload uses: tenant workers, and SMP producers
/// plus drainers (each at most nproc()).
struct FleetThreads {
  unsigned tenant_workers = 1;
  unsigned smp_vcpus = 1;
};
[[nodiscard]] FleetThreads fleet_threads();

/// Lower-case technique name used in span and metric names ("proc", "epml").
[[nodiscard]] inline std::string slug(ooh::lib::Technique t) {
  std::string out;
  for (const char c : ooh::lib::technique_name(t)) {
    if (c != '/') out += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  return out;
}

/// A seeded permutation of [0, n) (Fisher-Yates over ooh::Rng).
[[nodiscard]] inline std::vector<u64> permutation(u64 n, ooh::Rng& rng) {
  std::vector<u64> p(n);
  for (u64 i = 0; i < n; ++i) p[i] = i;
  for (u64 i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

/// TestBed options sized for a working set of `bytes`: the figure binaries'
/// headroom rule (2x the set, at least 64 MiB, plus 2 GiB of host slack).
[[nodiscard]] inline ooh::lib::TestBedOptions bed_options(u64 bytes) {
  ooh::lib::TestBedOptions opts;
  opts.vm_mem_bytes = std::max<u64>(bytes * 2, 64 * ooh::kMiB);
  opts.host_mem_bytes = opts.vm_mem_bytes + 2 * ooh::kGiB;
  return opts;
}

}  // namespace perfbench
