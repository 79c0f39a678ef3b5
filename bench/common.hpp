// Shared helpers for the bench harnesses.
//
// Every binary regenerates one of the paper's tables/figures. Default runs
// use scaled-down workloads so the whole suite finishes in minutes; pass
// --full for the paper-scale configurations (Table III sizes, 1MB..1GB
// sweeps).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/table.hpp"
#include "base/vtime.hpp"
#include "ooh/experiment.hpp"
#include "ooh/testbed.hpp"
#include "ooh/trackers.hpp"
#include "run_setup.hpp"

namespace ooh::bench {

struct Args {
  bool full = false;
  /// Workload scale divisor: 1 at --full, else a bench-chosen default.
  u64 scale = 32;
  /// Worker threads for multi-VM benches (0 = auto-size to the host).
  unsigned threads = 0;
  /// Max vCPUs per VM for the SMP sections of figs. 10-11 (0 = default
  /// sweep 1,2,4).
  unsigned vcpus = 0;
  /// --gran: EPT backing granularity for the figs. 10-11 gran sections
  /// (4k | 2m | 2m+split). Default 4k keeps every figure byte-identical.
  GranMode gran = GranMode::k4K;

  /// An unknown flag, a missing value or an invalid value prints a one-line
  /// usage to stderr and exits with status 2, so a mistyped flag cannot
  /// silently produce the stock figure.
  static Args parse(int argc, char** argv, u64 default_scale = 32) {
    Args a;
    a.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--full") {
        a.full = true;
        a.scale = 1;
        continue;
      }
      if (flag != "--threads" && flag != "--vcpus" && flag != "--gran") {
        usage_exit(argv[0], "unknown flag '" + flag + "'");
      }
      if (i + 1 >= argc) usage_exit(argv[0], flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--gran") {
        const auto m = parse_gran_mode(value);
        if (!m) usage_exit(argv[0], "invalid value '" + value + "' for --gran");
        a.gran = *m;
        continue;
      }
      char* end = nullptr;
      const unsigned long n = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' ||
          n > std::numeric_limits<unsigned>::max()) {
        usage_exit(argv[0], "invalid value '" + value + "' for " + flag);
      }
      (flag == "--threads" ? a.threads : a.vcpus) = static_cast<unsigned>(n);
    }
    return a;
  }

  [[noreturn]] static void usage_exit(const char* prog, const std::string& why) {
    std::fprintf(stderr,
                 "%s: %s; usage: %s [--full] [--threads N] [--vcpus N] "
                 "[--gran 4k|2m|2m+split]\n",
                 prog, why.c_str(), prog);
    std::exit(2);
  }
};

/// The memory sweep of Table I / Table V(b) / Figs. 3-4.
inline std::vector<u64> memory_sweep(bool full) {
  if (full) {
    return {1 * kMiB, 10 * kMiB, 50 * kMiB, 100 * kMiB, 250 * kMiB, 500 * kMiB, kGiB};
  }
  return {1 * kMiB, 10 * kMiB, 50 * kMiB, 100 * kMiB};
}

inline std::string mem_label(u64 bytes) {
  if (bytes >= kGiB) return std::to_string(bytes / kGiB) + "GB";
  return std::to_string(bytes / kMiB) + "MB";
}

inline void print_header(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("(virtual-time simulation; see EXPERIMENTS.md for paper values)\n");
  std::printf("==============================================================\n");
}

/// One warm single-cycle microbench run (the paper's Table I / Fig. 4
/// methodology): returns {ideal_us, tracked_us, tracker_us}.
struct MicroRun {
  double ideal_us = 0.0;
  double tracked_us = 0.0;
  double tracker_us = 0.0;
  lib::RunResult result;
};

/// Write passes per microbench run, calibrated so the monitoring window gives
/// each page ~0.8us of Tracked work -- this puts the large-size overheads in
/// the paper's range (ufd ~15x, /proc ~4x, SPML ~66x at 1GB). micro_ideal and
/// run_micro both use it, so an ideal always matches its tracked run.
constexpr int kMicroPasses = 8;

/// The microbench's kMicroPasses write passes over `pages` pages at `base`.
inline std::function<void(guest::Process&)> micro_work(Gva base, u64 pages) {
  return [base, pages](guest::Process& p) {
    for (int pass = 0; pass < kMicroPasses; ++pass) {
      for (u64 i = 0; i < pages; ++i) p.write_u64(base + i * kPageSize, i);
    }
  };
}

/// The untracked ideal of the microbench at `mem_bytes`. It does not depend
/// on the technique, so a sweep computes it once per size and hands it to
/// every run_micro of that size.
inline VirtDuration micro_ideal(u64 mem_bytes) {
  lib::TestBed bed(sized_bed_options(mem_bytes));
  auto& k = bed.kernel();
  const PreparedProcess pp = prepare_process(k, mem_bytes);
  lib::RunOptions ro;
  ro.collect_period = VirtDuration{0};
  return lib::run_tracked(k, *pp.proc, micro_work(pp.base, pages_for_bytes(mem_bytes)),
                          nullptr, ro)
      .tracked_time;
}

/// The microbench at `mem_bytes` under `tech`, one collection at 3/4 of the
/// `ideal` (micro_ideal of the same size) run time.
inline MicroRun run_micro(lib::Technique tech, u64 mem_bytes, VirtDuration ideal) {
  lib::TestBed bed(sized_bed_options(mem_bytes));
  auto& k = bed.kernel();
  const PreparedProcess pp = prepare_process(k, mem_bytes);
  auto tracker = lib::make_tracker(tech, k, *pp.proc);
  lib::RunOptions ro;
  ro.collect_period = ideal * 0.75;
  ro.max_collections = 1;
  MicroRun out;
  out.ideal_us = ideal.count();
  out.result = lib::run_tracked(k, *pp.proc,
                                micro_work(pp.base, pages_for_bytes(mem_bytes)),
                                tracker.get(), ro);
  tracker->shutdown();
  out.tracked_us = out.result.tracked_time.count();
  out.tracker_us = out.result.tracker_time().count() - out.result.phases.init.count();
  return out;
}

// ---- SMP guests: per-vCPU dirty rings, concurrent userspace drain -----------

/// One SMP configuration of the figs. 10-11 vCPU axis: a single VM with
/// `vcpus` vCPUs, one pinned writer process per vCPU, a hypervisor PML
/// session over the touch phase. `concurrent` runs one producer thread per
/// vCPU plus one userspace drainer per dirty ring; otherwise everything is
/// serial and the rings are only emptied at the quiescent harvest. Per-vCPU
/// virtual time is bit-identical between the two modes by construction —
/// only the host wall clock and the drained-entry count differ.
struct SmpDrainResult {
  double wall_ms = 0.0;      ///< host wall clock of the touch+drain phase.
  double max_vcpu_ms = 0.0;  ///< slowest vCPU's virtual time.
  double spread_pct = 0.0;   ///< (max-min)/max over the per-vCPU clocks.
  u64 drained = 0;           ///< ring entries popped by concurrent drainers.
  u64 harvested = 0;         ///< union of dirty GPAs at the final harvest.
};

inline SmpDrainResult run_smp_drain(unsigned vcpus, u64 pages_per_vcpu,
                                    int passes, bool concurrent,
                                    GranMode gran = GranMode::k4K) {
  lib::TestBedOptions opts =
      sized_bed_options(u64{vcpus} * pages_per_vcpu * kPageSize * 2);
  opts.vcpus_per_vm = vcpus;
  apply_gran(opts, gran);
  lib::TestBed bed(opts);
  hv::Vm& vm = bed.vm();
  guest::GuestKernel& k = bed.kernel();
  hv::Hypervisor& hv = bed.hypervisor();

  std::vector<guest::Process*> procs(vcpus);
  std::vector<Gva> bases(vcpus);
  for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
    procs[cpu] = &k.create_process();  // round-robin pins proc i to vCPU i
    bases[cpu] = procs[cpu]->mmap(pages_per_vcpu * kPageSize);
    // Serial warmup so the timed phase allocates nothing and both modes see
    // identical frame assignments.
    procs[cpu]->touch_range_write(bases[cpu], pages_per_vcpu * kPageSize);
  }
  hv.enable_pml_for_hyp(vm);

  const auto body = [&](unsigned cpu) {
    for (int pass = 0; pass < passes; ++pass) {
      procs[cpu]->touch_range_write(bases[cpu], pages_per_vcpu * kPageSize);
    }
  };

  SmpDrainResult out;
  const auto start = std::chrono::steady_clock::now();
  if (!concurrent) {
    for (unsigned cpu = 0; cpu < vcpus; ++cpu) body(cpu);
  } else {
    std::atomic<bool> done{false};
    std::atomic<u64> popped{0};
    std::vector<std::thread> drainers;
    for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
      drainers.emplace_back([&, cpu] {
        std::vector<Gpa> local;
        while (!done.load(std::memory_order_acquire)) {
          popped.fetch_add(hv.drain_dirty_ring(vm, cpu, local),
                           std::memory_order_relaxed);
          std::this_thread::yield();
        }
        popped.fetch_add(hv.drain_dirty_ring(vm, cpu, local),
                         std::memory_order_relaxed);
      });
    }
    std::vector<std::thread> producers;
    for (unsigned cpu = 0; cpu < vcpus; ++cpu) producers.emplace_back(body, cpu);
    for (std::thread& t : producers) t.join();
    done.store(true, std::memory_order_release);
    for (std::thread& t : drainers) t.join();
    out.drained = popped.load(std::memory_order_relaxed);
  }
  out.harvested = hv.harvest_hyp_dirty(vm).size();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  hv.disable_pml_for_hyp(vm);

  double min_us = 1e300, max_us = 0.0;
  for (unsigned cpu = 0; cpu < vcpus; ++cpu) {
    const double us = vm.vcpu(cpu).ctx().clock.now().count();
    min_us = std::min(min_us, us);
    max_us = std::max(max_us, us);
  }
  out.max_vcpu_ms = max_us / 1e3;
  out.spread_pct = max_us > 0.0 ? (max_us - min_us) / max_us * 100.0 : 0.0;
  bed.audit();
  return out;
}

/// The vCPU counts the SMP sections sweep: 1,2,4 by default, or 1..--vcpus
/// capped to powers of two when the flag is given.
inline std::vector<unsigned> vcpu_sweep(unsigned max_vcpus) {
  std::vector<unsigned> out;
  const unsigned cap = max_vcpus != 0 ? max_vcpus : 4;
  for (unsigned v = 1; v <= cap; v *= 2) out.push_back(v);
  return out;
}

}  // namespace ooh::bench
