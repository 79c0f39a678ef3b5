// Host-cost benchmark: runs one workload for a fixed number of host
// seconds and prints its metrics as one JSON object on the last line of
// standard output.
//
//   perfbench --workload gc|access|ckpt|fleet --seed N --seconds S
//                    --trace 0|1 [--trace-out FILE] [--mutate-drop-page]
//
// --trace 0 prints the end-to-end metrics (wall_s, accesses_per_s, setup_s,
// peak_rss_mb); --trace 1 alternates untraced and traced rounds, prints the
// per-layer metrics and writes the traced rounds' spans as Chrome
// trace-event JSON. Progress and the build/thread summary go to stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ooh/epoch_run.hpp"
#include "sim/check/coherence.hpp"
#include "workloads.hpp"

#ifndef OOH_PERFBENCH_BUILD_TYPE
#define OOH_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

#ifdef OOH_SCHED_CHECK
constexpr bool kSchedCheckBuild = true;
#else
constexpr bool kSchedCheckBuild = false;
#endif

constexpr const Workload* kWorkloads[] = {&kGcWorkload, &kAccessWorkload, &kCkptWorkload,
                                          &kFleetWorkload};

/// Rounds measured at least, whatever --seconds says. A traced run needs at
/// least two untraced rounds and one traced round.
constexpr std::size_t kMinRounds = 3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "gc|access|ckpt|fleet --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--mutate-drop-page") {
      o.mutate_drop_page = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics: per-round means over the traced rounds, except host.*,
/// the medians of the uncalibrated times over the untraced rounds.
std::vector<Metric> layer_metrics(const Tracer& tr, const std::vector<const Round*>& plain,
                                  const std::vector<const Round*>& traced, double overhead_s) {
  const double n = static_cast<double>(traced.size());
  ooh::EventCounters ev;
  std::map<std::string, double> extra;
  for (const Round* r : traced) {
    ev.merge(r->events());
    for (const auto& [k, v] : r->extra()) extra[k] += v;
  }
  const auto count = [&](std::initializer_list<ooh::Event> es) {
    double s = 0.0;
    for (const ooh::Event e : es) s += static_cast<double>(ev.get(e));
    return s / n;
  };
  const auto span_s = [&](const std::string& name) { return tr.total_s(name) / n; };
  const auto x = [&](const std::string& name) {
    const auto it = extra.find(name);
    return it == extra.end() ? 0.0 : it->second / n;
  };
  using ooh::Event;

  std::vector<Metric> m;
  const double write_s = span_s("guest.write");
  const double read_s = span_s("guest.read");
  const double accesses = count({Event::kTlbHit, Event::kTlbMiss});
  m.push_back({"guest.write_s", write_s, "s"});
  m.push_back({"guest.read_s", read_s, "s"});
  m.push_back({"guest.ns_per_access",
               write_s + read_s > 0.0 ? (write_s + read_s) * 1e9 / accesses : 0.0, "ns"});
  m.push_back({"guest.page_faults",
               count({Event::kPageFaultDemand, Event::kPageFaultSoftDirty,
                      Event::kPageFaultUffd}),
               "count"});
  m.push_back({"sim.tlb_hit_ratio", accesses > 0.0 ? count({Event::kTlbHit}) / accesses : 0.0,
               "ratio"});
  m.push_back({"sim.tlb_misses", count({Event::kTlbMiss}), "count"});
  m.push_back({"sim.ept_walks", count({Event::kEptWalk}), "count"});
  m.push_back({"sim.pml_logged", count({Event::kPmlLogGpa, Event::kPmlLogGvaGuest}), "count"});
  m.push_back({"sim.vm_exits", count({Event::kVmExit}), "count"});
  m.push_back({"hypervisor.ring_drain_s", x("hypervisor.ring_drain_s"), "s"});
  m.push_back({"hypervisor.harvest_s", span_s("hypervisor.harvest"), "s"});
  m.push_back({"hypervisor.ring_entries_drained", x("hypervisor.ring_entries_drained"),
               "count"});
  m.push_back({"hypervisor.reverse_map_lookups", count({Event::kReverseMapLookup}), "count"});
  for (const char* t : {"proc", "ufd", "spml", "epml", "wp"}) {
    m.push_back({std::string("ooh.tracker.arm_s.") + t,
                 span_s(std::string("ooh.tracker.arm.") + t), "s"});
    m.push_back({std::string("ooh.tracker.collect_s.") + t,
                 span_s(std::string("ooh.tracker.collect.") + t), "s"});
  }
  for (const char* t : {"proc", "ufd", "spml", "epml", "wp", "seg"}) {
    m.push_back({std::string("ooh.tracker.init_s.") + t,
                 span_s(std::string("ooh.tracker.init.") + t), "s"});
  }
  m.push_back({"ooh.testbed.build_s", span_s("ooh.testbed.build"), "s"});
  m.push_back({"ooh.tracker.pages_collected", x("ooh.tracker.pages_collected"), "count"});
  m.push_back({"ooh.tracker.dropped", x("ooh.tracker.dropped"), "count"});
  m.push_back({"ooh.run_tenants_s", span_s("ooh.run_tenants"), "s"});
  const double capacity = x("fleet.capacity_s");
  m.push_back({"ooh.parallel_efficiency", capacity > 0.0 ? x("fleet.busy_s") / capacity : 0.0,
               "ratio"});
  for (const char* t : {"proc", "spml", "epml"}) {
    m.push_back({std::string("trackers.gc.collect_s.") + t,
                 span_s(std::string("trackers.gc.collect.") + t), "s"});
  }
  m.push_back({"trackers.gc.mutator_s", span_s("trackers.gc.mutator"), "s"});
  m.push_back({"trackers.gc.cycles", x("trackers.gc.cycles"), "count"});
  m.push_back({"trackers.gc.pages_rescanned", x("trackers.gc.pages_rescanned"), "count"});
  m.push_back({"trackers.gc.objects_freed", x("trackers.gc.objects_freed"), "count"});
  for (const char* t : {"proc", "spml", "epml"}) {
    m.push_back({std::string("trackers.criu.checkpoint_s.") + t,
                 span_s(std::string("trackers.criu.checkpoint.") + t), "s"});
  }
  m.push_back({"trackers.criu.pages_dumped", x("trackers.criu.pages_dumped"), "count"});
  m.push_back({"workloads.run_s", span_s("workloads.run"), "s"});
  m.push_back({"workloads.setup_s", span_s("workloads.setup"), "s"});
  const double spans = static_cast<double>(tr.size()) / n;
  std::vector<double> host_wall, host_setup, reference;
  for (const Round* r : plain) {
    host_wall.push_back(r->wall_s());
    host_setup.push_back(r->setup_s());
    reference.push_back(r->reference_s());
  }
  m.push_back({"host.wall_s", median(host_wall), "s"});
  m.push_back({"host.setup_s", median(host_setup), "s"});
  m.push_back({"host.reference_s", median(reference), "s"});
  m.push_back({"trace.overhead_s", overhead_s, "s"});
  m.push_back({"trace.spans", spans, "count"});
  m.push_back({"trace.span_cost_s", spans * span_cost_s(), "s"});
  return m;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload* w : kWorkloads) {
    if (opt.workload == w->name) wl = w;
  }
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  // Build guard: audit and schedule-explorer builds change host time by
  // large factors, so their timings are meaningless.
  if (ooh::check::kCoherenceAuditsEnabled || kSchedCheckBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a build with%s%s; rebuild with "
                 "OOH_COHERENCE_AUDITS=OFF and OOH_SCHED_CHECK=OFF\n",
                 ooh::check::kCoherenceAuditsEnabled ? " coherence audits" : "",
                 kSchedCheckBuild ? " the schedule-explorer seam" : "");
    return 3;
  }
  const FleetThreads ft = fleet_threads();
  const unsigned workers = wl->parallel_cells ? nproc() : 1;
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu seconds=%g trace=%d build=%s nproc=%u "
               "threads: cell_workers=%u fleet.tenant_workers=%u fleet.smp_producers=%u "
               "fleet.smp_drainers=%u\n",
               wl->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? 1 : 0, OOH_PERFBENCH_BUILD_TYPE, nproc(), workers,
               ft.tenant_workers, ft.smp_vcpus, ft.smp_vcpus);

  Tracer tracer;
  std::map<std::string, u64> digests;
  std::vector<std::unique_ptr<Round>> rounds;
  std::vector<const Round*> plain, traced;
  double measured_s = 0.0;
  double peak_mb = 0.0;
  bool warned_rss = false;
  for (unsigned i = 0;; ++i) {
    // Round 0 warms up; a traced run then alternates untraced/traced.
    const bool trace_this = opt.trace && i > 0 && i % 2 == 0;
    tracer.set_enabled(trace_this);
    auto r = std::make_unique<Round>(i);
    const double t0 = now_s();
    const std::vector<Cell> cells = ooh::lib::run_cells<Cell>(
        wl->cells,
        [&](std::size_t c) {
          Cell cell(tracer);
          wl->run_cell(c, cell, opt);
          return cell;
        },
        workers);
    const double took = now_s() - t0;
    // Peak RSS is read before the reference kernel runs, and the mark is
    // reset after it, so the kernel's arrays never count.
    peak_mb = std::max(peak_mb, peak_rss_mb());
    const double r0 = now_s();
    r->set_reference_s(reference_s(nproc()));
    const double ref_took = now_s() - r0;
    if (!reset_peak_rss() && !warned_rss) {
      std::fprintf(stderr, "perfbench: cannot reset VmHWM; peak_rss_mb includes the "
                           "reference kernel\n");
      warned_rss = true;
    }
    for (const Cell& c : cells) r->merge(c, digests);
    for (const std::string& f : r->failures()) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    std::fprintf(stderr,
                 "perfbench: round %u%s host wall_s=%.4f setup_s=%.4f reference_s=%.4f "
                 "calibrated wall_s=%.4f total=%.3f\n",
                 i, trace_this ? " (traced)" : "", r->wall_s(), r->setup_s(), r->reference_s(),
                 r->calibrated(r->wall_s()), took + ref_took);
    if (i > 0) {
      measured_s += took + ref_took;
      (trace_this ? traced : plain).push_back(r.get());
    }
    rounds.push_back(std::move(r));
    const bool enough = opt.trace ? plain.size() >= 2 && !traced.empty()
                                  : plain.size() >= kMinRounds;
    if (i > 0 && enough && measured_s >= opt.seconds) break;
  }
  tracer.set_enabled(false);

  u64 attempted = 0, failed = 0;
  for (const auto& r : rounds) {
    attempted += r->attempted();
    failed += r->failed();
  }

  std::vector<double> wall, setup, rate;
  for (const Round* r : plain) {
    wall.push_back(r->calibrated(r->wall_s()));
    setup.push_back(r->calibrated(r->setup_s()));
    rate.push_back(static_cast<double>(r->accesses()) / wall.back());
  }

  // Side channel for the self-tests: per-round work totals and digests.
  std::ostringstream info;
  info << "perfbench-info {\"accesses\":[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    info << (i ? "," : "") << rounds[i]->accesses();
  }
  info << "],\"plans\":[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    info << (i ? "," : "") << '"' << std::hex << rounds[i]->plan_digest() << std::dec << '"';
  }
  info << "],\"digests\":{";
  bool first = true;
  for (const auto& [cell, d] : digests) {
    info << (first ? "" : ",") << '"' << cell << "\":\"" << std::hex << d << std::dec << '"';
    first = false;
  }
  info << "}}";
  std::fprintf(stderr, "%s\n", info.str().c_str());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {{"wall_s", median(wall), "s"},
               {"accesses_per_s", median(rate), "1/s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mb", peak_mb, "MB"}};
  } else {
    std::vector<double> traced_wall;
    for (const Round* r : traced) traced_wall.push_back(r->calibrated(r->wall_s()));
    metrics = layer_metrics(tracer, plain, traced, median(traced_wall) - median(wall));
    if (!opt.trace_out.empty()) {
      tracer.write_chrome(opt.trace_out);
      std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", tracer.size(),
                   opt.trace_out.c_str());
    }
  }

  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed glibc malloc thresholds: the adaptive mmap threshold otherwise
  // moves with the order of large frees, so peak RSS and host time would
  // depend on allocation history rather than on the work done.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
