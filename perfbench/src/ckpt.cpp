// Workload `ckpt`: the fig. 8 scenario. Per cell (application x technique):
// the untracked lib::run_baseline ideal run figs. 7-9 perform, then
// criu::Checkpointer::checkpoint_during on a fresh bed (initial full copy,
// final MD + MW). Set-up is each bed's construction plus Workload::setup.
// The registry applications keep their built-in inputs, so this workload
// does not depend on the seed.
#include <algorithm>
#include <string>

#include "trackers/criu/checkpoint.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {
namespace {

using ooh::Gva;
using ooh::lib::Technique;

/// Large configuration scaled down (fig. 8 itself defaults to 128).
constexpr u64 kScale = 32;
constexpr const char* kApps[] = {"tiny", "histogram"};
constexpr Technique kTechs[] = {Technique::kProc, Technique::kSpml, Technique::kEpml};
/// Cells per application and technique: 12 cells keep every one of 4 pool
/// workers busy for the whole round, so each round averages over more cells.
constexpr u64 kReplicas = 2;

struct Prepared {
  std::unique_ptr<ooh::lib::TestBed> bed;
  ooh::guest::Process* proc = nullptr;
  std::unique_ptr<ooh::wl::Workload> workload;
};

Prepared prepare(Cell& cell, std::string_view app) {
  Prepared p;
  Tracer& tr = cell.tracer();
  cell.setup([&] {
    {
      auto s = tr.span("ooh.testbed.build");
      p.bed = std::make_unique<ooh::lib::TestBed>();
    }
    p.proc = &p.bed->kernel().create_process();
    p.workload = ooh::wl::make_workload(app, ooh::wl::ConfigSize::kLarge, kScale);
    auto s = tr.span("workloads.setup");
    p.workload->setup(*p.proc);
  });
  return p;
}

[[nodiscard]] std::vector<Gva> present_pages(ooh::guest::GuestKernel& k,
                                             ooh::guest::Process& proc) {
  std::vector<Gva> out;
  k.page_table(proc).for_each_present([&](Gva gva, ooh::sim::Pte&) { out.push_back(gva); });
  std::sort(out.begin(), out.end());
  return out;
}

void run_cell(Cell& cell, std::string_view app, Technique tech, u64 replica) {
  const std::string tname = slug(tech);
  cell.set_name(std::string(app) + "/" + tname + "/" + std::to_string(replica));
  Tracer& tr = cell.tracer();

  {
    Prepared ideal = prepare(cell, app);
    const ooh::EventCounters before = bed_counters(*ideal.bed);
    cell.timed([&] {
      auto s = tr.span("workloads.run");
      (void)ooh::lib::run_baseline(ideal.bed->kernel(), *ideal.proc,
                                   ideal.workload->runner());
    });
    cell.add_events(bed_counters(*ideal.bed).diff(before));
  }

  Prepared run = prepare(cell, app);
  ooh::guest::GuestKernel& k = run.bed->kernel();
  ooh::criu::CheckpointResult res;
  const ooh::EventCounters before = bed_counters(*run.bed);
  cell.timed([&] {
    auto s = tr.span("trackers.criu.checkpoint." + tname);
    ooh::criu::Checkpointer cp(k, tech);
    ooh::criu::CheckpointOptions opts;
    opts.initial_full_copy = true;
    res = cp.checkpoint_during(*run.proc, run.workload->runner(), opts);
  });
  const ooh::EventCounters delta = bed_counters(*run.bed).diff(before);
  cell.add_events(delta);
  cell.add("trackers.criu.pages_dumped",
           static_cast<double>(delta.get(ooh::Event::kDiskPageWrite)));

  // Output checks. The final dump holds exactly the pages the run wrote,
  // every one of them is in the image, and the image restores to a process
  // with the same resident pages and the same bytes.
  const ooh::FlatPageMap& truth = run.proc->truth_dirty();
  cell.check(res.final_dirty_pages == truth.size(),
             "final dump has " + std::to_string(res.final_dirty_pages) +
                 " pages, the run wrote " + std::to_string(truth.size()));
  u64 missing = 0;
  for (const auto& [page, seq] : truth) {
    (void)seq;
    if (!res.image.pages.contains(page)) ++missing;
  }
  cell.check(missing == 0, std::to_string(missing) + " written pages missing from the image");
  const std::vector<Gva> original = present_pages(k, *run.proc);
  ooh::guest::Process& restored = k.create_process();
  ooh::criu::restore(restored, res.image);
  cell.check(present_pages(k, restored) == original,
             "restored process has other resident pages than the original");
  u64 differing = 0;
  std::vector<ooh::u8> want(ooh::kPageSize), have(ooh::kPageSize);
  for (const auto& [gva, content] : res.image.pages) {
    if (content.empty()) continue;  // metadata-only page: residency checked above
    run.proc->read_bytes(gva, want);
    restored.read_bytes(gva, have);
    if (want != have) ++differing;
  }
  cell.check(differing == 0, std::to_string(differing) + " restored pages differ");
  cell.set_digest(bed_digest(*run.bed));
}

}  // namespace

const Workload kCkptWorkload = {
    "ckpt", kReplicas * std::size(kApps) * std::size(kTechs), true,
    [](std::size_t i, Cell& cell, const Options& /*opt*/) {
      const std::size_t combo = i % (std::size(kApps) * std::size(kTechs));
      run_cell(cell, kApps[combo / std::size(kTechs)], kTechs[combo % std::size(kTechs)],
               i / (std::size(kApps) * std::size(kTechs)));
    }};

}  // namespace perfbench
