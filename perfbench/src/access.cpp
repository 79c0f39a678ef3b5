// Workload `access`: the fig. 4 array-parser access path, driven through the
// DirtyTracker lifecycle by hand. Per cell (technique x working-set size):
// set-up builds the bed, prefaults the working set and runs tracker init();
// the timed section runs kIntervals intervals of
//     begin_interval -> { write_u64 pass over set A, touch_range_write pass
//     over set B, touch_range_read pass over every chunk } x kPasses
//     -> collect
// and shuts the tracker down. The seed picks, per interval, which chunks
// form A and B (a quarter of the working set each) and the order every pass
// visits its chunks in; the amount of work is the same for every seed.
#include <algorithm>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

using ooh::Gva;
using ooh::kPageSize;
using ooh::lib::Technique;

constexpr u64 kChunkPages = 32;
/// Fits the 1536-entry TLB, and several times larger than it.
constexpr u64 kSmallPages = 1024;
constexpr u64 kLargePages = 8192;
constexpr int kIntervals = 48;
constexpr int kPasses = 2;

constexpr Technique kTechs[] = {Technique::kProc, Technique::kUfd, Technique::kSpml,
                                Technique::kEpml, Technique::kWp};

void run_cell(Cell& cell, Technique tech, u64 pages, u64 seed, bool drop_page) {
  const std::string tname = slug(tech);
  cell.set_name(tname + "/" + std::to_string(pages));
  std::unique_ptr<ooh::lib::TestBed> bed;
  ooh::guest::Process* proc = nullptr;
  Gva base = 0;
  std::unique_ptr<ooh::lib::DirtyTracker> tracker;
  const u64 bytes = pages * kPageSize;
  Tracer& tr = cell.tracer();

  cell.setup([&] {
    {
      auto s = tr.span("ooh.testbed.build");
      bed = std::make_unique<ooh::lib::TestBed>(bed_options(bytes));
    }
    proc = &bed->kernel().create_process();
    base = proc->mmap(bytes);
    proc->touch_range_write(base, bytes);  // prefault: the timed part faults nothing
    tracker = ooh::lib::make_tracker(tech, bed->kernel(), *proc);
    auto s = tr.span("ooh.tracker.init." + tname);
    tracker->init();
  });

  ooh::guest::GuestKernel& k = bed->kernel();
  const u64 chunks = pages / kChunkPages;
  // The seeded plan is drawn before the timed section: per interval, the
  // chunk visit order, whose first quarter is set A and second quarter B.
  ooh::Rng rng(seed ^ (pages * 0x9E3779B97F4A7C15ULL) ^ static_cast<u64>(tech));
  std::vector<std::vector<u64>> orders;
  for (int iv = 0; iv < kIntervals; ++iv) {
    orders.push_back(permutation(chunks, rng));
    for (const u64 c : orders.back()) cell.note_plan(c);
  }
  std::vector<std::vector<Gva>> got(kIntervals);
  const auto chunk_base = [&](u64 c) { return base + c * kChunkPages * kPageSize; };
  const ooh::EventCounters before = bed_counters(*bed);

  cell.timed([&] {
    for (int iv = 0; iv < kIntervals; ++iv) {
      const std::vector<u64>& order = orders[iv];
      const auto a_end = order.begin() + static_cast<long>(chunks / 4);
      const auto b_end = order.begin() + static_cast<long>(chunks / 2);
      {
        auto s = tr.span("ooh.tracker.arm." + tname);
        tracker->begin_interval();
      }
      k.scheduler().enter_process(proc->pid());
      for (int pass = 0; pass < kPasses; ++pass) {
        {
          auto s = tr.span("guest.write");
          for (auto it = order.begin(); it != a_end; ++it) {
            for (u64 p = 0; p < kChunkPages; ++p) {
              proc->write_u64(chunk_base(*it) + p * kPageSize + 8 * static_cast<u64>(pass),
                              *it * kChunkPages + p);
            }
          }
          for (auto it = a_end; it != b_end; ++it) {
            proc->touch_range_write(chunk_base(*it), kChunkPages * kPageSize);
          }
        }
        auto s = tr.span("guest.read");
        for (const u64 c : order) {
          proc->touch_range_read(chunk_base(c), kChunkPages * kPageSize);
        }
      }
      k.scheduler().exit_process(proc->pid());
      auto s = tr.span("ooh.tracker.collect." + tname);
      got[iv] = tracker->collect();
    }
  });
  cell.add_events(bed_counters(*bed).diff(before));

  // Output checks: every exact technique reports exactly the pages the
  // interval wrote (sets A and B), nothing more and nothing less.
  u64 collected_pages = 0;
  for (int iv = 0; iv < kIntervals; ++iv) {
    std::vector<Gva>& pages_got = got[iv];
    collected_pages += pages_got.size();
    if (drop_page && iv == 0 && !pages_got.empty()) pages_got.pop_back();
    std::vector<Gva> expected;
    const std::vector<u64>& order = orders[iv];
    for (u64 i = 0; i < chunks / 2; ++i) {
      for (u64 p = 0; p < kChunkPages; ++p) {
        expected.push_back(chunk_base(order[i]) + p * kPageSize);
      }
    }
    std::sort(expected.begin(), expected.end());
    cell.check(pages_got == expected,
               "interval " + std::to_string(iv) + ": collected " +
                   std::to_string(pages_got.size()) + " pages, wrote " +
                   std::to_string(expected.size()));
  }

  const u64 dropped = tracker->dropped();
  cell.check(dropped == 0, "tracker dropped " + std::to_string(dropped) + " pages");
  cell.add("ooh.tracker.pages_collected", static_cast<double>(collected_pages));
  cell.add("ooh.tracker.dropped", static_cast<double>(dropped));
  tracker->shutdown();
  cell.set_digest(bed_digest(*bed));
}

}  // namespace

const Workload kAccessWorkload = {
    "access", 2 * std::size(kTechs), true,
    [](std::size_t i, Cell& cell, const Options& opt) {
      const u64 pages = i < std::size(kTechs) ? kSmallPages : kLargePages;
      run_cell(cell, kTechs[i % std::size(kTechs)], pages, opt.seed,
               opt.mutate_drop_page && i == 0);
    }};

}  // namespace perfbench
