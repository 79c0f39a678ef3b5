// Workload `gc`: a seeded GCBench-shaped mutator over gc::GcHeap, with the
// benchmark itself calling GcHeap::collect() after every fixed allocation
// budget. Per cell (fig. 5 technique): set-up builds the bed and the heap,
// prefaults the heap and prepares the tracker; the timed section builds a
// long-lived tree and array, then runs kCycles of
//     churn: kChurnTrees short-lived trees of kChurnTreeNodes nodes each
//            (top-down and bottom-up, as GCBench), the last one rooted in
//            a rotating survivor slot whose previous tree is unrooted;
//            kDataWrites payload stores into long-lived nodes -> collect()
// The seed shapes every tree (the split of each subtree's nodes between its
// two children) and picks the written nodes; node and write counts are
// fixed, so the amount of work is the same for every seed.
#include <string>

#include "trackers/boehmgc/gc.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ooh::Gva;
using ooh::lib::Technique;

constexpr u64 kLongLivedNodes = 1 << 16;
constexpr u64 kArrayWords = 1 << 16;
constexpr u64 kChurnTrees = 32;
constexpr u64 kChurnTreeNodes = 1024;
constexpr unsigned kSurvivorSlots = 8;
constexpr u64 kDataWrites = 2048;
constexpr int kCycles = 8;
constexpr u64 kHeapBytes = 32 * ooh::kMiB;
/// Above any cycle's allocation volume: only the benchmark triggers cycles.
constexpr u64 kNoAutoCollect = u64{1} << 62;

constexpr Technique kTechs[] = {Technique::kProc, Technique::kSpml, Technique::kEpml};
/// Cells per technique, each with its own object graphs: enough cells to
/// keep every pool worker busy.
constexpr u64 kReplicas = 4;

class Mutator {
 public:
  Mutator(ooh::gc::GcHeap& heap, ooh::Rng& rng) : heap_(heap), rng_(rng) {}

  /// A tree of exactly `n` nodes (2 refs, 16 payload bytes each) whose shape
  /// the seed decides. Top-down allocates the parent first, bottom-up the
  /// children first; local roots keep half-built trees alive.
  Gva tree(u64 n, bool top_down, std::vector<Gva>* nodes = nullptr) {
    if (n == 0) return 0;
    const u64 left = rng_.below(n);
    const u64 right = n - 1 - left;
    if (top_down) {
      const Gva node = alloc_node(nodes);
      ooh::gc::GcHeap::Local keep(heap_, node);
      heap_.write_ref(node, 0, tree(left, true, nodes));
      heap_.write_ref(node, 1, tree(right, true, nodes));
      return node;
    }
    const Gva l = tree(left, false, nodes);
    ooh::gc::GcHeap::Local keep_l(heap_, l);
    const Gva r = tree(right, false, nodes);
    ooh::gc::GcHeap::Local keep_r(heap_, r);
    const Gva node = alloc_node(nodes);
    heap_.write_ref(node, 0, l);
    heap_.write_ref(node, 1, r);
    return node;
  }

 private:
  Gva alloc_node(std::vector<Gva>* nodes) {
    const Gva node = heap_.alloc(2, 16);
    if (nodes != nullptr) nodes->push_back(node);
    return node;
  }

  ooh::gc::GcHeap& heap_;
  ooh::Rng& rng_;
};

void run_cell(Cell& cell, Technique tech, u64 replica, u64 seed) {
  const std::string tname = slug(tech);
  cell.set_name(tname + "/" + std::to_string(replica));
  Tracer& tr = cell.tracer();
  std::unique_ptr<ooh::lib::TestBed> bed;
  std::unique_ptr<ooh::gc::GcHeap> heap;

  cell.setup([&] {
    {
      auto s = tr.span("ooh.testbed.build");
      bed = std::make_unique<ooh::lib::TestBed>(bed_options(kHeapBytes));
    }
    ooh::guest::GuestKernel& k = bed->kernel();
    ooh::guest::Process& proc = k.create_process();
    heap = std::make_unique<ooh::gc::GcHeap>(k, proc, kHeapBytes, kNoAutoCollect);
    heap->set_technique(tech);
    const ooh::guest::Vma& vma = proc.vmas().back();  // the heap's mapping
    proc.touch_range_write(vma.start, vma.bytes());
    auto s = tr.span("ooh.tracker.init." + tname);
    heap->prepare_tracker();
  });

  ooh::guest::GuestKernel& k = bed->kernel();
  ooh::guest::Process& proc = heap->process();
  ooh::Rng rng(seed ^ (static_cast<u64>(tech) * 0xD1B54A32D192ED03ULL) ^
               (replica * 0x9E3779B97F4A7C15ULL));
  Mutator mut(*heap, rng);
  std::vector<Gva> long_lived;
  long_lived.reserve(kLongLivedNodes);
  std::vector<u64> live_after;  // live_objects() after each cycle
  std::vector<u64> expected_live;
  std::vector<Gva> survivors(kSurvivorSlots, 0);
  u64 survivors_live = 0;
  unsigned collects = 0;
  const ooh::EventCounters before = bed_counters(*bed);

  cell.timed([&] {
    k.scheduler().enter_process(proc.pid());
    {
      auto s = tr.span("trackers.gc.mutator");
      const Gva root = mut.tree(kLongLivedNodes, true, &long_lived);
      heap->add_root(root);
      const Gva array = heap->alloc(0, kArrayWords * 8);
      heap->add_root(array);
      for (u64 i = 0; i < kArrayWords; i += 8) heap->write_data(array, i * 8, i);
    }
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      {
        auto s = tr.span("trackers.gc.mutator");
        Gva last = 0;
        for (u64 t = 0; t < kChurnTrees; ++t) {
          last = mut.tree(kChurnTreeNodes, t % 2 == 0);
        }
        Gva& slot = survivors[static_cast<unsigned>(cycle) % kSurvivorSlots];
        if (slot != 0) {
          heap->remove_root(slot);
          survivors_live -= kChurnTreeNodes;
        }
        heap->add_root(last);
        slot = last;
        survivors_live += kChurnTreeNodes;
        for (u64 w = 0; w < kDataWrites; ++w) {
          heap->write_data(long_lived[rng.below(long_lived.size())], 0, w);
        }
      }
      auto s = tr.span("trackers.gc.collect." + tname);
      (void)heap->collect();
      ++collects;
      live_after.push_back(heap->live_objects());
      expected_live.push_back(kLongLivedNodes + 1 + survivors_live);
    }
    k.scheduler().exit_process(proc.pid());
  });
  cell.add_events(bed_counters(*bed).diff(before));

  // Output checks: the collector ran exactly the cycles the benchmark asked
  // for, and after each one the live set is exactly what the mutator can
  // still reach (long-lived tree + array + rooted survivor trees).
  const ooh::gc::GcStats& st = heap->stats();
  cell.check(st.cycle_count() == collects,
             "GC ran " + std::to_string(st.cycle_count()) + " cycles, benchmark called " +
                 std::to_string(collects));
  for (std::size_t i = 0; i < live_after.size(); ++i) {
    cell.check(live_after[i] == expected_live[i],
               "cycle " + std::to_string(i + 1) + ": " + std::to_string(live_after[i]) +
                   " live objects, mutator reaches " + std::to_string(expected_live[i]));
  }
  u64 rescanned = 0, freed = 0;
  for (const ooh::gc::GcCycleStats& c : st.cycles) {
    rescanned += c.pages_rescanned;
    freed += c.objects_freed;
  }
  cell.add("trackers.gc.cycles", st.cycle_count());
  cell.add("trackers.gc.pages_rescanned", static_cast<double>(rescanned));
  cell.add("trackers.gc.objects_freed", static_cast<double>(freed));
  heap.reset();  // shuts the tracker down
  cell.set_digest(bed_digest(*bed));
}

}  // namespace

const Workload kGcWorkload = {
    "gc", kReplicas * std::size(kTechs), true,
    [](std::size_t i, Cell& cell, const Options& opt) {
      run_cell(cell, kTechs[i % std::size(kTechs)], i / std::size(kTechs), opt.seed);
    }};

}  // namespace perfbench
