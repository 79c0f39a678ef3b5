// Table I: overhead (%) of ufd- and /proc-based dirty page tracking on
// Tracked and on Tracker, as the monitored memory grows from 1MB to 1GB.
//
// Paper's finding: both overheads grow with memory; ufd reaches ~15x (1463%)
// on Tracked and ~14x (1349%) on Tracker at 1GB; /proc reaches ~4x (335%) on
// Tracked and ~2x (147%) on Tracker.
#include "base/stats.hpp"
#include "common.hpp"

using namespace ooh;
using bench::mem_label;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_header("Table I", "Overhead (%) of ufd and /proc tracking vs memory size");

  const std::vector<u64> sizes = bench::memory_sweep(args.full);
  std::vector<std::string> header = {"On Tracked"};
  for (const u64 s : sizes) header.push_back(mem_label(s));

  TextTable tracked(header);
  header[0] = "On Tracker";
  TextTable tracker(header);

  std::vector<VirtDuration> ideals;
  for (const u64 mem : sizes) ideals.push_back(bench::micro_ideal(mem));
  for (const lib::Technique tech : {lib::Technique::kUfd, lib::Technique::kProc}) {
    std::vector<double> tked_row, tker_row;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const bench::MicroRun r = bench::run_micro(tech, sizes[i], ideals[i]);
      tked_row.push_back(overhead_pct(r.tracked_us, r.ideal_us));
      tker_row.push_back(r.tracker_us / r.ideal_us * 100.0);
    }
    const std::string name{lib::technique_name(tech)};
    tracked.add_row(name, tked_row, 0);
    tracker.add_row(name, tker_row, 0);
  }
  tracked.print(std::cout);
  std::printf("\n");
  tracker.print(std::cout);
  std::printf("\nShape check: both overheads grow with memory; ufd >> /proc.\n");
  return 0;
}
