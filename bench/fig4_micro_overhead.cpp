// Figure 4: slowdown factor of each tracking technique on the array-parser
// micro-benchmark as the monitored memory grows.
//
// Paper's shape: SPML worst at large sizes (up to 66x, reverse mapping);
// ufd worst below the ~250MB crossover (up to 15x); /proc up to ~4x; EPML
// negligible (max ~0.6%) at every size.
#include "common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_header("Figure 4", "Microbench slowdown (x) per technique vs memory size");

  const std::vector<u64> sizes = bench::memory_sweep(args.full);
  std::vector<std::string> header = {"technique"};
  for (const u64 s : sizes) header.push_back(bench::mem_label(s));
  TextTable t(header);

  std::vector<VirtDuration> ideals;
  for (const u64 mem : sizes) ideals.push_back(bench::micro_ideal(mem));
  for (const lib::Technique tech :
       {lib::Technique::kProc, lib::Technique::kUfd, lib::Technique::kSpml,
        lib::Technique::kEpml, lib::Technique::kOracle}) {
    std::vector<double> row;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const bench::MicroRun r = bench::run_micro(tech, sizes[i], ideals[i]);
      row.push_back(r.tracked_us / r.ideal_us);
    }
    t.add_row(std::string(lib::technique_name(tech)), row, 2);
  }
  t.print(std::cout);
  std::printf(
      "\nShape check: EPML ~1.0x everywhere; SPML grows fastest with memory;\n"
      "ufd worst below the crossover, SPML worst above it.\n");
  return 0;
}
