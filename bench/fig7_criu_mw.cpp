// Figure 7: CRIU memory-write (MW) time per technique.
//
// Paper's findings: /proc fuses the pagemap walk into MW, so MW grows to
// seconds (up to 5.7s, tiny Large) and with memory size; SPML/EPML collect
// first and then write, so their MW is almost constant -- up to 26x better.
#include "criu_common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 7", "CRIU memory-write (MW) phase time per technique");

  TextTable t({"application", "/proc MW (ms)", "SPML MW (ms)", "EPML MW (ms)",
               "proc/EPML (x)"});
  for (const auto& [app, size] : bench::criu_apps()) {
    std::vector<double> mw;
    for (const lib::Technique tech :
         {lib::Technique::kProc, lib::Technique::kSpml, lib::Technique::kEpml}) {
      mw.push_back(bench::run_criu(app, size, args.scale, tech).phases.mw.count() / 1e3);
    }
    t.add_row(std::string(app), {mw[0], mw[1], mw[2], mw[0] / std::max(mw[2], 1e-9)}, 3);
  }
  t.print(std::cout);
  std::printf("\nShape check: /proc MW >> SPML/EPML MW on every application.\n");
  return 0;
}
