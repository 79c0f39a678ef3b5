// Figure 9: impact of CRIU checkpointing on the Tracked application's
// execution time per technique, against the untracked ideal.
//
// Paper's findings: /proc costs up to ~102% (pca); SPML from ~1% to ~114%;
// EPML never exceeds 14% with an average of ~3%.
#include "criu_common.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 9", "CRIU overhead (%) on Tracked per technique");

  TextTable t({"application", "/proc (%)", "SPML (%)", "EPML (%)"});
  double epml_max = 0.0, epml_sum = 0.0;
  int n = 0;
  for (const auto& [app, size] : bench::criu_apps()) {
    std::vector<double> row;
    const double ideal_us = bench::criu_ideal_us(app, size, args.scale);
    for (const lib::Technique tech :
         {lib::Technique::kProc, lib::Technique::kSpml, lib::Technique::kEpml}) {
      const criu::CheckpointResult r = bench::run_criu(app, size, args.scale, tech);
      const double oh = (r.run.tracked_time.count() - ideal_us) / ideal_us * 100.0;
      row.push_back(oh);
      if (tech == lib::Technique::kEpml) {
        epml_max = std::max(epml_max, oh);
        epml_sum += oh;
        ++n;
      }
    }
    t.add_row(std::string(app), row, 1);
  }
  t.print(std::cout);
  std::printf("\nEPML overhead: max %.1f%%, average %.1f%% (paper: max 14%%, avg 3%%).\n",
              epml_max, epml_sum / std::max(n, 1));
  return 0;
}
