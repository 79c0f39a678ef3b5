// Figure 8: complete CRIU checkpoint time per technique, highlighting the
// MD (memory-dump / address-collection) phase -- where SPML pays its
// reverse mapping.
//
// Paper's findings: SPML checkpoints up to 5x slower than /proc (reverse
// mapping is >66% of its MD); EPML is up to 4x faster than /proc and up to
// 13x faster than SPML.
#include <algorithm>

#include "criu_common.hpp"
#include "ooh/epoch_run.hpp"

using namespace ooh;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, /*default_scale=*/128);
  bench::print_header("Figure 8", "CRIU checkpoint time (MD + MW) per technique");

  TextTable t({"application + technique", "MD (ms)", "MW (ms)", "total (ms)"});
  struct Summary {
    double proc = 0, spml = 0, epml = 0;
    bool tkrzw = false;
  };
  double worst_spml_over_proc = 0, best_proc_over_epml = 0, best_spml_over_epml = 0;

  // Every (app, technique) checkpoint is a self-contained cell (run_criu
  // builds its own beds): fan the grid across the epoch pool and fold the
  // summaries serially in submission order (EPOCH-1: output byte-identical
  // to the old nested loop at any worker count).
  const auto apps = bench::criu_apps();
  constexpr lib::Technique kTechs[] = {lib::Technique::kProc, lib::Technique::kSpml,
                                       lib::Technique::kEpml};
  const auto results = lib::run_cells<criu::CheckpointResult>(
      apps.size() * 3,
      [&](std::size_t i) {
        const auto& [app, size] = apps[i / 3];
        return bench::run_criu(app, size, args.scale, kTechs[i % 3]);
      },
      args.threads);

  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& [app, size] = apps[a];
    Summary s;
    s.tkrzw = std::find(wl::tkrzw_apps().begin(), wl::tkrzw_apps().end(), app) !=
              wl::tkrzw_apps().end();
    for (std::size_t ti = 0; ti < 3; ++ti) {
      const lib::Technique tech = kTechs[ti];
      const criu::CheckpointResult& r = results[a * 3 + ti];
      const double md = r.phases.md.count() / 1e3;
      const double mw = r.phases.mw.count() / 1e3;
      const double total = r.phases.checkpoint_total().count() / 1e3;
      t.add_row(std::string(app) + " " + std::string(lib::technique_name(tech)),
                {md, mw, total}, 3);
      if (tech == lib::Technique::kProc) s.proc = total;
      if (tech == lib::Technique::kSpml) s.spml = total;
      if (tech == lib::Technique::kEpml) s.epml = total;
    }
    worst_spml_over_proc = std::max(worst_spml_over_proc, s.spml / s.proc);
    if (s.tkrzw) {
      // Paper quotes the speedups on the write-heavy tkrzw engines (tiny,
      // baby); read-heavy Phoenix apps have near-empty dirty sets and would
      // make the ratio unboundedly flattering for EPML.
      best_proc_over_epml = std::max(best_proc_over_epml, s.proc / s.epml);
      best_spml_over_epml = std::max(best_spml_over_epml, s.spml / s.epml);
    }
  }
  t.print(std::cout);
  std::printf("\nSpeedup summary (paper: SPML up to 5x slower than /proc; EPML up to\n"
              "4x faster than /proc and up to 13x faster than SPML):\n");
  std::printf("  SPML slowdown vs /proc : up to %.1fx\n", worst_spml_over_proc);
  std::printf("  EPML speedup vs /proc  : up to %.1fx\n", best_proc_over_epml);
  std::printf("  EPML speedup vs SPML   : up to %.1fx\n", best_spml_over_epml);
  return 0;
}
