// Quickstart: drive CAT through the scenario engine in ~40 lines.
//  1. Pick a named scenario from the registry (or build a Case by hand).
//  2. run_case() executes it through its solver family's dispatch.
//  3. Read the results: a table of the primary series + headline metrics.
//
// Build & run:  ./build/examples/example_quickstart

#include <cstdio>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace cat;

int main() {
  // --- 1. the catalog -----------------------------------------------------
  std::printf("scenario catalog (%zu entries):\n",
              scenario::registry().size());
  for (const auto& c : scenario::registry())
    std::printf("  %-28s [%s]\n", c.name.c_str(),
                scenario::to_string(c.family));

  // --- 2. a custom case: AOTV stagnation point at 9 km/s, 75 km ----------
  scenario::Case c;
  c.name = "aotv_stagnation_point";
  c.title = "AOTV aerobraking return from GEO: stagnation heating";
  c.family = scenario::SolverFamily::kStagnationPoint;
  c.gas = scenario::GasModelKind::kAir9;
  c.vehicle = trajectory::aotv();
  c.condition = {9000.0, 75000.0};
  c.wall_temperature_K = 1600.0;

  const auto r = scenario::run_case(c);

  // --- 3. results ---------------------------------------------------------
  std::printf(
      "\nAOTV at 9 km/s, 75 km: post-shock stagnation T = %.0f K,\n"
      "density ratio %.3f, shock standoff = %.1f cm, "
      "p_stag = %.2f kPa,\n"
      "q_conv = %.1f W/cm^2, q_rad = %.2f W/cm^2\n",
      r.metric("t_stag"), r.metric("density_ratio"),
      r.metric("standoff") * 100.0, r.metric("p_stag") / 1000.0,
      r.metric("q_conv") / 1e4, r.metric("q_rad") / 1e4);
  std::printf("\nfirst rows of the shock-layer profile table:\n");
  std::printf("%s\n", r.table.str().substr(0, 600).c_str());
  return 0;
}
