// One-shot golden-value capture: prints mass_production_rates and reactor
// advance results from the current implementation with full precision, for
// embedding in tests/test_chemistry_golden.cpp, plus the heating-pulse
// reference run for tests/test_scenario.cpp (the batch-driver golden).
#include <cmath>
#include <cstdio>

#include "chemistry/reaction.hpp"
#include "chemistry/source.hpp"
#include "gas/constants.hpp"
#include "scenario/pulse.hpp"

using namespace cat;

namespace {

void dump_rates(const char* name, chemistry::Mechanism (*factory)()) {
  const auto mech = factory();
  const std::size_t ns = mech.n_species();
  struct Point { double rho, t, tv; };
  const Point pts[] = {{0.02, 8000.0, 6000.0},
                       {0.05, 4000.0, 4000.0},
                       {0.005, 12000.0, 9000.0},
                       {0.1, 6000.0, 6000.0}};
  std::vector<double> y(ns, 0.0);
  y[mech.species_set().local_index("N2")] = 0.60;
  y[mech.species_set().local_index("O2")] = 0.10;
  y[mech.species_set().local_index("N")] = 0.15;
  y[mech.species_set().local_index("O")] = 0.14;
  y[mech.species_set().local_index("NO")] = 0.01;
  std::vector<double> wdot(ns);
  chemistry::Workspace ws;
  for (const auto& p : pts) {
    mech.mass_production_rates(p.rho, y, p.t, p.tv, wdot, ws);
    std::printf("{\"%s\", %g, %g, %g, {", name, p.rho, p.t, p.tv);
    for (std::size_t s = 0; s < ns; ++s)
      std::printf("%.17g%s", wdot[s], s + 1 < ns ? ", " : "");
    std::printf("}},\n");
  }
  // chemistry_vibronic_source at the first point.
  std::vector<double> c(ns);
  for (std::size_t s = 0; s < ns; ++s)
    c[s] = pts[0].rho * y[s] / mech.species_set().species(s).molar_mass;
  std::printf("// %s vibronic source: %.17g\n", name,
              mech.chemistry_vibronic_source(c, pts[0].t, pts[0].tv, ws));
}

// Reference heating pulse for the scenario/batch-driver golden test: the
// Titan Fig. 2 pulse at reduced resolution (the exact configuration of
// test_scenario.cpp's GoldenTitanPulse — keep the two in sync).
void dump_pulse_golden() {
  gas::EquilibriumSolver eq(gas::make_titan(),
                            {{"N2", 0.95}, {"CH4", 0.05}});
  solvers::StagnationOptions sopt;
  sopt.n_table = 24;
  sopt.n_spectral = 64;
  sopt.n_slab = 24;
  const solvers::StagnationLineSolver stag(eq, sopt);
  atmosphere::TitanAtmosphere atmo;
  const auto probe = trajectory::titan_probe();
  trajectory::TrajectoryOptions topt;
  topt.dt_sample_s = 4.0;
  topt.end_velocity_mps = 3000.0;
  const auto traj = trajectory::integrate_entry(
      probe, {12000.0, -24.0 * M_PI / 180.0, 600000.0}, atmo,
      gas::constants::kTitanRadius, gas::constants::kTitanG0, topt);
  scenario::PulseOptions popt;
  popt.max_points = 8;
  popt.wall_temperature_K = 1800.0;
  const auto pulse = scenario::heating_pulse(traj, probe, stag, popt);
  std::printf("// golden Titan pulse: traj %zu samples; %zu points "
              "(%zu solved, %zu fm, %zu skipped)\n",
              traj.size(), pulse.points.size(), pulse.n_solved,
              pulse.n_free_molecular, pulse.n_skipped);
  std::printf("// {time, velocity, altitude, q_conv, q_rad}\n");
  for (const auto& p : pulse.points)
    std::printf("{%.17g, %.17g, %.17g, %.17g, %.17g},\n", p.time,
                p.velocity, p.altitude, p.q_conv, p.q_rad);
  std::printf("// heat_load = %.17g\n", pulse.heat_load());
}

}  // namespace

int main() {
  dump_pulse_golden();
  dump_rates("air5", chemistry::park_air5);
  dump_rates("air9", chemistry::park_air9);
  dump_rates("air11", chemistry::park_air11);

  {
    const auto mech = chemistry::park_air5();
    const chemistry::IsochoricReactor reactor(mech);
    chemistry::IsochoricReactor::State s;
    s.y.assign(mech.n_species(), 0.0);
    s.y[mech.species_set().local_index("N2")] = 0.767;
    s.y[mech.species_set().local_index("O2")] = 0.233;
    s.t = 6500.0;
    reactor.advance_coupled(s, 0.05, 2e-5);
    std::printf("// isochoric air5 advance_coupled(rho=0.05, dt=2e-5):\n");
    std::printf("// t = %.17g; y = {", s.t);
    for (double v : s.y) std::printf("%.17g, ", v);
    std::printf("}\n");
  }
  {
    const auto mech = chemistry::park_air5();
    const chemistry::TwoTemperatureReactor reactor(mech);
    chemistry::TwoTemperatureReactor::State s;
    s.y.assign(mech.n_species(), 0.0);
    s.y[mech.species_set().local_index("N2")] = 0.767;
    s.y[mech.species_set().local_index("O2")] = 0.233;
    s.t = 9000.0;
    s.tv = 3000.0;
    reactor.advance(s, 0.02, 1e-5);
    std::printf("// twotemp air5 advance(rho=0.02, dt=1e-5):\n");
    std::printf("// t = %.17g; tv = %.17g; y = {", s.t, s.tv);
    for (double v : s.y) std::printf("%.17g, ", v);
    std::printf("}\n");
  }
  return 0;
}
