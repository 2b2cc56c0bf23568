// Fig. 9 — "N2 Mole Fraction for Mach 20 Air Flow in Chemical Equilibrium"
// (from Ref. 26, Green's upwind axisymmetric Navier-Stokes simulations).
//
// Mach-20 flow over a hemisphere at 20 km altitude, equilibrium air. The
// upwind (HLLE + MUSCL) scheme captures the bow shock; N2 partially
// dissociates in the shock layer. The paper's figure shows mole-fraction
// contours at levels 0.50-0.75 wrapped around the body.

#include <cmath>
#include <cstdio>
#include <vector>

#include "atmosphere/atmosphere.hpp"
#include "core/gas_model.hpp"
#include "gas/mixture.hpp"
#include "geometry/body.hpp"
#include "io/contour.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "solvers/euler/euler.hpp"

using namespace cat;

namespace {

/// Mole fraction of one species on every cell of an equilibrium-gas
/// solution (cell index = i * nj + j).
std::vector<double> species_mole_fraction_field(
    const solvers::EulerSolver& solver,
    const core::EquilibriumGasModel& gas_model, const gas::Mixture& mixture,
    std::size_t species_local_index) {
  const auto& g = solver.grid();
  std::vector<double> field(g.ni() * g.nj());
  std::vector<double> y(mixture.n_species());
  for (std::size_t i = 0; i < g.ni(); ++i) {
    for (std::size_t j = 0; j < g.nj(); ++j) {
      const auto& w = solver.primitive(i, j);
      gas_model.table().mass_fractions(w[0], w[3], y);
      field[i * g.nj() + j] = mixture.mole_fractions(y)[species_local_index];
    }
  }
  return field;
}

}  // namespace

int main() {
  const double radius = 0.1524;  // 6-inch hemisphere (ballistic-range scale)
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(20000.0);
  const double v = 20.0 * a.sound_speed;

  geometry::Sphere body(radius);
  auto grid = grid::make_normal_grid(
      body, body.total_arc_length(), 48, 48,
      [&](double s) {
        const double z = s / body.total_arc_length();
        return radius * (0.30 + 0.40 * z * z);
      },
      3.0);

  auto gas_model = core::make_equilibrium_air_model(a.density, a.temperature, v);
  solvers::FvOptions opt;
  opt.cfl = 0.4;
  opt.max_iter = 6000;
  opt.residual_tol = 1e-4;
  opt.viscous = true;
  opt.wall_temperature_K = 1500.0;
  solvers::EulerSolver solver(grid, gas_model, opt);
  solver.initialize({a.density, v, 0.0, a.pressure});
  std::printf("solving M=20 equilibrium-air NS over hemisphere (48x48)...\n");
  const std::size_t iters = solver.solve();
  std::printf("converged in %zu iterations, residual %.2e\n\n", iters,
              solver.residual());

  // N2 mole-fraction field.
  gas::Mixture mix(gas::make_air5());
  const std::size_t i_n2 = mix.set().local_index("N2");
  const auto field =
      species_mole_fraction_field(solver, *gas_model, mix, i_n2);

  std::vector<io::FieldPoint> pts;
  for (std::size_t i = 0; i < grid.ni(); ++i)
    for (std::size_t j = 0; j < grid.nj(); ++j)
      pts.push_back({grid.xc(i, j), grid.rc(i, j),
                     field[i * grid.nj() + j]});

  std::printf("N2 mole fraction (ASCII contours, bands 0.50 -> 0.80):\n%s\n",
              io::ascii_contour(pts, 72, 30, 0.50, 0.80).c_str());

  // Iso-contour crossings at the paper's levels along each i-line.
  const std::vector<double> levels = {0.50, 0.55, 0.60, 0.65, 0.70, 0.75};
  const auto contours = io::iso_contours(pts, grid.nj(), levels);
  io::Table table("Fig 9: N2 mole-fraction iso-contour points (x, r) [m]");
  table.set_columns({"level", "x_m", "r_m"});
  for (std::size_t lev = 0; lev < levels.size(); ++lev)
    for (const auto& p : contours[lev]) table.add_row({levels[lev], p.x, p.y});
  table.print();
  io::write_csv(table, "fig9_n2_contours.csv");

  // Stagnation-line summary: hottest cell on the stagnation ray (inside
  // the shock layer, outside the thermal boundary layer).
  std::size_t j_hot = 0;
  for (std::size_t j = 0; j < grid.nj(); ++j)
    if (solver.temperature(0, j) > solver.temperature(0, j_hot)) j_hot = j;
  std::printf(
      "\nshock layer on the stagnation ray: T_max = %.0f K, x_N2 = %.3f "
      "(paper levels span 0.50-0.75);\nwall heat flux at nose = %.1f W/cm^2\n",
      solver.temperature(0, j_hot), field[j_hot],
      solver.wall_heat_flux().front() / 1e4);
  return 0;
}
