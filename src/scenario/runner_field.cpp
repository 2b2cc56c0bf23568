#include <algorithm>
#include <cmath>

#include "chemistry/reaction.hpp"
#include "core/error.hpp"
#include "core/gas_model.hpp"
#include "geometry/body.hpp"
#include "grid/grid.hpp"
#include "io/contour.hpp"
#include "scenario/runner_detail.hpp"
#include "solvers/euler/euler.hpp"

/// Body of the shock-capturing finite-volume family: the Euler/Navier-Stokes
/// solver over a hemisphere built from the case vehicle (Fig. 4 shock
/// shapes inviscid, Fig. 9 viscous heating).

namespace cat::scenario::detail {
namespace {

struct FieldPreset {
  std::size_t ni, nj, max_iter, table_n;
  double residual_tol;
};

FieldPreset field_preset(Fidelity f) {
  if (f == Fidelity::kSmoke) return {24, 24, 2600, 32, 1e-4};
  return {40, 40, 6000, 48, 1e-5};
}

}  // namespace

void run_finite_volume_field(const Case& c, const RunOptions&,
                             CaseResult& r) {
  const auto planet = make_planet(c.planet);
  const auto sc = stagnation_conditions(c, planet);
  const FieldPreset preset = field_preset(c.fidelity);

  const double radius = c.vehicle.nose_radius;
  CAT_REQUIRE(radius > 0.0, "field case needs a positive nose radius");
  geometry::Sphere body(radius);
  auto grid = grid::make_normal_grid(
      body, body.total_arc_length(), preset.ni, preset.nj,
      [&](double s) {
        const double z = s / body.total_arc_length();
        return radius * (0.30 + 0.40 * z * z);
      },
      1.5);

  std::shared_ptr<const core::GasModel> gas_model;
  if (c.gas == GasModelKind::kIdealGamma) {
    gas_model = std::make_shared<core::IdealGasModel>(
        gas::IdealGas(c.ideal_gamma, 287.053));
  } else {
    CAT_REQUIRE(c.planet == Planet::kEarth,
                "equilibrium FV field cases are air-only (the tabulated "
                "EOS is built for air)");
    gas_model = core::make_equilibrium_air_model(
        sc.rho_inf, sc.t_inf, sc.velocity, preset.table_n);
  }

  solvers::FvOptions opt;
  opt.cfl = 0.4;
  opt.max_iter = preset.max_iter;
  opt.residual_tol = preset.residual_tol;
  opt.viscous = c.viscous;
  opt.wall_temperature_K = c.wall_temperature_K;
  std::size_t i_n2 = 0, i_o = 0;  // species metric indices (finite_rate)
  if (c.finite_rate) {
    CAT_REQUIRE(c.planet == Planet::kEarth,
                "finite-rate FV cases use the Park air mechanisms");
    auto mech = std::make_shared<chemistry::Mechanism>(make_mechanism(c.gas));
    // Cold-air freestream composition on the mechanism's species list.
    std::vector<double> y0(mech->n_species(), 0.0);
    i_n2 = mech->species_set().local_index("N2");
    i_o = mech->species_set().local_index("O");
    y0[i_n2] = 0.767;
    y0[mech->species_set().local_index("O2")] = 0.233;
    opt.mechanism = std::move(mech);
    opt.species_y0 = std::move(y0);
  }
  solvers::EulerSolver solver(grid, gas_model, opt);

  solver.initialize({sc.rho_inf, sc.velocity, 0.0, sc.p_inf});
  const std::size_t iters = solver.solve();

  r.table.set_columns({"x_m", "r_m", "T_K", "mach"});
  double t_max = 0.0;
  std::vector<io::FieldPoint> pts;
  for (std::size_t i = 0; i < grid.ni(); ++i) {
    for (std::size_t j = 0; j < grid.nj(); ++j) {
      const double t_cell = solver.temperature(i, j);
      r.table.add_row({grid.xc(i, j), grid.rc(i, j), t_cell,
                       solver.mach(i, j)});
      pts.push_back({grid.xc(i, j), grid.rc(i, j), t_cell});
      t_max = std::max(t_max, t_cell);
    }
  }
  r.rendering = io::ascii_contour(pts, 70, 24, sc.t_inf, 0.95 * t_max);

  const double standoff = -solver.shock_locations().front().x / radius;
  r.metrics = {{"t_stag", solver.temperature(0, 1), "K"},
               {"t_max", t_max, "K"},
               {"shock_standoff_over_r", standoff, "-"},
               {"iterations", static_cast<double>(iters), "-"},
               {"residual", solver.residual(), "-"}};
  if (c.viscous) {
    r.metrics.push_back(
        {"nose_q_w", solver.wall_heat_flux().front(), "W/m^2"});
  }
  if (c.finite_rate) {
    // Dissociation headline numbers: N2 depletion and peak atomic
    // oxygen in the shock layer.
    double y_n2_min = 1.0, y_o_max = 0.0;
    for (std::size_t i = 0; i < grid.ni(); ++i) {
      for (std::size_t j = 0; j < grid.nj(); ++j) {
        y_n2_min =
            std::min(y_n2_min, solver.species_mass_fraction(i_n2, i, j));
        y_o_max = std::max(y_o_max, solver.species_mass_fraction(i_o, i, j));
      }
    }
    r.metrics.push_back({"y_n2_min", y_n2_min, "-"});
    r.metrics.push_back({"y_o_max", y_o_max, "-"});
  }
}

}  // namespace cat::scenario::detail
