#include <algorithm>
#include <cmath>

#include "chemistry/reaction.hpp"
#include "core/error.hpp"
#include "gas/constants.hpp"
#include "radiation/spectra.hpp"
#include "scenario/runner_detail.hpp"
#include "solvers/relax1d/relax1d.hpp"

/// Body of the shock-tube family: two-temperature post-shock relaxation
/// (paper Fig. 7) plus the peak-Tv nonequilibrium emission diagnostic
/// (Fig. 8).

namespace cat::scenario::detail {

void run_shock_tube(const Case& c, const RunOptions&, CaseResult& r) {
  CAT_REQUIRE(c.condition.pressure_Pa >= 0.0 &&
                  c.condition.temperature_K >= 0.0,
              "shock-tube cases define the upstream state explicitly "
              "(condition.pressure_Pa/temperature_K)");
  const auto mech = make_mechanism(c.gas);
  solvers::Relax1dOptions opt;
  if (c.fidelity == Fidelity::kSmoke) {
    opt.x_max_m = 0.05;
    opt.n_samples = 48;
  } else {
    opt.x_max_m = 0.10;
    opt.n_samples = 200;
  }
  const solvers::PostShockRelaxation solver(mech, opt);

  const solvers::ShockTubeFreestream fs{c.condition.pressure_Pa,
                                       c.condition.temperature_K,
                                       c.condition.velocity_mps};
  std::vector<double> y1(mech.n_species(), 0.0);
  y1[mech.species_set().local_index("N2")] = 0.767;
  y1[mech.species_set().local_index("O2")] = 0.233;
  const auto prof = solver.solve(fs, y1);

  const auto& set = mech.species_set();
  const std::size_t i_n2 = set.local_index("N2");
  const std::size_t i_n = set.local_index("N");
  const std::size_t i_o = set.local_index("O");

  r.table.set_columns({"x_m", "T_K", "Tv_K", "y_N2", "y_N", "y_O"});
  std::size_t k_pk = 0;
  for (std::size_t k = 0; k < prof.size(); ++k) {
    r.table.add_row({prof.x[k], prof.t[k], prof.tv[k], prof.y[i_n2][k],
                     prof.y[i_n][k], prof.y[i_o][k]});
    if (prof.tv[k] > prof.tv[k_pk]) k_pk = k;
  }

  // Fig. 8 diagnostic: volumetric emission of the radiating (peak-Tv)
  // zone through the band model.
  radiation::SpectralGrid grid(0.2e-6, 1.0e-6,
                               c.fidelity == Fidelity::kSmoke ? 96 : 160);
  const radiation::RadiationModel model(set);
  std::vector<double> nd(mech.n_species());
  for (std::size_t s = 0; s < mech.n_species(); ++s)
    nd[s] = prof.rho[k_pk] * prof.y[s][k_pk] /
            set.species(s).molar_mass * gas::constants::kAvogadro;
  const double emission =
      model.total_emission(nd, prof.t[k_pk], prof.tv[k_pk], grid);

  r.metrics = {{"t_post_shock", prof.t.front(), "K"},
               {"t_final", prof.t.back(), "K"},
               {"tv_peak", prof.tv[k_pk], "K"},
               {"x_tv_peak", prof.x[k_pk], "m"},
               {"y_n2_final", prof.y[i_n2].back(), "-"},
               {"peak_emission", emission, "W/m^3"},
               {"n_samples", static_cast<double>(prof.size()), "-"}};
}

}  // namespace cat::scenario::detail
