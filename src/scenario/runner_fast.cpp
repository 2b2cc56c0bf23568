// Tier-0 bodies: the fidelity presets that bypass the solver-family
// dispatch. kCorrelation evaluates the engineering correlation family
// straight from the freestream (~us); kSurrogate answers from a
// registered precomputed table (~ns) with the stored error bar attached.
// Both fill the same CaseResult as the full hierarchy, so the CLI, the
// batch driver and cat_serve treat every tier uniformly.

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "scenario/runner_detail.hpp"
#include "scenario/surrogate.hpp"
#include "solvers/correlations/correlations.hpp"

namespace cat::scenario::detail {

namespace correlations_ns = cat::solvers::correlations;

namespace {

correlations_ns::CorrelationConditions correlation_conditions(
    const Case& c, const PlanetModel& planet) {
  const auto sc = stagnation_conditions(c, planet);
  correlations_ns::CorrelationConditions cc;
  cc.velocity_mps = sc.velocity;
  cc.rho_inf_kg_m3 = sc.rho_inf;
  cc.p_inf_Pa = sc.p_inf;
  cc.t_inf_K = sc.t_inf;
  cc.nose_radius_m = sc.nose_radius;
  cc.wall_temperature_K = sc.wall_temperature_K;
  cc.angle_of_attack_rad = c.angle_of_attack_rad;
  return cc;
}

}  // namespace

void run_correlation(const Case& c, const RunOptions&, CaseResult& r) {
  CAT_REQUIRE(c.condition.velocity_mps > 0.0,
              "Fidelity::kCorrelation needs a point flight condition "
              "(condition.velocity_mps > 0)");
  const auto planet = make_planet(c.planet);
  const auto cc = correlation_conditions(c, planet);
  const auto edge = correlations_ns::estimate_edge(cc);

  r.table.set_columns({"correlation_id", "q_w_W_m2"});

  double q_min = 0.0, q_max = 0.0, q_sum = 0.0;
  double q_all[correlations_ns::kAllCorrelations.size()] = {};
  for (std::size_t k = 0; k < correlations_ns::kAllCorrelations.size();
       ++k) {
    q_all[k] = correlations_ns::stagnation_heating(
        correlations_ns::kAllCorrelations[k], cc);
    r.table.add_row({static_cast<double>(k), q_all[k]});
    q_min = k == 0 ? q_all[k] : std::min(q_min, q_all[k]);
    q_max = k == 0 ? q_all[k] : std::max(q_max, q_all[k]);
    q_sum += q_all[k];
  }
  const double q_mean =
      q_sum / static_cast<double>(correlations_ns::kAllCorrelations.size());
  const double q_rad = correlations_ns::tauber_sutton_radiative(
      cc.rho_inf_kg_m3, cc.velocity_mps, cc.nose_radius_m);

  // Headline q_conv is the Fay-Riddell chain (the physics-based member);
  // the spread across the family is the tier's own accuracy bookkeeping.
  r.metrics = {{"q_conv", q_all[0], "W/m^2"},
               {"q_rad", q_rad, "W/m^2"},
               {"q_fay_riddell", q_all[0], "W/m^2"},
               {"q_kemp_riddell", q_all[1], "W/m^2"},
               {"q_lees", q_all[2], "W/m^2"},
               {"q_tauber", q_all[3], "W/m^2"},
               {"q_detra_kemp_riddell", q_all[4], "W/m^2"},
               {"correlation_spread",
                q_mean > 0.0 ? (q_max - q_min) / q_mean : 0.0, "-"},
               {"t_stag", edge.t_stag_K, "K"},
               {"p_stag", edge.p_stag_Pa, "Pa"}};
}

void run_surrogate(const Case& c, const RunOptions&, CaseResult& r) {
  CAT_REQUIRE(c.condition.velocity_mps > 0.0,
              "Fidelity::kSurrogate needs a point flight condition "
              "(condition.velocity_mps > 0)");
  const auto table = find_surrogate(c);
  if (table == nullptr)
    throw SolverError(
        "no registered surrogate table covers case '" + c.name +
        "': matching needs planet, gas, nose radius, wall temperature and "
        "domain coverage (build one with cat_tabulate and load it via "
        "cat_run --table, or register_surrogate())");
  const auto a =
      table->query(c.condition.velocity_mps, c.condition.altitude_m);

  r.table.set_columns({"v_mps", "alt_m", "q_conv_W_m2", "q_conv_err_W_m2"});
  r.table.add_row({c.condition.velocity_mps, c.condition.altitude_m,
                   a.q_conv_W_m2, a.q_conv_err_W_m2});
  r.metrics = {{"q_conv", a.q_conv_W_m2, "W/m^2"},
               {"q_conv_err", a.q_conv_err_W_m2, "W/m^2"},
               {"q_rad", a.q_rad_W_m2, "W/m^2"},
               {"q_rad_err", a.q_rad_err_W_m2, "W/m^2"},
               {"t_stag", a.t_stag_K, "K"},
               {"t_stag_err", a.t_stag_err_K, "K"},
               {"p_stag", a.p_stag_Pa, "Pa"},
               {"p_stag_err", a.p_stag_err_Pa, "Pa"}};
}

}  // namespace cat::scenario::detail
