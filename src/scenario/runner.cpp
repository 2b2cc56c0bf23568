#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "scenario/pulse.hpp"
#include "scenario/runner_detail.hpp"
#include "solvers/stagnation/stagnation.hpp"

namespace cat::scenario {

double CaseResult::metric(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return m.value;
  throw std::invalid_argument("CaseResult: no metric named '" + name +
                              "' in case '" + case_name + "'");
}

PlanetModel make_planet(Planet planet) {
  PlanetModel m;
  switch (planet) {
    case Planet::kEarth:
      m.atmosphere = std::make_unique<atmosphere::EarthAtmosphere>();
      m.radius = gas::constants::kEarthRadius;
      m.g0 = gas::constants::kEarthG0;
      break;
    case Planet::kTitan:
      m.atmosphere = std::make_unique<atmosphere::TitanAtmosphere>();
      m.radius = gas::constants::kTitanRadius;
      m.g0 = gas::constants::kTitanG0;
      break;
  }
  return m;
}

gas::EquilibriumSolver make_equilibrium(GasModelKind kind, Planet planet) {
  (void)planet;  // composition follows the gas kind; planet kept for
                 // future per-planet abundance variants
  const std::vector<std::pair<std::string, double>> cold_air = {
      {"N2", 0.79}, {"O2", 0.21}};
  const std::vector<std::pair<std::string, double>> cold_titan = {
      {"N2", atmosphere::TitanAtmosphere::kMoleFractionN2},
      {"CH4", atmosphere::TitanAtmosphere::kMoleFractionCH4}};
  switch (kind) {
    case GasModelKind::kAir5:
      return {gas::make_air5(), cold_air};
    case GasModelKind::kAir9:
      return {gas::make_air9(), cold_air};
    case GasModelKind::kAir11:
      return {gas::make_air11(), cold_air};
    case GasModelKind::kTitan:
      return {gas::make_titan(), cold_titan};
    case GasModelKind::kIdealGamma:
      break;
  }
  throw std::invalid_argument(
      "make_equilibrium: kIdealGamma has no equilibrium solver");
}

const char* to_string(SolverFamily family) {
  switch (family) {
    case SolverFamily::kTrajectoryDomain: return "trajectory-domain";
    case SolverFamily::kStagnationPulse: return "stagnation-pulse";
    case SolverFamily::kStagnationPoint: return "stagnation-point";
    case SolverFamily::kEulerBoundaryLayer: return "euler+bl";
    case SolverFamily::kVslMarch: return "vsl-march";
    case SolverFamily::kPnsMarch: return "pns-march";
    case SolverFamily::kFiniteVolumeField: return "finite-volume-field";
    case SolverFamily::kShockTubeRelaxation: return "shock-tube-relax1d";
  }
  return "unknown";
}

const char* to_string(Planet planet) {
  return planet == Planet::kEarth ? "Earth" : "Titan";
}

const char* to_string(GasModelKind kind) {
  switch (kind) {
    case GasModelKind::kAir5: return "air5";
    case GasModelKind::kAir9: return "air9";
    case GasModelKind::kAir11: return "air11";
    case GasModelKind::kTitan: return "titan";
    case GasModelKind::kIdealGamma: return "ideal-gamma";
  }
  return "unknown";
}

const char* to_string(Fidelity fidelity) {
  switch (fidelity) {
    case Fidelity::kSmoke: return "smoke";
    case Fidelity::kNominal: return "nominal";
    case Fidelity::kCorrelation: return "correlation";
    case Fidelity::kSurrogate: return "surrogate";
  }
  return "unknown";
}

bool parse_fidelity(std::string_view name, Fidelity* out) {
  for (const Fidelity f : {Fidelity::kSmoke, Fidelity::kNominal,
                           Fidelity::kCorrelation, Fidelity::kSurrogate}) {
    if (name == to_string(f)) {
      *out = f;
      return true;
    }
  }
  return false;
}

namespace detail {

std::vector<trajectory::TrajectoryPoint> integrate_case_trajectory(
    const Case& c, const PlanetModel& planet) {
  return trajectory::integrate_entry(c.vehicle, c.entry, *planet.atmosphere,
                                     planet.radius, planet.g0, c.traj_opt);
}

solvers::StagnationConditions stagnation_conditions(
    const Case& c, const PlanetModel& planet) {
  solvers::StagnationConditions sc;
  sc.velocity = c.condition.velocity_mps;
  sc.nose_radius = c.vehicle.nose_radius;
  sc.wall_temperature_K = c.wall_temperature_K;
  if (c.condition.pressure_Pa >= 0.0 && c.condition.temperature_K >= 0.0) {
    sc.p_inf = c.condition.pressure_Pa;
    sc.t_inf = c.condition.temperature_K;
    // Density from the cold perfect-gas law of the planet's base gas; for
    // explicit overrides the caller usually also has rho, but the pair
    // (p, T) defines it through the cold composition.
    const auto a = planet.atmosphere->at(c.condition.altitude_m);
    sc.rho_inf = a.density * (sc.p_inf / std::max(a.pressure, 1e-300)) *
                 (a.temperature / std::max(sc.t_inf, 1e-300));
  } else {
    const auto a = planet.atmosphere->at(c.condition.altitude_m);
    sc.rho_inf = a.density;
    sc.p_inf = a.pressure;
    sc.t_inf = a.temperature;
  }
  return sc;
}

solvers::StagnationOptions stagnation_options(const Case& c) {
  solvers::StagnationOptions sopt;
  if (c.fidelity == Fidelity::kSmoke) {
    sopt.n_table = 24;
    sopt.n_spectral = 64;
    sopt.n_slab = 24;
  } else {
    sopt.n_table = 40;
    sopt.n_spectral = 128;
  }
  return sopt;
}

// ---------------------------------------------------------------------------
// Trajectory / flight domain (Fig. 1).
// ---------------------------------------------------------------------------
void run_trajectory_domain(const Case& c, const RunOptions&, CaseResult& r) {
  const auto planet = make_planet(c.planet);
  const auto traj = integrate_case_trajectory(c, planet);
  CAT_REQUIRE(!traj.empty(), "trajectory integration produced no samples");

  r.table.set_columns({"time_s", "alt_km", "v_kms", "mach", "reynolds",
                       "q_dyn_kPa"});
  double max_mach = 0.0, max_re = 0.0, peak_qdyn = 0.0, min_alt = 1e30;
  for (const auto& p : traj) {
    r.table.add_row({p.time, p.altitude / 1000.0, p.velocity / 1000.0,
                     p.mach, p.reynolds, p.q_dyn / 1000.0});
    max_mach = std::max(max_mach, p.mach);
    max_re = std::max(max_re, p.reynolds);
    peak_qdyn = std::max(peak_qdyn, p.q_dyn);
    min_alt = std::min(min_alt, p.altitude);
  }
  r.metrics = {{"duration", traj.back().time, "s"},
               {"max_mach", max_mach, "-"},
               {"max_reynolds", max_re, "-"},
               {"peak_q_dyn", peak_qdyn, "Pa"},
               {"min_altitude", min_alt, "m"},
               {"final_velocity", traj.back().velocity, "m/s"}};
}

// ---------------------------------------------------------------------------
// Stagnation heating pulse (Fig. 2): trajectory x stagnation line,
// parallelized over pulse points by the batch pulse driver.
// ---------------------------------------------------------------------------
void run_stagnation_pulse(const Case& c, const RunOptions& opt,
                          CaseResult& r) {
  const auto planet = make_planet(c.planet);
  const auto eq = make_equilibrium(c.gas, c.planet);
  const solvers::StagnationLineSolver stag(eq, stagnation_options(c));
  const auto traj = integrate_case_trajectory(c, planet);

  PulseOptions popt;
  popt.max_points = c.max_pulse_points;
  popt.wall_temperature_K = c.wall_temperature_K;
  popt.threads = opt.threads;
  const PulseResult pulse = heating_pulse(traj, c.vehicle, stag, popt);

  r.table.set_columns(
      {"time_s", "alt_km", "v_kms", "q_conv_Wcm2", "q_rad_Wcm2"});
  double qc_max = 0.0, qr_max = 0.0, t_qc = 0.0;
  for (const auto& p : pulse.points) {
    r.table.add_row({p.time, p.altitude / 1000.0, p.velocity / 1000.0,
                     p.q_conv / 1e4, p.q_rad / 1e4});
    if (p.q_conv > qc_max) {
      qc_max = p.q_conv;
      t_qc = p.time;
    }
    qr_max = std::max(qr_max, p.q_rad);
  }
  r.n_points_skipped = pulse.n_skipped;
  r.metrics = {{"peak_q_conv", qc_max, "W/m^2"},
               {"peak_q_rad", qr_max, "W/m^2"},
               {"t_peak", t_qc, "s"},
               {"heat_load", pulse.heat_load(), "J/m^2"},
               {"n_points", static_cast<double>(pulse.points.size()), "-"},
               {"n_solved", static_cast<double>(pulse.n_solved), "-"},
               {"n_free_molecular",
                static_cast<double>(pulse.n_free_molecular), "-"},
               {"n_skipped", static_cast<double>(pulse.n_skipped), "-"}};
}

// ---------------------------------------------------------------------------
// Single stagnation-line solve at a flight condition (Fig. 3 species
// profiles, quickstart-style heating summaries).
// ---------------------------------------------------------------------------
void run_stagnation_point(const Case& c, const RunOptions&, CaseResult& r) {
  const auto planet = make_planet(c.planet);
  const auto eq = make_equilibrium(c.gas, c.planet);
  const solvers::StagnationLineSolver stag(eq, stagnation_options(c));
  const auto sc = stagnation_conditions(c, planet);
  const auto sol = stag.solve(sc);

  // Track the most abundant species across the layer (stable order:
  // descending peak mole fraction, then species index).
  const auto& set = eq.mixture().set();
  const std::size_t ns = sol.n_species;
  std::vector<std::size_t> order(ns);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> peak(ns, 0.0);
  for (std::size_t s = 0; s < ns; ++s)
    for (const double x : sol.species_x[s]) peak[s] = std::max(peak[s], x);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return peak[a] != peak[b] ? peak[a] > peak[b] : a < b;
  });
  const std::size_t n_tracked = std::min<std::size_t>(ns, 8);

  std::vector<std::string> cols = {"y_mm", "T_K"};
  for (std::size_t k = 0; k < n_tracked; ++k)
    cols.push_back("x_" + set.names[order[k]]);
  r.table.set_columns(cols);
  for (std::size_t k = 0; k < sol.y_phys.size(); ++k) {
    std::vector<double> row = {sol.y_phys[k] * 1000.0,
                               sol.temperature[k]};
    for (std::size_t s = 0; s < n_tracked; ++s)
      row.push_back(sol.species_x[order[s]][k]);
    r.table.add_row(row);
  }
  r.metrics = {{"q_conv", sol.q_conv, "W/m^2"},
               {"q_rad", sol.q_rad, "W/m^2"},
               {"standoff", sol.edge.standoff, "m"},
               {"t_stag", sol.edge.t_stag, "K"},
               {"p_stag", sol.edge.p_stag, "Pa"},
               {"density_ratio", sol.edge.density_ratio, "-"},
               {"du_dx", sol.du_dx, "1/s"}};
}

namespace {

using Body = void(const Case&, const RunOptions&, CaseResult&);

/// The body executing a case. Tier-0 fidelities come first: they answer
/// the common stagnation-heating question for the case's flight state
/// regardless of which solver family the case nominally belongs to. The
/// family switch has no default label, so -Wswitch flags a family added
/// without a body.
Body* body_for(const Case& c) {
  if (c.fidelity == Fidelity::kCorrelation) return run_correlation;
  if (c.fidelity == Fidelity::kSurrogate) return run_surrogate;
  switch (c.family) {
    case SolverFamily::kTrajectoryDomain: return run_trajectory_domain;
    case SolverFamily::kStagnationPulse: return run_stagnation_pulse;
    case SolverFamily::kStagnationPoint: return run_stagnation_point;
    case SolverFamily::kEulerBoundaryLayer: return run_euler_bl;
    case SolverFamily::kVslMarch: return run_vsl;
    case SolverFamily::kPnsMarch: return run_pns;
    case SolverFamily::kFiniteVolumeField: return run_finite_volume_field;
    case SolverFamily::kShockTubeRelaxation: return run_shock_tube;
  }
  throw std::invalid_argument("run_case: unknown solver family");
}

}  // namespace
}  // namespace detail

CaseResult run_case(const Case& c, const RunOptions& opt) {
  const auto t0 = detail::Clock::now();
  detail::Body* const body = detail::body_for(c);
  CaseResult r = detail::make_result(c);
  if (c.fidelity == Fidelity::kCorrelation ||
      c.fidelity == Fidelity::kSurrogate)
    r.solver = to_string(c.fidelity);
  r.table = io::Table(c.title.empty() ? c.name : c.title);
  body(c, opt, r);
  r.elapsed_seconds = detail::seconds_since(t0);
  return r;
}

}  // namespace cat::scenario
