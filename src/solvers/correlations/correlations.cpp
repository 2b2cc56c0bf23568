#include "solvers/correlations/correlations.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "transport/transport.hpp"

namespace cat::solvers::correlations {

namespace {

// Cold-air constants shared by every fit (SI).
constexpr double kGammaCold = 1.4;
constexpr double kRAir = 287.053;              // [J/(kg K)]
constexpr double kCpCold = 3.5 * kRAir;        // [J/(kg K)] gamma/(gamma-1) R
constexpr double kRhoSeaLevel = 1.225;         // [kg/m^3]

// Unit conversions for the Tauber shuttle leading-edge fit (imperial).
constexpr double kSlugFt3PerKgM3 = 1.0 / 515.379;  // rho: SI -> slug/ft^3
constexpr double kFtPerM = 1.0 / 0.3048;           // speed: SI -> ft/s
constexpr double kWm2PerBtuFt2s = 11356.5;         // flux: Btu/ft^2/s -> SI

void require_valid(const CorrelationConditions& c) {
  CAT_REQUIRE(c.velocity_mps > 0.0, "correlation needs a positive velocity");
  CAT_REQUIRE(c.rho_inf_kg_m3 > 0.0, "correlation needs a positive density");
  CAT_REQUIRE(c.t_inf_K > 0.0, "correlation needs a positive temperature");
  CAT_REQUIRE(c.nose_radius_m > 0.0,
              "correlation needs a positive nose radius");
  CAT_REQUIRE(c.wall_temperature_K > 0.0,
              "correlation needs a positive wall temperature");
}

/// Rayleigh-pitot maximum pressure coefficient at Mach \p m (cold gamma).
double pitot_cp_max(double m) {
  const double g = kGammaCold;
  const double m2 = m * m;
  const double a = std::pow((g + 1.0) * (g + 1.0) * m2 /
                                (4.0 * g * m2 - 2.0 * (g - 1.0)),
                            g / (g - 1.0));
  const double b = (1.0 - g + 2.0 * g * m2) / (g + 1.0);
  return 2.0 / (g * m2) * (a * b - 1.0);
}

/// Hot-wall factor (1 - h_w/h0) shared by the cold-wall fits.
double hot_wall_factor(const CorrelationConditions& c) {
  const double h0 =
      kCpCold * c.t_inf_K + 0.5 * c.velocity_mps * c.velocity_mps;
  const double hw = kCpCold * c.wall_temperature_K;
  return std::max(1.0 - hw / h0, 0.0);
}

}  // namespace

const char* to_string(CorrelationKind kind) {
  switch (kind) {
    case CorrelationKind::kFayRiddell: return "fay_riddell";
    case CorrelationKind::kKempRiddell: return "kemp_riddell";
    case CorrelationKind::kLees: return "lees";
    case CorrelationKind::kTauber: return "tauber";
    case CorrelationKind::kDetraKempRiddell: return "detra_kemp_riddell";
  }
  return "unknown";
}

EdgeEstimate estimate_edge(const CorrelationConditions& c) {
  require_valid(c);
  EdgeEstimate e;
  e.h0_J_per_kg =
      kCpCold * c.t_inf_K + 0.5 * c.velocity_mps * c.velocity_mps;
  e.h_wall_J_per_kg = kCpCold * c.wall_temperature_K;

  // Stagnation pressure from the Rayleigh pitot formula; below Mach 1 the
  // incompressible limit Cp = 1 keeps subsonic table corners well-defined.
  const double a_inf = std::sqrt(kGammaCold * kRAir * c.t_inf_K);
  const double mach = c.velocity_mps / a_inf;
  const double q_dyn =
      0.5 * c.rho_inf_kg_m3 * c.velocity_mps * c.velocity_mps;
  const double cp_stag = mach > 1.0 ? pitot_cp_max(mach) : 1.0;
  e.p_stag_Pa = c.p_inf_Pa + cp_stag * q_dyn;

  // Effective equilibrium-air edge temperature: frozen h0/cp below the
  // dissociation onset, a sublinear equilibrium-air fit above it (the min
  // is continuous near h0 ~ 4.5 MJ/kg). The heating chain only feels this
  // through (rho mu)_e^0.4 ~ T^-0.12, so the engineering fit suffices.
  const double t_frozen = e.h0_J_per_kg / kCpCold;
  const double t_equil = 6000.0 * std::pow(e.h0_J_per_kg / 1.0e7, 0.38);
  e.t_stag_K = std::min(t_frozen, t_equil);

  // Edge density from the cold-composition gas law (dissociation raises R
  // by <~30%, a <~12% density effect entering the flux at the 0.4 power).
  e.rho_stag_kg_m3 = e.p_stag_Pa / (kRAir * e.t_stag_K);
  e.du_dx_Hz = newtonian_velocity_gradient(
      c.nose_radius_m, e.p_stag_Pa, c.p_inf_Pa, e.rho_stag_kg_m3);
  return e;
}

double fay_riddell_heating(const CorrelationConditions& c) {
  const EdgeEstimate e = estimate_edge(c);
  FayRiddellInputs in;
  in.rho_e = e.rho_stag_kg_m3;
  in.mu_e = transport::sutherland_viscosity(e.t_stag_K);
  in.rho_w = e.p_stag_Pa / (kRAir * c.wall_temperature_K);
  in.mu_w = transport::sutherland_viscosity(c.wall_temperature_K);
  in.du_dx = e.du_dx_Hz;
  in.h0_e = e.h0_J_per_kg;
  in.h_w = e.h_wall_J_per_kg;
  // Enthalpy not in thermal modes at the edge temperature rides in
  // dissociation (the Lewis-number term's carrier).
  in.h_dissociation =
      std::max(e.h0_J_per_kg - kCpCold * e.t_stag_K, 0.0);
  return fay_riddell(in);
}

double kemp_riddell_heating(const CorrelationConditions& c) {
  require_valid(c);
  // q = 1.103e8 sqrt(rho / (rho_sl R)) (V/7925)^3.25 (1 - hw/h0)  [W/m^2]
  return 1.103e8 *
         std::sqrt(c.rho_inf_kg_m3 / (kRhoSeaLevel * c.nose_radius_m)) *
         std::pow(c.velocity_mps / 7925.0, 3.25) * hot_wall_factor(c);
}

double lees_heating(const CorrelationConditions& c) {
  require_valid(c);
  // q = 1.83e-4 sqrt(rho/R) V^3 (1 - hw/h0)  [W/m^2]
  return 1.83e-4 * std::sqrt(c.rho_inf_kg_m3 / c.nose_radius_m) *
         c.velocity_mps * c.velocity_mps * c.velocity_mps *
         hot_wall_factor(c);
}

double tauber_heating(const CorrelationConditions& c) {
  require_valid(c);
  // Shuttle leading-edge fit (dymos form): q = 17700 sqrt(rho_slug)
  // (1e-4 V_fps)^3.07 poly(alpha)  [Btu/ft^2/s], alpha in degrees. The
  // fit is anchored at a ~1 ft leading-edge radius; the sqrt(R_ref/R)
  // factor restores the stagnation-point radius scaling.
  const double rho_slug = c.rho_inf_kg_m3 * kSlugFt3PerKgM3;
  const double v_fps = c.velocity_mps * kFtPerM;
  const double alpha_deg = c.angle_of_attack_rad * 180.0 / M_PI;
  const double poly =
      1.0672181 + alpha_deg * (-1.9213774e-2 +
                               alpha_deg * (2.1286289e-4 -
                                            alpha_deg * 1.0117249e-6));
  const double q_btu = 17700.0 * std::sqrt(rho_slug) *
                       std::pow(1.0e-4 * v_fps, 3.07) * poly;
  return q_btu * kWm2PerBtuFt2s * std::sqrt(0.3048 / c.nose_radius_m);
}

double detra_kemp_riddell_heating(const CorrelationConditions& c) {
  require_valid(c);
  // Detra's recalibration: same form as Kemp-Riddell with coefficient
  // 1.1035e8 and velocity exponent 3.15.
  return 1.1035e8 *
         std::sqrt(c.rho_inf_kg_m3 / (kRhoSeaLevel * c.nose_radius_m)) *
         std::pow(c.velocity_mps / 7925.0, 3.15) * hot_wall_factor(c);
}

double stagnation_heating(CorrelationKind kind,
                          const CorrelationConditions& c) {
  switch (kind) {
    case CorrelationKind::kFayRiddell: return fay_riddell_heating(c);
    case CorrelationKind::kKempRiddell: return kemp_riddell_heating(c);
    case CorrelationKind::kLees: return lees_heating(c);
    case CorrelationKind::kTauber: return tauber_heating(c);
    case CorrelationKind::kDetraKempRiddell:
      return detra_kemp_riddell_heating(c);
  }
  throw std::invalid_argument("stagnation_heating: unknown correlation");
}

double fay_riddell(const FayRiddellInputs& in) {
  CAT_REQUIRE(in.rho_e > 0.0 && in.mu_e > 0.0, "bad edge state");
  CAT_REQUIRE(in.du_dx > 0.0, "velocity gradient must be positive");
  const double le_term =
      1.0 + (std::pow(in.lewis, 0.52) - 1.0) *
                (in.h0_e > 0.0 ? in.h_dissociation / in.h0_e : 0.0);
  return 0.76 * std::pow(in.prandtl, -0.6) *
         std::pow(in.rho_e * in.mu_e, 0.4) *
         std::pow(in.rho_w * in.mu_w, 0.1) * std::sqrt(in.du_dx) *
         (in.h0_e - in.h_w) * le_term;
}

double newtonian_velocity_gradient(double nose_radius, double p_e,
                                   double p_inf, double rho_e) {
  CAT_REQUIRE(nose_radius > 0.0 && rho_e > 0.0, "bad inputs");
  CAT_REQUIRE(p_e > p_inf, "edge pressure must exceed freestream");
  return std::sqrt(2.0 * (p_e - p_inf) / rho_e) / nose_radius;
}

double sutton_graves(double rho_inf, double velocity, double nose_radius,
                     double k) {
  CAT_REQUIRE(rho_inf > 0.0 && nose_radius > 0.0, "bad inputs");
  return k * std::sqrt(rho_inf / nose_radius) * velocity * velocity *
         velocity;
}

double tauber_sutton_radiative(double rho_inf, double velocity,
                               double nose_radius) {
  CAT_REQUIRE(rho_inf > 0.0 && nose_radius > 0.0, "bad inputs");
  // Tauber-Sutton: q_r = 4.736e4 R^a rho^1.22 f(V)  [W/cm^2 in CGS-mixed
  // units]; f(V) tabulated — here a smooth fit rising steeply above
  // ~9 km/s (the velocity range where air radiation turns on).
  if (velocity < 9000.0) {
    // Below the radiative threshold: negligible (smoothly off).
    const double ramp = std::max(velocity - 6000.0, 0.0) / 3000.0;
    return 1.0e4 * ramp * ramp * std::pow(rho_inf / 1e-4, 1.22) *
           std::pow(nose_radius, 0.5);
  }
  const double fv = std::pow(velocity / 10000.0, 8.5);
  const double a = 0.526;  // radius exponent (high-velocity branch)
  return 4.736e8 * std::pow(nose_radius, a) * std::pow(rho_inf, 1.22) * fv;
}

}  // namespace cat::solvers::correlations
