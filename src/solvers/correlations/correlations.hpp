#pragma once
/// \file correlations.hpp
/// Tier-0 engineering stagnation-heating correlations: the era-standard
/// design formulas (Fay-Riddell, Kemp-Riddell, Lees, Tauber, and
/// Detra-Kemp-Riddell) evaluated directly from the freestream state — no
/// grids, no iteration, no allocation. This is the fastest rung of the
/// fidelity ladder (Fidelity::kCorrelation): the scenario runner answers
/// the common stagnation-heating query in ~1 us here versus ~0.1-1 s for
/// the stagnation-line viscous-shock-layer solve, and the cross-fidelity
/// deviation tables (cat_run --compare-fidelity) record where the
/// correlations break down against the full hierarchy.
///
/// All fits are for Earth air in SI units; applying them to other
/// atmospheres reuses the air constants (documented scoping estimate, as
/// the era's design codes did).

#include <array>

namespace cat::solvers::correlations {

/// Freestream + body state feeding one correlation query. Everything the
/// closed-form chain needs; all fields SI.
struct CorrelationConditions {
  double velocity_mps = 0.0;          ///< [m/s]
  double rho_inf_kg_m3 = 0.0;         ///< [kg/m^3]
  double p_inf_Pa = 0.0;              ///< [Pa]
  double t_inf_K = 0.0;               ///< [K]
  double nose_radius_m = 0.0;         ///< [m] effective stagnation radius
  double wall_temperature_K = 300.0;  ///< [K]
  double angle_of_attack_rad = 0.0;   ///< [rad] Tauber leading-edge fit
};

/// The correlation family, in catalog order.
enum class CorrelationKind {
  kFayRiddell,        ///< full boundary-layer form via an effective-gamma
                      ///< edge-state chain (the physics-based member)
  kKempRiddell,       ///< satellite-era cold-wall fit
  kLees,              ///< laminar similarity fit
  kTauber,            ///< shuttle leading-edge fit (angle-of-attack poly)
  kDetraKempRiddell,  ///< Detra's recalibration of Kemp-Riddell
};

inline constexpr std::array<CorrelationKind, 5> kAllCorrelations = {
    CorrelationKind::kFayRiddell, CorrelationKind::kKempRiddell,
    CorrelationKind::kLees, CorrelationKind::kTauber,
    CorrelationKind::kDetraKempRiddell};

const char* to_string(CorrelationKind kind);

/// Closed-form stagnation-edge estimate backing the Fay-Riddell chain:
/// Rayleigh-pitot stagnation pressure, an equilibrium-air effective-cp
/// temperature fit, and the Newtonian velocity gradient. Exposed so tests
/// and the compare-fidelity artifact can inspect the chain; the heating
/// result is weakly sensitive to the edge temperature (it enters through
/// (rho mu)_e^0.4 ~ T^-0.12).
struct EdgeEstimate {
  double p_stag_Pa = 0.0;        ///< [Pa] Rayleigh-pitot stagnation pressure
  double t_stag_K = 0.0;         ///< [K] effective equilibrium edge temp
  double rho_stag_kg_m3 = 0.0;   ///< [kg/m^3] edge density (cold-R gas law)
  double h0_J_per_kg = 0.0;      ///< [J/kg] freestream total enthalpy
  double h_wall_J_per_kg = 0.0;  ///< [J/kg] wall enthalpy
  double du_dx_Hz = 0.0;         ///< [1/s] Newtonian velocity gradient
};
EdgeEstimate estimate_edge(const CorrelationConditions& c);

/// Individual correlations, each returning the stagnation-point convective
/// wall flux [W/m^2]. Allocation-free (enforced by cat_lint's
/// hot-path-alloc check and the operator-new-counting tests).
double fay_riddell_heating(const CorrelationConditions& c);
double kemp_riddell_heating(const CorrelationConditions& c);
double lees_heating(const CorrelationConditions& c);
double tauber_heating(const CorrelationConditions& c);
double detra_kemp_riddell_heating(const CorrelationConditions& c);

/// Dispatch by kind (same contract as the individual functions).
double stagnation_heating(CorrelationKind kind,
                          const CorrelationConditions& c);

/// --- closed-form building blocks ---------------------------------------
/// Shared with the stagnation-line solver (velocity gradient) and the
/// scenario runner's fast paths (radiative estimate).

/// Fay-Riddell stagnation-point convective heating [W/m^2] for equilibrium
/// boundary layers:
///   q = 0.76 Pr^-0.6 (rho_e mu_e)^0.4 (rho_w mu_w)^0.1 sqrt(due/dx)
///       (h0e - hw) [1 + (Le^0.52 - 1) hd/h0e]
struct FayRiddellInputs {
  double rho_e, mu_e;   ///< boundary-layer edge (post-shock stagnation)
  double rho_w, mu_w;   ///< wall
  double du_dx;         ///< stagnation velocity gradient [1/s]
  double h0_e;          ///< edge total enthalpy [J/kg]
  double h_w;           ///< wall enthalpy [J/kg]
  double h_dissociation;///< dissociation enthalpy fraction carrier [J/kg]
  double prandtl = 0.71;
  double lewis = 1.4;
};
double fay_riddell(const FayRiddellInputs& in);

/// Newtonian stagnation velocity gradient: du/dx = (1/R) sqrt(2(p_e-p_inf)/rho_e).
double newtonian_velocity_gradient(double nose_radius, double p_e,
                                   double p_inf, double rho_e);

/// Sutton-Graves cold-wall convective stagnation heating [W/m^2]:
/// q = k sqrt(rho/R) V^3 with k = 1.7415e-4 (Earth air, SI).
double sutton_graves(double rho_inf, double velocity, double nose_radius,
                     double k = 1.7415e-4);

/// Tauber-Sutton stagnation radiative heating estimate [W/m^2] for Earth
/// air: q_r = C R^a rho^b f(V); a simple era fit adequate for trajectory
/// scoping (full spectral transport lives in cat::radiation).
double tauber_sutton_radiative(double rho_inf, double velocity,
                               double nose_radius);

}  // namespace cat::solvers::correlations
