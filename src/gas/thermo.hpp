#pragma once
/// \file thermo.hpp
/// Rigid-rotor / harmonic-oscillator (RRHO) statistical thermodynamics.
///
/// Every thermodynamic function in the library — species enthalpies for the
/// energy equation, Gibbs energies for the equilibrium solver, equilibrium
/// constants for the finite-rate chemistry — is evaluated from one
/// partition-function model so that chemistry and thermodynamics are
/// mutually consistent (a requirement the paper stresses for coupling
/// real-gas models to flow solvers).
///
/// Mode partition:
///   translation  : classical, Sackur-Tetrode entropy
///   rotation     : classical (theta_r << T in all CAT regimes)
///   vibration    : quantum harmonic oscillators, one term per mode
///   electronic   : explicit sum over tabulated low-lying levels
///
/// All per-mole quantities are J/mol (or J/(mol K)); per-mass helpers in
/// J/kg are provided for flow-solver use.

#include "gas/species.hpp"

namespace cat::gas {

/// Thermodynamic property bundle evaluated at one temperature.
struct ThermoEval {
  double cp;       ///< [J/(mol K)] at constant pressure
  double h;        ///< [J/mol] absolute enthalpy incl. formation
  double s;        ///< [J/(mol K)] at the evaluation pressure
  double g;        ///< [J/mol] Gibbs = h - T s
};

/// Internal thermal energy (J/mol) measured from 0 K, *excluding* formation
/// enthalpy: translation + rotation + vibration + electronic.
double internal_energy_thermal(const Species& s, double t);

/// Constant-volume heat capacity [J/(mol K)].
double cv_mole(const Species& s, double t);

/// Constant-pressure heat capacity [J/(mol K)] (= cv + Ru for ideal gas).
double cp_mole(const Species& s, double t);

/// Absolute enthalpy [J/mol]: formation enthalpy at 298.15 K plus thermal
/// enthalpy difference h_th(T) - h_th(298.15). The reference h_th(298.15)
/// is the database's per-species constant Species::h_thermal_298.
double enthalpy_mole(const Species& s, double t);

/// Entropy [J/(mol K)] at temperature \p t and pressure \p p.
double entropy_mole(const Species& s, double t, double p);

/// Enthalpy and entropy at one (t, p) from one pass over the species data
/// (the electronic sums are evaluated once, not once per property). Each
/// member equals the separate enthalpy_mole / entropy_mole call bit for
/// bit, so the Gibbs energy h - t s is the same number too.
struct EnthalpyEntropy {
  double h;  ///< enthalpy_mole(s, t) [J/mol]
  double s;  ///< entropy_mole(s, t, p) [J/(mol K)]
};
EnthalpyEntropy enthalpy_entropy_mole(const Species& s, double t, double p);

/// All properties at once (cheaper than separate calls).
ThermoEval evaluate(const Species& s, double t, double p);

/// --- cached-constant fast path (finite-rate chemistry workspace) --------
///
/// Repeated Gibbs evaluations at a fixed pressure share large
/// temperature-independent pieces (Sackur-Tetrode constants, rotational
/// constants, the 298.15 K reference enthalpy). GibbsConstants folds them
/// in once per species so the per-temperature evaluation reduces to one
/// log plus one exp per vibrational mode / electronic level — the form the
/// chemistry::Workspace rate kernels evaluate once per species per
/// temperature instead of once per stoichiometric entry per reaction.

struct GibbsConstants {
  double h_const;      ///< h_formation_298 - h_thermal_298 [J/mol]
  double h_lin_coeff;  ///< coefficient of T in h: (2.5 + rot) * Ru [J/(mol K)]
  double s_logt_coeff; ///< coefficient of ln T in s [J/(mol K)]
  double s_const;      ///< T-independent entropy part at the bound p [J/(mol K)]
};

/// Precompute the temperature-independent parts of g(T, p) for \p s.
GibbsConstants make_gibbs_constants(const Species& s, double p);

/// g = h - t s through precomputed constants: identical physics to
/// enthalpy_entropy_mole (agreement to roundoff, not bitwise), roughly 3x
/// fewer transcendentals.
double gibbs_mole_fast(const Species& s, const GibbsConstants& gc, double t);

/// Fused thermal internal energy and cv at one temperature: one pass over
/// the vibrational modes and electronic levels, sharing the exponentials
/// (reactor RHS hot path; separate calls cost two passes).
struct ThermalEnergyCv {
  double e;   ///< internal_energy_thermal(s, t) [J/mol]
  double cv;  ///< cv_mole(s, t) [J/(mol K)]
};
ThermalEnergyCv thermal_energy_cv(const Species& s, double t);

/// --- vibrational-mode partial properties (two-temperature model) -------

/// Vibrational + electronic energy content [J/mol] evaluated at its own
/// temperature tv — the energy pool of the Park two-temperature model.
double vibronic_energy_mole(const Species& s, double tv);

/// d(vibronic energy)/dT [J/(mol K)] — vibronic heat capacity.
double vibronic_cv_mole(const Species& s, double tv);

/// --- per-mass helpers ---------------------------------------------------
double enthalpy_mass(const Species& s, double t);        ///< [J/kg]
double cp_mass(const Species& s, double t);              ///< [J/(kg K)]

}  // namespace cat::gas
