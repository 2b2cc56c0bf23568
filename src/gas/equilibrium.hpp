#pragma once
/// \file equilibrium.hpp
/// Chemical-equilibrium composition by Gibbs free-energy minimization
/// (element-potential / STANJAN-style formulation).
///
/// The paper: "Many flows can be adequately approximated by assuming an
/// equilibrium real gas ... the thermochemical state of the gas can be
/// defined solely by the local temperature and pressure." This solver is
/// that definition: given (T, p) and the elemental makeup of the gas, it
/// returns the composition minimizing total Gibbs energy. Density-energy
/// inversions (rho, e) -> (T, p, composition) — the form finite-volume
/// solvers need — are layered on top. An inversion starts each trial
/// temperature's minimization from the nearest state it already solved.
/// solve_ph also takes an optional hint, a state converged by an earlier
/// call (the previous point along a stagnation line, say): the hint changes
/// only where the inversion starts — the first trial's potentials and the
/// temperature its bracket grows from — never what it converges to, so a
/// hinted result equals the unhinted one to round-off (<= 1e-12, tested).
/// The solver itself holds no state between calls.

#include <array>
#include <span>
#include <vector>

#include "gas/mixture.hpp"
#include "gas/species.hpp"

namespace cat::gas {

/// Result of an equilibrium solve.
struct EquilibriumResult {
  double t;                       ///< [K]
  double p;                       ///< [Pa]
  double rho;                     ///< [kg/m^3]
  std::vector<double> x;          ///< mole fractions (per SpeciesSet order)
  std::vector<double> y;          ///< mass fractions
  double molar_mass;              ///< mixture [kg/mol]
  double h;                       ///< specific enthalpy [J/kg]
  double e;                       ///< specific internal energy [J/kg]
  double gamma_eff;               ///< p/(rho e_thermal)+1 effective exponent
  /// Converged element potentials (pi..., ln N per kg), the start a
  /// hinted solve_ph seeds from; empty when Newton was only loosely
  /// accepted (no converged potentials to carry over).
  std::vector<double> potentials;
};

/// Equilibrium solver for a fixed SpeciesSet and elemental abundance.
class EquilibriumSolver {
 public:
  /// \p b_elements: elemental abundance [mol-element per kg mixture]
  /// (see element_moles_per_kg). Elements absent from every species in the
  /// set must have zero abundance.
  EquilibriumSolver(SpeciesSet set,
                    std::array<double, kNumElements> b_elements);

  /// Convenience: cold-mixture definition by species mole fractions.
  EquilibriumSolver(
      SpeciesSet set,
      const std::vector<std::pair<std::string, double>>& cold_mole_fractions);

  const Mixture& mixture() const { return mix_; }

  /// Composition at fixed temperature and pressure.
  EquilibriumResult solve_tp(double t, double p) const;

  /// Composition at fixed density and specific internal energy
  /// (outer Newton on temperature; the natural query for FV solvers).
  EquilibriumResult solve_rho_e(double rho, double e) const;

  /// Composition at fixed pressure and specific enthalpy (the natural
  /// query for stagnation-line/boundary-layer solvers). Unhinted, the
  /// temperature is bracketed by [150, 40000] K. With \p hint (a state of
  /// this solver, at any p and h), the first trial starts from the hint's
  /// potentials and the bracket grows geometrically from the hint's
  /// temperature; the answer is the same to round-off either way.
  EquilibriumResult solve_ph(double p, double h,
                             const EquilibriumResult* hint = nullptr) const;

  /// Equilibrium sound speed at a converged state via centered finite
  /// differences of p(rho, s) along isentropes (numerical, but exact wrt
  /// the model).
  double sound_speed(const EquilibriumResult& state) const;

  /// Mixture specific entropy [J/(kg K)] of a converged state, including
  /// the entropy of mixing (each species at its partial pressure).
  double entropy(const EquilibriumResult& state) const;

  /// Isentropic expansion/compression: state at pressure \p p with the
  /// same entropy as \p from (boundary-layer edge conditions for E+BL).
  EquilibriumResult expand_isentropic(const EquilibriumResult& from,
                                      double p) const;

 private:
  /// Per-call Newton workspace plus the states converged so far in that
  /// call (defined in equilibrium.cpp). It lives on the stack of one public
  /// call; only an explicit hint carries a state from an earlier call.
  struct Scratch;
  struct Trial;

  Mixture mix_;
  std::array<double, kNumElements> b_;
  std::vector<std::size_t> active_elements_;  // elements present in the set
  /// Species whose every element has nonzero abundance; others are pinned
  /// to zero mole fraction (an element with zero abundance would drive its
  /// potential to -infinity otherwise).
  std::vector<bool> enabled_;
  /// comp_[i * n_species + s]: atoms of active element i in species s,
  /// bound once so the Newton loop reads no species records.
  std::vector<double> comp_;

  /// Damped Newton on the element potentials at (t, p) from \p start
  /// (empty: the cold start). See equilibrium.cpp for the outcomes.
  bool newton(double t, double p, std::span<const double> start,
              bool speculative, Scratch& ws) const;

  /// The cold solve: Newton from the cold start, then a temperature
  /// continuation from 6000 K. Returns whether potentials converged.
  bool solve_cold(double t, double p, Scratch& ws) const;

  /// Composition at (t, p), warm-started from the nearest state this call
  /// already converged (or, before any, from the caller's hint), and
  /// remembered for the rest of the call.
  const Trial& evaluate(double t, double p, Scratch& ws) const;

  EquilibriumResult package(const Trial& st) const;
};

}  // namespace cat::gas
