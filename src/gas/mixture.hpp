#pragma once
/// \file mixture.hpp
/// Multi-species mixture state and frozen-mixture thermodynamics.
///
/// A `Mixture` binds a SpeciesSet to composition arrays and provides the
/// frozen (fixed-composition) thermodynamic queries the flow solvers need:
/// gas constant, enthalpy, internal energy, frozen sound speed, and the
/// Newton inversion T(e) used by every conservative-variable decode.

#include <span>
#include <vector>

#include "gas/species.hpp"

namespace cat::gas {

/// Composition/thermo helper for one SpeciesSet. Stateless w.r.t. the flow:
/// all queries take composition and temperature explicitly so a single
/// Mixture can serve a whole flow field.
class Mixture {
 public:
  explicit Mixture(SpeciesSet set);

  const SpeciesSet& set() const { return set_; }
  std::size_t n_species() const { return set_.size(); }

  /// Mixture gas constant R = Ru * sum(y_s / M_s) [J/(kg K)].
  double gas_constant(std::span<const double> y) const;

  /// Mean molar mass [kg/mol] from mass fractions.
  double molar_mass(std::span<const double> y) const;

  /// Mass fractions -> mole fractions.
  std::vector<double> mole_fractions(std::span<const double> y) const;

  /// Allocation-free form: writes mole fractions into caller-owned \p x
  /// (hot-path workspace convention; x.size() == n_species()).
  void mole_fractions(std::span<const double> y, std::span<double> x) const;

  /// Mole fractions -> mass fractions, written into caller-owned \p y
  /// (y.size() == n_species()).
  void mass_fractions_from_moles(std::span<const double> x,
                                 std::span<double> y) const;

  /// Frozen specific heat cp [J/(kg K)] at temperature t.
  double cp_mass(std::span<const double> y, double t) const;

  /// Mixture specific enthalpy [J/kg] (absolute, incl. formation).
  double enthalpy_mass(std::span<const double> y, double t) const;

  /// Mixture specific internal energy [J/kg]: e = h - R T.
  double internal_energy_mass(std::span<const double> y, double t) const;

  /// Invert e(T) for temperature by safeguarded Newton. \p t_guess seeds
  /// the iteration; result clamped to [t_min, t_max].
  double temperature_from_energy(std::span<const double> y, double e,
                                 double t_guess = 1000.0,
                                 double t_min = 10.0,
                                 double t_max = 60000.0) const;

  /// Same inversion from enthalpy h = e + R T over the fixed bracket
  /// [10 K, 60000 K]; throws cat::SolverError when \p h lies outside the
  /// enthalpy range of that bracket (no solution exists).
  double temperature_from_enthalpy(std::span<const double> y, double h,
                                   double t_guess = 1000.0) const;

  /// Validate and renormalize mass fractions in place (clip tiny negatives
  /// from conservative updates, renormalize to sum 1).
  static void clean_mass_fractions(std::span<double> y);

 private:
  SpeciesSet set_;
};

}  // namespace cat::gas
